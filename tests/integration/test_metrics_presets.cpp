/**
 * @file
 * Every CompilationMetrics field of the golden and table1_table2
 * presets, as the backends score them, against the expanding path:
 * the measured circuit and the NoMap schedule of the step are built
 * into native gates with decomp::expandForMetrics and measured with
 * twoQubitCount / twoQubitDepth / depth.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/sweep.h"
#include "decomp/pass.h"

using namespace tqan;

namespace {

/** The metrics a backend reports, recomputed by expansion.  Each
 * backend family measures a different circuit (core/backend.cpp):
 * the 2QAN pipelines their schedule, the DAG baselines their
 * same-pair-merged output with SWAPs counted before the merge, and
 * the Paulihedral-like baseline its emitted circuit. */
core::CompilationMetrics
expandingMetrics(const std::string &backend, const core::CompileResult &res,
                 const qcir::Circuit &step, device::GateSet gs)
{
    const qcir::Circuit &device = res.sched.deviceCircuit;
    core::CompilationMetrics m;
    qcir::Circuit measured = device;
    if (backend == "2qan" || backend == "2qan_rrr") {
        m.swaps = res.sched.swapCount;
        m.dressed = res.sched.dressedCount;
    } else if (backend == "qiskit_sabre" || backend == "tket_like" ||
               backend == "ic_qaoa") {
        measured = decomp::mergeAdjacentSamePair(device);
        m.swaps = res.sched.swapCount;
        m.dressed = 0;
    } else if (backend == "paulihedral_like") {
        m.swaps = device.countKind(qcir::OpKind::Swap) +
                  device.countKind(qcir::OpKind::DressedSwap);
        m.dressed = device.countKind(qcir::OpKind::DressedSwap);
    } else {
        ADD_FAILURE() << "no reference recipe for backend " << backend;
    }

    qcir::Circuit ex = decomp::expandForMetrics(measured, gs);
    m.native2q = ex.twoQubitCount();
    m.depth2q = ex.twoQubitDepth();
    m.depthAll = ex.depth();

    qcir::Circuit nomap = decomp::expandForMetrics(
        core::scheduleNoMap(qcir::unifySamePairInteractions(step))
            .deviceCircuit,
        gs);
    m.native2qNoMap = nomap.twoQubitCount();
    m.depth2qNoMap = nomap.twoQubitDepth();
    m.depthAllNoMap = nomap.depth();
    return m;
}

void
expectPresetMatchesExpansion(const std::string &preset)
{
    core::ExpandedSweep ex = core::expandSweep(core::sweepPreset(preset));
    core::BatchCompiler bc({2});
    std::vector<core::BatchJobResult> results = bc.run(ex.jobs);
    ASSERT_EQ(results.size(), ex.jobs.size());
    ASSERT_FALSE(results.empty());
    for (size_t i = 0; i < results.size(); ++i) {
        const core::BatchJob &job = ex.jobs[i];
        const core::BatchJobResult &r = results[i];
        ASSERT_TRUE(r.ok()) << job.backend << ": " << r.error;
        core::CompilationMetrics want = expandingMetrics(
            job.backend, r.result, *job.job.step, job.gateset);
        const core::CompilationMetrics &got = r.metrics;
        std::string where = preset + " row " + std::to_string(i) + " " +
                            job.backend + " " + ex.rows[i].benchmark +
                            " n=" + std::to_string(ex.rows[i].nqubits);
        EXPECT_EQ(got.swaps, want.swaps) << where;
        EXPECT_EQ(got.dressed, want.dressed) << where;
        EXPECT_EQ(got.native2q, want.native2q) << where;
        EXPECT_EQ(got.depth2q, want.depth2q) << where;
        EXPECT_EQ(got.depthAll, want.depthAll) << where;
        EXPECT_EQ(got.native2qNoMap, want.native2qNoMap) << where;
        EXPECT_EQ(got.depth2qNoMap, want.depth2qNoMap) << where;
        EXPECT_EQ(got.depthAllNoMap, want.depthAllNoMap) << where;
    }
}

} // namespace

TEST(MetricsPresets, GoldenMatchesExpandingPath)
{
    expectPresetMatchesExpansion("golden");
}

TEST(MetricsPresets, Table1Table2MatchesExpandingPath)
{
    expectPresetMatchesExpansion("table1_table2");
}
