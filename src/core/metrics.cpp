#include "core/metrics.h"

#include "decomp/pass.h"

namespace tqan {
namespace core {

namespace {

/** Fill the gate counts of `mapped` and of the NoMap schedule of
 * `step`. */
void
fillCounts(CompilationMetrics &m, const qcir::Circuit &mapped,
           const qcir::Circuit &step, device::GateSet gs)
{
    decomp::ExpansionCounts c = decomp::countExpansion(mapped, gs);
    m.native2q = c.twoQubitCount;
    m.depth2q = c.twoQubitDepth;
    m.depthAll = c.depth;

    ScheduleResult nomap =
        scheduleNoMap(qcir::unifySamePairInteractions(step));
    c = decomp::countExpansion(nomap.deviceCircuit, gs);
    m.native2qNoMap = c.twoQubitCount;
    m.depth2qNoMap = c.twoQubitDepth;
    m.depthAllNoMap = c.depth;
}

} // namespace

CompilationMetrics
computeMetrics(const ScheduleResult &sched, const qcir::Circuit &step,
               device::GateSet gs)
{
    CompilationMetrics m;
    m.swaps = sched.swapCount;
    m.dressed = sched.dressedCount;
    fillCounts(m, sched.deviceCircuit, step, gs);
    return m;
}

CompilationMetrics
computeCircuitMetrics(const qcir::Circuit &mapped,
                      const qcir::Circuit &step, device::GateSet gs)
{
    CompilationMetrics m;
    m.swaps = mapped.countKind(qcir::OpKind::Swap) +
              mapped.countKind(qcir::OpKind::DressedSwap);
    m.dressed = mapped.countKind(qcir::OpKind::DressedSwap);
    fillCounts(m, mapped, step, gs);
    return m;
}

} // namespace core
} // namespace tqan
