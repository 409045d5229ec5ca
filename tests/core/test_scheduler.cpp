/**
 * @file
 * Tests for the schedulers (paper Algorithm 2 + NoMap coloring +
 * generic ablation) including unitary-level semantic verification on
 * commuting (Ising/QAOA) workloads.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/compiler.h"
#include "core/scheduler.h"
#include "device/devices.h"
#include "graph/coloring.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/trotter.h"
#include "qap/tabu.h"
#include "sim/statevector.h"

using namespace tqan;
using namespace tqan::core;

TEST(NoMapScheduler, ChainTakesTwoCycles)
{
    // NN chain: conflict graph is a path -> 2 colors.
    ham::TwoLocalHamiltonian h(6);
    for (int i = 0; i + 1 < 6; ++i)
        h.addPair(i, i + 1, 0, 0, 0.5);
    auto s = scheduleNoMap(ham::trotterStep(h, 1.0));
    EXPECT_EQ(s.twoQubitDepth(), 2);
    EXPECT_EQ(s.deviceCircuit.twoQubitCount(), 5);
    EXPECT_EQ(s.swapCount, 0);
}

TEST(NoMapScheduler, KeepsAllOneQubitOps)
{
    std::mt19937_64 rng(61);
    auto h = ham::nnnIsing(8, rng);
    auto step = ham::trotterStep(h, 1.0);
    auto s = scheduleNoMap(step);
    EXPECT_EQ(s.deviceCircuit.size() - s.deviceCircuit.twoQubitCount(),
              8);
}

namespace {

/** scheduleNoMap's op order as it was built before the per-qubit
 * conflict lists: an all-pairs conflict graph, and a greedy coloring
 * that clears a full-width `used` array for every node. */
std::vector<std::vector<int>>
allPairsNoMapCycles(const qcir::Circuit &circuit)
{
    std::vector<int> twoq;
    for (int i = 0; i < circuit.size(); ++i)
        if (circuit.op(i).isTwoQubit())
            twoq.push_back(i);
    const int m = static_cast<int>(twoq.size());
    graph::Graph conflict(m);
    for (int a = 0; a < m; ++a) {
        for (int b = a + 1; b < m; ++b) {
            const auto &oa = circuit.op(twoq[a]);
            const auto &ob = circuit.op(twoq[b]);
            if (oa.touches(ob.q0) || oa.touches(ob.q1))
                conflict.addEdge(a, b);
        }
    }
    std::vector<int> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return conflict.degree(a) > conflict.degree(b);
    });
    std::vector<int> color(m, -1);
    int ncolors = 0;
    for (int v : order) {
        std::vector<char> used(m + 1, 0);
        for (int w : conflict.neighbors(v))
            if (color[w] >= 0)
                used[color[w]] = 1;
        int c = 0;
        while (used[c])
            ++c;
        color[v] = c;
        ncolors = std::max(ncolors, c + 1);
    }
    // Circuit op indices per cycle, in op order within a cycle.
    std::vector<std::vector<int>> cycles(ncolors);
    for (int c = 0; c < ncolors; ++c)
        for (int a = 0; a < m; ++a)
            if (color[a] == c)
                cycles[c].push_back(twoq[a]);
    return cycles;
}

void
expectNoMapMatchesAllPairs(const qcir::Circuit &circuit)
{
    ScheduleResult s = scheduleNoMap(circuit);
    std::vector<std::vector<int>> ref = allPairsNoMapCycles(circuit);
    ASSERT_EQ(s.cycles.size(), ref.size());
    for (size_t c = 0; c < ref.size(); ++c) {
        ASSERT_EQ(s.cycles[c].size(), ref[c].size()) << "cycle " << c;
        for (size_t i = 0; i < ref[c].size(); ++i) {
            const qcir::Op &got = s.deviceCircuit.op(s.cycles[c][i]);
            const qcir::Op &want = circuit.op(ref[c][i]);
            EXPECT_EQ(got.kind, want.kind);
            EXPECT_EQ(got.q0, want.q0);
            EXPECT_EQ(got.q1, want.q1);
            EXPECT_EQ(got.axx, want.axx);
            EXPECT_EQ(got.ayy, want.ayy);
            EXPECT_EQ(got.azz, want.azz);
        }
    }
    // Cycles are laid out back to back in the device circuit.
    int next = 0;
    for (const auto &cyc : s.cycles)
        for (int idx : cyc)
            EXPECT_EQ(idx, next++);
}

} // namespace

TEST(ScheduleNoMap, PerQubitConflictGraphMatchesAllPairs)
{
    std::mt19937_64 rng(2023);
    for (int n : {6, 12, 30}) {
        expectNoMapMatchesAllPairs(
            ham::trotterStep(ham::nnnHeisenberg(n, rng), 1.0));
        expectNoMapMatchesAllPairs(
            ham::trotterStep(ham::nnnIsing(n, rng), 1.0));
        auto g = graph::randomRegularGraph(n, 3, rng);
        expectNoMapMatchesAllPairs(
            ham::trotterStep(ham::qaoaLayer(g, 0.4, 0.7), 1.0));
        auto dense = graph::erdosRenyi(n, 0.5, rng);
        expectNoMapMatchesAllPairs(
            ham::trotterStep(ham::qaoaLayer(dense, 0.4, 0.7), 1.0));
    }

    // Ops sharing both qubits (either orientation) conflict once, and
    // 1q ops stay out of the graph.
    std::uniform_int_distribution<int> qubit(0, 4);
    for (int rep = 0; rep < 30; ++rep) {
        qcir::Circuit c(5);
        for (int i = 0; i < 25; ++i) {
            int a = qubit(rng), b = qubit(rng);
            if (a == b) {
                c.add(qcir::Op::rz(a, 0.1 * i));
                continue;
            }
            switch (rng() % 4) {
              case 0: c.add(qcir::Op::cnot(a, b)); break;
              case 1: c.add(qcir::Op::cz(b, a)); break;
              case 2: c.add(qcir::Op::swap(a, b)); break;
              default:
                c.add(qcir::Op::interact(a, b, 0.1 * i, 0.0, 0.2));
                break;
            }
        }
        expectNoMapMatchesAllPairs(c);
    }
    expectNoMapMatchesAllPairs(qcir::Circuit(3));
}

namespace {

/**
 * Semantic check for diagonal (commuting) workloads: simulate the
 * scheduled device circuit and the NoMap reference and compare state
 * amplitudes through the final qubit map.
 */
void
expectDiagonalEquivalence(const qcir::Circuit &step,
                          const device::Topology &topo,
                          const ScheduleResult &s)
{
    int n = step.numQubits();
    int nd = topo.numQubits();
    ASSERT_LE(nd, 12);

    // Prepare |+>^n on the logical register, run the flat product of
    // the step ops (order irrelevant: all ZZ commute; 1q fields on
    // distinct qubits commute with everything applied last).
    sim::Statevector ref(n);
    for (int q = 0; q < n; ++q)
        ref.apply1q(q, linalg::hadamard());
    std::vector<qcir::Op> twoq, oneq;
    for (const auto &o : step.ops())
        (o.isTwoQubit() ? twoq : oneq).push_back(o);
    for (const auto &o : twoq)
        ref.applyOp(o);
    for (const auto &o : oneq)
        ref.applyOp(o);

    // Device run: |+> on the initially-mapped qubits.
    sim::Statevector dev(nd);
    for (int q = 0; q < n; ++q)
        dev.apply1q(s.initialMap[q], linalg::hadamard());
    dev.applyCircuit(s.deviceCircuit);

    // Compare amplitudes through the final map.
    auto inv = qap::invertPlacement(s.finalMap, nd);
    for (std::uint64_t d = 0; d < dev.dim(); ++d) {
        // Build the logical basis index; unmapped device qubits must
        // stay |0>.
        std::uint64_t logical = 0;
        bool unmapped_set = false;
        for (int dq = 0; dq < nd; ++dq) {
            if (!((d >> dq) & 1))
                continue;
            if (inv[dq] < 0) {
                unmapped_set = true;
                break;
            }
            logical |= std::uint64_t(1) << inv[dq];
        }
        auto da = dev.amplitude(d);
        if (unmapped_set) {
            EXPECT_NEAR(std::abs(da), 0.0, 1e-9);
        } else {
            EXPECT_NEAR(std::abs(da - ref.amplitude(logical)), 0.0,
                        1e-9);
        }
    }
}

} // namespace

TEST(HybridScheduler, DiagonalSemanticEquivalence)
{
    std::mt19937_64 rng(62);
    for (int seed = 0; seed < 5; ++seed) {
        auto h = ham::nnnIsing(6, rng);
        device::Topology topo = device::grid(2, 3);
        qcir::Circuit step = ham::trotterStep(h, 1.0);

        auto flow = qap::flowMatrix(h);
        auto place = qap::tabuSearchQap(flow, topo, rng);
        auto routing = routePermutationAware(step, place, topo, rng);
        auto s = scheduleHybridAlap(step, topo, routing);

        EXPECT_TRUE(scheduleIsValid(step, topo, s));
        expectDiagonalEquivalence(step, topo, s);
    }
}

TEST(GenericScheduler, DiagonalSemanticEquivalence)
{
    std::mt19937_64 rng(63);
    auto h = ham::nnnIsing(6, rng);
    device::Topology topo = device::grid(2, 3);
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    auto flow = qap::flowMatrix(h);
    auto place = qap::tabuSearchQap(flow, topo, rng);
    auto routing = routePermutationAware(step, place, topo, rng);
    auto s = scheduleGenericAlap(step, topo, routing);
    EXPECT_TRUE(scheduleIsValid(step, topo, s));
    expectDiagonalEquivalence(step, topo, s);
}

/** Property sweep over models, devices, seeds. */
class SchedulerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SchedulerProperty, HybridValidAndNoDeeperThanGeneric)
{
    auto [model, dev, seed] = GetParam();
    std::mt19937_64 rng(seed * 1013 + 7);
    int n = 10;
    ham::TwoLocalHamiltonian h =
        model == 0   ? ham::nnnIsing(n, rng)
        : model == 1 ? ham::nnnXY(n, rng)
                     : ham::nnnHeisenberg(n, rng);
    device::Topology topo = dev == 0 ? device::grid(3, 4)
                                     : device::montreal27();
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    auto flow = qap::flowMatrix(h);
    auto place = qap::tabuSearchQap(flow, topo, rng);
    auto routing = routePermutationAware(step, place, topo, rng);

    auto hybrid = scheduleHybridAlap(step, topo, routing);
    auto generic = scheduleGenericAlap(step, topo, routing);

    EXPECT_TRUE(scheduleIsValid(step, topo, hybrid));
    EXPECT_TRUE(scheduleIsValid(step, topo, generic));
    // The hybrid scheduler exploits strictly more freedom; allow a
    // tiny slack for greedy-order artifacts.
    EXPECT_LE(hybrid.twoQubitDepth(), generic.twoQubitDepth() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperty,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 2),
                       ::testing::Range(0, 5)));
