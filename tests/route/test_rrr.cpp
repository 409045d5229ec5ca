/**
 * @file
 * Properties of the disjoint-chain epoch router (rrr):
 * convergence on adversarial dense interaction graphs (the livelock
 * guard never trips, every route validates), rng-independence of the
 * rrr phase itself, and per-router batch determinism — for every
 * registered router the whole compile grid is bit-identical across
 * pool sizes and submission orders — and byte pins on the QASM the
 * 2qan_rrr pipeline emits for dense and sparse large-device inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <limits>
#include <numeric>
#include <queue>
#include <random>

#include "core/backend.h"
#include "core/batch.h"
#include "core/hash.h"
#include "core/profile.h"
#include "core/router.h"
#include "core/router_registry.h"
#include "core/sweep.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "qap/qap.h"
#include "qcir/qasm.h"
#include "route/path_search.h"
#include "testgen/scenario.h"

using namespace tqan;

namespace {

/** Identity placement: logical i on device qubit i — the adversarial
 * baseline, no mapper cleanup before routing. */
qap::Placement
identityPlacement(int n)
{
    qap::Placement p(n);
    std::iota(p.begin(), p.end(), 0);
    return p;
}

core::RoutingResult
routeWith(const std::string &router, const qcir::Circuit &step,
          const qap::Placement &init, const device::Topology &topo,
          std::uint64_t rngSeed)
{
    std::mt19937_64 rng(rngSeed);
    core::RouteRequest req;
    req.circuit = &step;
    req.initial = &init;
    req.topo = &topo;
    req.rng = &rng;
    req.opt.name = router;
    return core::routerByName(router).route(req);
}

/** Unit-cost Dijkstra on the shortest-path DAG toward t, queue
 * ordered by (cost, vertex id), entering t for free: the reference
 * the level-BFS pathConstrained must reproduce path for path (with a
 * uniform bias it is the search the pinned rrr QASM came from). */
std::vector<int>
referencePath(const device::Topology &topo, int s, int t,
              const std::vector<char> &blocked)
{
    if (blocked[s] || blocked[t])
        return {};
    const int n = topo.numQubits();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> d(n, inf);
    std::vector<int> prev(n, -1);
    std::vector<char> done(n, 0);
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        pq;
    d[s] = 0.0;
    pq.push({0.0, s});
    while (!pq.empty()) {
        auto [dc, u] = pq.top();
        pq.pop();
        if (done[u])
            continue;
        done[u] = 1;
        if (u == t)
            break;
        for (int v : topo.neighbors(u)) {
            if (done[v] || blocked[v])
                continue;
            if (topo.dist(v, t) != topo.dist(u, t) - 1)
                continue;
            double nd = dc + (v == t ? 0.0 : 1.0);
            if (nd < d[v] || (nd == d[v] && u < prev[v])) {
                d[v] = nd;
                prev[v] = u;
                pq.push({nd, v});
            }
        }
    }
    if (d[t] == inf)
        return {};
    std::vector<int> path;
    for (int v = t; v != -1; v = prev[v])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

} // namespace

TEST(RrrPathSearch, MatchesUnitCostDijkstraUnderRandomMasks)
{
    std::mt19937_64 rng(808);
    const device::Topology topos[] = {
        device::deviceByName("grid:9x9"),
        device::deviceByName("heavyhex:5"),
        device::sycamore54(),
    };
    int found = 0, empty = 0;
    for (const auto &topo : topos) {
        int nq = topo.numQubits();
        std::uniform_int_distribution<int> pick(0, nq - 1);
        for (int trial = 0; trial < 400; ++trial) {
            // Masks from empty to a third of the device blocked.
            std::bernoulli_distribution coin((trial % 4) / 9.0);
            std::vector<char> blocked(nq, 0);
            for (auto &b : blocked)
                b = coin(rng);
            int s = pick(rng), t = pick(rng);
            if (s == t)
                continue;
            auto p = route::pathConstrained(topo, s, t, blocked);
            ASSERT_EQ(p, referencePath(topo, s, t, blocked))
                << topo.name() << " " << s << "->" << t;
            (p.empty() ? empty : found)++;
        }
    }
    // Both outcomes are exercised.
    EXPECT_GT(found, 100);
    EXPECT_GT(empty, 100);
}

TEST(Rrr, ConvergesOnAdversarialDenseGraphs)
{
    // Dense Erdos-Renyi QAOA layers routed from an identity
    // placement: nearly every pair of logical qubits is a net, so
    // epochs stay contended until the very end.  route() throwing
    // would mean the livelock guard tripped (no convergence).
    std::mt19937_64 gen(77);
    for (int n : {8, 10, 12}) {
        for (double p : {0.6, 0.9}) {
            auto g = graph::erdosRenyi(n, p, gen);
            auto h = ham::qaoaLayerHamiltonian(
                g, ham::qaoaFixedAngles(1)[0]);
            qcir::Circuit step = ham::trotterStep(h, 1.0);
            for (const auto &topo :
                 {device::grid(4, 4), device::sycamore54()}) {
                SCOPED_TRACE(topo.name() + " n=" +
                             std::to_string(n));
                core::RoutingResult r;
                ASSERT_NO_THROW(
                    r = routeWith("rrr", step,
                                  identityPlacement(n), topo, 1));
                EXPECT_TRUE(core::routingIsValid(step, topo, r));
            }
        }
    }
}

TEST(Rrr, CountersPublishedOncePerCall)
{
    std::mt19937_64 gen(78);
    auto g = graph::erdosRenyi(12, 0.9, gen);
    auto h = ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::grid(4, 4);

    auto counter = [](const std::vector<core::profile::ScopeStats> &st,
                      const std::string &name) -> std::uint64_t {
        for (const auto &s : st)
            if (s.name == name)
                return s.calls;
        return 0;
    };

    core::profile::setEnabled(false);
    core::profile::reset();
    core::RoutingResult quiet =
        routeWith("rrr", step, identityPlacement(12), topo, 1);
    EXPECT_TRUE(core::profile::snapshot().empty());

    core::profile::setEnabled(true);
    core::RoutingResult counted =
        routeWith("rrr", step, identityPlacement(12), topo, 1);
    auto stats = core::profile::snapshot();
    core::profile::setEnabled(false);
    core::profile::reset();

    // Counting never steers the router.
    EXPECT_EQ(counted.maps, quiet.maps);
    EXPECT_EQ(counted.nnOps, quiet.nnOps);
    std::uint64_t epochs = counter(stats, "route.rrr.epochs");
    std::uint64_t chains = counter(stats, "route.rrr.chains");
    std::uint64_t deferred = counter(stats, "route.rrr.deferred");
    // Every epoch commits at least one chain.
    EXPECT_GT(epochs, 0u);
    EXPECT_GE(chains, epochs);
    // A dense graph on a grid contends: some net waits an epoch.
    EXPECT_GT(deferred, 0u);
}

TEST(Rrr, ConvergesOnTestgenScenarios)
{
    // Random testgen workloads (random connected topologies, random
    // interaction graphs, adversarial shapes) must all route validly
    // with both registered routers.
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        testgen::Scenario s = testgen::randomScenario(seed);
        int n = s.step->numQubits();
        if (n > s.topo.numQubits())
            continue;
        for (const auto &router : core::routerNames()) {
            SCOPED_TRACE(s.name + " router=" + router);
            core::RoutingResult r;
            ASSERT_NO_THROW(r = routeWith(router, *s.step,
                                          identityPlacement(n),
                                          s.topo, seed));
            EXPECT_TRUE(core::routingIsValid(*s.step, s.topo, r));
        }
    }
}

TEST(Rrr, NeverDrawsFromTheRng)
{
    // The rrr phase breaks every tie structurally, so two runs with
    // different rng streams emit identical SWAP lists.
    std::mt19937_64 gen(31);
    auto g = graph::erdosRenyi(10, 0.7, gen);
    auto h = ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::grid(4, 4);
    auto a = routeWith("rrr", step, identityPlacement(10), topo, 1);
    auto b =
        routeWith("rrr", step, identityPlacement(10), topo, 999);
    ASSERT_EQ(a.swaps.size(), b.swaps.size());
    for (size_t i = 0; i < a.swaps.size(); ++i) {
        EXPECT_EQ(a.swaps[i].p, b.swaps[i].p);
        EXPECT_EQ(a.swaps[i].q, b.swaps[i].q);
        EXPECT_EQ(a.swaps[i].dressedOp, b.swaps[i].dressedOp);
    }
    EXPECT_EQ(a.maps, b.maps);
    EXPECT_EQ(a.nnOps, b.nnOps);
}

namespace {

/** A dense compile grid pinned to one router override. */
core::SweepSpec
denseSpec(const std::string &router)
{
    core::SweepSpec s;
    s.experiment = "routetest";
    s.benchmarks = {core::Benchmark::QaoaDense,
                    core::Benchmark::QaoaReg3};
    s.devices = {{"grid:4x4", ""}, {"sycamore", ""}};
    s.backends = {"2qan"};
    s.sizes = {8, 10};
    s.trials = 2;
    s.router = router;
    return s;
}

std::vector<std::string>
csvRows(const std::vector<core::SweepRow> &rows)
{
    std::vector<std::string> out;
    for (const auto &r : rows)
        out.push_back(core::toCsv(r));
    return out;
}

} // namespace

TEST(Rrr, PerRouterSweepIdenticalForJobs1And8)
{
    for (const auto &router : core::routerNames()) {
        SCOPED_TRACE(router);
        core::BatchCompiler seq({1});
        core::BatchCompiler par({8});
        auto rows1 = core::runSweep(denseSpec(router), seq);
        auto rows8 = core::runSweep(denseSpec(router), par);
        ASSERT_FALSE(rows1.empty());
        for (const auto &r : rows1)
            EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(csvRows(rows1), csvRows(rows8));
    }
}

TEST(Rrr, PerRouterShuffledSubmissionIdenticalPerJob)
{
    for (const auto &router : core::routerNames()) {
        SCOPED_TRACE(router);
        core::ExpandedSweep ex =
            core::expandSweep(denseSpec(router));
        core::BatchCompiler bc({4});
        auto ordered = bc.run(ex.jobs);

        std::vector<core::BatchJob> shuffled = ex.jobs;
        std::mt19937_64 rng(5);
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        auto permuted = bc.run(shuffled);

        std::map<std::string, const core::BatchJobResult *> byTag;
        for (const auto &r : permuted)
            byTag[r.tag] = &r;
        ASSERT_EQ(byTag.size(), ordered.size());
        for (const auto &ra : ordered) {
            SCOPED_TRACE(ra.tag);
            const auto *rb = byTag.at(ra.tag);
            ASSERT_TRUE(ra.ok()) << ra.error;
            ASSERT_TRUE(rb->ok()) << rb->error;
            EXPECT_EQ(ra.result.sched.deviceCircuit.str(),
                      rb->result.sched.deviceCircuit.str());
            EXPECT_EQ(ra.metrics.swaps, rb->metrics.swaps);
            EXPECT_EQ(ra.metrics.depth2q, rb->metrics.depth2q);
        }
    }
}

TEST(Rrr, PinnedQasmOnLargeDevices)
{
    // fnv1a64 of the routed-and-scheduled circuit of 2qan_rrr,
    // decomposed to CNOTs and emitted as QASM, on dense
    // G(n,0.5) QAOA, 3-regular QAOA and NNN Heisenberg inputs (fixed
    // instance and compile seeds, one mapper trial).  Any change to
    // the rrr router that moves a single SWAP moves these hashes; an
    // intentional change must re-record them.
    struct Pin
    {
        core::Benchmark bench;
        int n;
        const char *device;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {core::Benchmark::QaoaDense, 40, "heavyhex:7",
         0x35f22e207ed9fd2full},
        {core::Benchmark::QaoaDense, 30, "grid:6x6",
         0xf1fa1ddda900877dull},
        {core::Benchmark::QaoaReg3, 100, "grid:11x11",
         0x31fa75414c117a27ull},
        {core::Benchmark::NnnHeisenberg, 60, "heavyhex:7",
         0xf896c1362b945582ull},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(core::benchmarkName(pin.bench) + " n=" +
                     std::to_string(pin.n) + " " + pin.device);
        core::SweepUnit u =
            core::buildSweepUnit(pin.bench, pin.n, 0, 13);
        device::Topology topo = device::deviceByName(pin.device);
        core::CompileJob job;
        job.step = u.step.get();
        job.hamiltonian = u.hamiltonian.get();
        job.options.mapperTrials = 1;
        job.options.seed = 29;
        core::CompileResult res =
            core::backendByName("2qan_rrr").compile(job, topo);
        EXPECT_TRUE(
            core::routingIsValid(*u.step, topo, res.routing));
        std::string qasm = qcir::toQasm(
            decomp::decomposeToCnot(res.sched.deviceCircuit));
        EXPECT_EQ(core::fnv1a64(qasm), pin.hash);
    }
}
