/**
 * @file
 * Property tests of the Taillard-style memoized tabu kernel.
 *
 * Five guarantees are pinned here:
 *  1. the incremental DeltaTable always matches a brute-force
 *     costOf-style recomputation after every applied move (both the
 *     integral O(1)-correction path and the re-evaluation path), and
 *     every row bound stays at or below every entry of its row;
 *  2. the memoized kernel produces placements bit-identical to the
 *     pre-memoization rescanning kernel (reproduced verbatim below)
 *     for the same seeds — the contract that keeps the golden sweep
 *     frozen;
 *  3. tiny devices (2-4 qubits) and adversarial tenure multipliers
 *     cannot produce an inverted tenure distribution (UB before the
 *     clamp);
 *  4. the search publishes its algorithm counters (iterations, rows
 *     scanned, skipped and refreshed, aspirations) to core/profile;
 *  5. one-trial placements above 100 qubits, where the reference
 *     kernel is too slow to run, keep their recorded fnv1a64 hashes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "core/hash.h"
#include "core/profile.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "device/noise_map.h"
#include "ham/models.h"
#include "qap/tabu.h"
#include "simd/dispatch.h"

using namespace tqan;
using namespace tqan::qap;

namespace {

/** Brute-force objective over a full padded permutation (dummies
 * carry no flow, so only the first n entries matter). */
double
bruteCost(const linalg::FlatMatrix &flow,
          const linalg::FlatMatrix &dist, const std::vector<int> &perm)
{
    int n = flow.rows();
    double c = 0.0;
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (flow[i][j] != 0.0)
                c += flow[i][j] * dist[perm[i]][perm[j]];
    return c;
}

/** Random sparse symmetric integer flow with zero diagonal. */
linalg::FlatMatrix
randomFlow(int n, std::mt19937_64 &rng)
{
    linalg::FlatMatrix f(n, n);
    std::uniform_int_distribution<int> weight(1, 9);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (coin(rng) < 0.4) {
                double w = weight(rng);
                f[i][j] = f[j][i] = w;
            }
    return f;
}

/**
 * The pre-memoization kernel, verbatim (modulo FlatMatrix reads and
 * the tenure clamp): every scan re-derives every delta from the
 * sparse flow.  Keep in sync with nothing — this IS the frozen
 * reference the fast kernel must reproduce bit-for-bit.
 */
Placement
referenceTabu(const linalg::FlatMatrix &flow,
              const linalg::FlatMatrix &dist, std::mt19937_64 &rng,
              const TabuOptions &opt = TabuOptions())
{
    int n = flow.rows();
    int nloc = dist.rows();
    std::vector<std::vector<std::pair<int, double>>> nz(n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (flow[i][j] != 0.0)
                nz[i].push_back({j, flow[i][j]});

    std::vector<int> perm(nloc);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    auto delta = [&](int a, int b) {
        double dd = 0.0;
        int pa = perm[a], pb = perm[b];
        if (a < n) {
            for (const auto &[k, f] : nz[a]) {
                if (k == b)
                    continue;
                int pk = (k == a) ? pa : perm[k];
                dd += f * (dist[pb][pk] - dist[pa][pk]);
            }
        }
        if (b < n) {
            for (const auto &[k, f] : nz[b]) {
                if (k == a)
                    continue;
                int pk = (k == b) ? pb : perm[k];
                dd += f * (dist[pa][pk] - dist[pb][pk]);
            }
        }
        return dd;
    };

    double cost = bruteCost(flow, dist, perm);
    double best_cost = cost;
    std::vector<int> best_perm = perm;

    std::vector<int> tabu(static_cast<size_t>(nloc) * nloc, 0);
    int lo = std::max(1, opt.tabuLowMul * nloc / 10);
    int hi = std::max(lo, opt.tabuHighMul * nloc / 10 + 1);
    std::uniform_int_distribution<int> tenure(lo, hi);

    int stall = 0;
    for (int it = 0; it < opt.maxIters && stall < opt.stallLimit;
         ++it) {
        double best_delta = 0.0;
        int ba = -1, bb = -1;
        bool found = false;
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < nloc; ++b) {
                double dd = delta(a, b);
                bool is_tabu = tabu[a * nloc + perm[b]] > it ||
                               tabu[b * nloc + perm[a]] > it;
                bool aspire = cost + dd < best_cost - 1e-12;
                if (is_tabu && !aspire)
                    continue;
                if (!found || dd < best_delta) {
                    best_delta = dd;
                    ba = a;
                    bb = b;
                    found = true;
                }
            }
        }
        if (!found) {
            ++stall;
            continue;
        }
        int t = tenure(rng);
        tabu[ba * nloc + perm[ba]] = it + t;
        tabu[bb * nloc + perm[bb]] = it + t;
        std::swap(perm[ba], perm[bb]);
        cost += best_delta;
        if (cost < best_cost - 1e-12) {
            best_cost = cost;
            best_perm = perm;
            stall = 0;
        } else {
            ++stall;
        }
    }
    return Placement(best_perm.begin(), best_perm.begin() + n);
}

/** Every row bound must sit at or below every entry of its row: the
 * scan skips a row on the bound alone. */
void
expectRowBoundsHold(const DeltaTable &dt, int step)
{
    int n = dt.facilities(), nloc = dt.locations();
    for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < nloc; ++b)
            ASSERT_LE(dt.rowBound(a), dt.delta(a, b))
                << "row " << a << " column " << b << " after move "
                << step;
}

/** Apply the exchange (u, v), u < v, to `perm` and `dt`, checking
 * the cached move value against brute force before the update and
 * every entry against fresh evaluation after it. */
void
applyAndCheck(DeltaTable &dt, const linalg::FlatMatrix &flow,
              const linalg::FlatMatrix &dist, std::vector<int> &perm,
              int u, int v, int step)
{
    int n = flow.rows(), nloc = dist.rows();

    // The cached move value must match the brute-force cost change
    // of actually applying the exchange...
    double before = bruteCost(flow, dist, perm);
    std::swap(perm[u], perm[v]);
    double after = bruteCost(flow, dist, perm);
    EXPECT_NEAR(dt.delta(u, v), after - before,
                1e-9 * (1.0 + std::abs(after - before)))
        << "move " << step << " (" << u << "," << v << ")";

    // ...and after the incremental update every single entry must
    // equal a fresh evaluation, bit for bit.
    dt.update(perm, u, v);
    for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < nloc; ++b)
            ASSERT_EQ(dt.delta(a, b), dt.evaluate(perm, a, b))
                << "entry (" << a << "," << b << ") after move "
                << step << " (" << u << "," << v << ")";
    expectRowBoundsHold(dt, step);
}

/** Drive a DeltaTable through `moves` random exchanges, checking it
 * against brute force and fresh evaluation after every one. */
void
checkDeltaTable(const linalg::FlatMatrix &flow,
                const linalg::FlatMatrix &dist, std::mt19937_64 &rng,
                int moves, bool expectExact)
{
    int n = flow.rows(), nloc = dist.rows();
    std::vector<int> perm(nloc);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    DeltaTable dt(flow, dist);
    EXPECT_EQ(dt.exactArithmetic(), expectExact);
    dt.reset(perm);
    expectRowBoundsHold(dt, -1);

    std::uniform_int_distribution<int> pickA(0, n - 1);
    std::uniform_int_distribution<int> pickB(0, nloc - 1);
    for (int step = 0; step < moves; ++step) {
        int u = pickA(rng), v = pickB(rng);
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        applyAndCheck(dt, flow, dist, perm, u, v, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** Random QAOA layer on an Erdos-Renyi G(n, p) graph: the flows the
 * compiler builds for dense inputs. */
linalg::FlatMatrix
denseQaoaFlow(int n, double p, std::mt19937_64 &rng)
{
    return flowMatrix(
        ham::qaoaLayer(graph::erdosRenyi(n, p, rng), 0.3, 0.7));
}

} // namespace

TEST(DeltaTable, MatchesBruteForceOnIntegralInstances)
{
    std::mt19937_64 rng(2024);
    for (int inst = 0; inst < 4; ++inst) {
        int n = 5 + inst * 2;
        auto flow = randomFlow(n, rng);
        auto dist =
            hopDistanceMatrix(device::grid(4, 4 + inst));
        checkDeltaTable(flow, dist, rng, 40,
                        /*expectExact=*/true);
    }
    // The flows the compiler actually builds: bounded-degree
    // interaction counts at a size where dummies are a minority.
    auto heis = flowMatrix(ham::nnnHeisenberg(60, rng));
    checkDeltaTable(heis, hopDistanceMatrix(device::grid(8, 8)), rng,
                    60, /*expectExact=*/true);
    auto qaoa = flowMatrix(
        ham::qaoaLayer(graph::randomRegularGraph(40, 3, rng), 0.3, 0.7));
    checkDeltaTable(qaoa, hopDistanceMatrix(device::heavyHex(5)), rng,
                    60, /*expectExact=*/true);
}

TEST(DeltaTable, MatchesBruteForceOnDenseFlows)
{
    // The cases above are sparse: a move touches 7-9 rows.  On a
    // G(n, 0.5) QAOA flow it touches ~n/2 partner rows, most pairs
    // of which are partners themselves, so the partner corrections
    // overlap each other and the moved rows.
    std::mt19937_64 rng(4040);
    struct Case
    {
        int n;
        int distance;
    };
    for (Case c : {Case{40, 5}, Case{60, 7}}) {
        SCOPED_TRACE("G(" + std::to_string(c.n) + ", 0.5) on heavyhex:" +
                     std::to_string(c.distance));
        auto flow = denseQaoaFlow(c.n, 0.5, rng);
        auto dist = hopDistanceMatrix(device::heavyHex(c.distance));
        int nloc = dist.rows();
        ASSERT_GT(nloc, c.n);

        // Forced exchanges: 0 with a flow partner, 0 with a
        // non-partner that shares a partner with it, and facilities
        // with dummy locations.
        int partner = -1, sharer = -1;
        for (int j = 1; j < c.n; ++j) {
            if (flow[0][j] != 0.0) {
                if (partner < 0)
                    partner = j;
                continue;
            }
            for (int k = 1; k < c.n && sharer < 0; ++k)
                if (flow[0][k] != 0.0 && flow[j][k] != 0.0)
                    sharer = j;
        }
        ASSERT_GE(partner, 0);
        ASSERT_GE(sharer, 0);
        const std::pair<int, int> forced[] = {
            {0, partner}, {0, sharer}, {partner, sharer},
            {0, c.n},     {sharer, nloc - 1}, {0, partner},
        };

        std::vector<int> perm(nloc);
        std::iota(perm.begin(), perm.end(), 0);
        std::shuffle(perm.begin(), perm.end(), rng);
        DeltaTable dt(flow, dist);
        ASSERT_TRUE(dt.exactArithmetic());
        dt.reset(perm);
        expectRowBoundsHold(dt, -1);

        std::uniform_int_distribution<int> pickA(0, c.n - 1);
        std::uniform_int_distribution<int> pickB(0, nloc - 1);
        int step = 0;
        for (int round = 0; round < 3; ++round) {
            for (auto [u, v] : forced) {
                applyAndCheck(dt, flow, dist, perm, std::min(u, v),
                              std::max(u, v), step++);
                ASSERT_FALSE(HasFatalFailure());
            }
            for (int r = 0; r < 10; ++r) {
                int u = pickA(rng), v = pickB(rng);
                if (u == v)
                    continue;
                applyAndCheck(dt, flow, dist, perm, std::min(u, v),
                              std::max(u, v), step++);
                ASSERT_FALSE(HasFatalFailure());
            }
        }
    }
}

TEST(DeltaTable, MatchesBruteForceOnNoiseAwareDistances)
{
    // Non-integral distances take the re-evaluation path.
    device::Topology topo = device::grid(4, 4);
    std::mt19937_64 nrng(77);
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.0);

    std::mt19937_64 rng(78);
    auto flow = randomFlow(7, rng);
    checkDeltaTable(flow, dist, rng, 40, /*expectExact=*/false);
}

TEST(DeltaTable, RejectsMalformedShapes)
{
    linalg::FlatMatrix flow(4, 4), dist(3, 3);
    EXPECT_THROW(DeltaTable(flow, dist), std::invalid_argument);
    linalg::FlatMatrix rect(3, 4);
    EXPECT_THROW(DeltaTable(rect, dist), std::invalid_argument);
}

class TabuBitIdentity : public ::testing::TestWithParam<int>
{
};

TEST_P(TabuBitIdentity, MatchesReferenceKernelOnHopDistances)
{
    // Seeds cover both the memoized path (n * nloc >= 64) and the
    // direct-rescan path (tiny devices).
    std::mt19937_64 gen(900 + GetParam());
    struct Case
    {
        int n;
        device::Topology topo;
    };
    Case cases[] = {
        {4, device::line(5)},          // direct path
        {6, device::grid(3, 3)},       // direct path (54 < 64)
        {8, device::grid(4, 4)},       // memoized
        {10, device::montreal27()},    // memoized
    };
    for (auto &c : cases) {
        auto flow = randomFlow(c.n, gen);
        auto dist = hopDistanceMatrix(c.topo);
        std::uint64_t seed = gen();

        std::mt19937_64 r1(seed), r2(seed);
        Placement fast = tabuSearchQapMatrix(flow, dist, r1);
        Placement ref = referenceTabu(flow, dist, r2);
        EXPECT_EQ(fast, ref)
            << c.topo.name() << " n=" << c.n << " seed " << seed;
    }
}

TEST_P(TabuBitIdentity, MatchesReferenceKernelOnNoiseAware)
{
    std::mt19937_64 gen(1300 + GetParam());
    device::Topology topo = device::montreal27();
    std::mt19937_64 nrng(gen());
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.5);
    auto flow = randomFlow(9, gen);
    std::uint64_t seed = gen();

    std::mt19937_64 r1(seed), r2(seed);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1),
              referenceTabu(flow, dist, r2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabuBitIdentity,
                         ::testing::Range(0, 4));

TEST(TabuBitIdentity, MatchesReferenceKernelOnLargeSparseFlows)
{
    // The row-bound skip fires on most rows only once n reaches the
    // hundreds: 3-regular QAOA and NNN Heisenberg at n = 100, the
    // smallest lattice_stream sizes.  maxIters is capped so the
    // reference kernel stays fast.
    TabuOptions opt;
    opt.maxIters = 1000;
    std::mt19937_64 gen(4100);
    struct Case
    {
        const char *what;
        linalg::FlatMatrix flow;
        device::Topology topo;
    };
    Case cases[] = {
        {"qaoa3 n=100",
         flowMatrix(ham::qaoaLayer(graph::randomRegularGraph(100, 3, gen),
                                   0.3, 0.7)),
         device::grid(11, 11)},
        {"heis n=100", flowMatrix(ham::nnnHeisenberg(100, gen)),
         device::heavyHex(7)},
    };
    for (auto &c : cases) {
        auto dist = hopDistanceMatrix(c.topo);
        for (int trial = 0; trial < 2; ++trial) {
            std::uint64_t seed = gen();
            std::mt19937_64 r1(seed), r2(seed);
            EXPECT_EQ(tabuSearchQapMatrix(c.flow, dist, r1, opt),
                      referenceTabu(c.flow, dist, r2, opt))
                << c.what << " on " << c.topo.name() << " seed "
                << seed;
        }
    }
}

TEST(TabuBitIdentity, MatchesReferenceKernelOnDenseFlows)
{
    // Dense G(n, 0.5) flows, where every accepted move corrects ~n/2
    // partner rows.  maxIters is capped so the reference kernel
    // stays fast on every per-ISA rerun.
    TabuOptions opt;
    opt.maxIters = 200;
    std::mt19937_64 gen(4200);
    struct Case
    {
        int n;
        int distance;
    };
    for (Case c : {Case{40, 5}, Case{60, 7}}) {
        auto flow = denseQaoaFlow(c.n, 0.5, gen);
        auto dist = hopDistanceMatrix(device::heavyHex(c.distance));
        std::uint64_t seed = gen();
        std::mt19937_64 r1(seed), r2(seed);
        EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1, opt),
                  referenceTabu(flow, dist, r2, opt))
            << "G(" << c.n << ", 0.5) on heavyhex:" << c.distance
            << " seed " << seed;
    }
}

TEST(TabuBitIdentity, AsymmetricFlowFallsBackToRescan)
{
    // The public API accepts arbitrary matrices, but memoized
    // updates infer staleness from flow rows — only sound for
    // symmetric flow.  The kernel must detect this, rescan, and
    // still match the reference exactly.
    std::mt19937_64 gen(7777);
    linalg::FlatMatrix flow(8, 8);
    std::uniform_int_distribution<int> w(0, 3);
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            if (i != j)
                flow[i][j] = w(gen);
    auto dist = hopDistanceMatrix(device::grid(4, 4));

    DeltaTable dt(flow, dist);
    EXPECT_FALSE(dt.memoizable());
    EXPECT_FALSE(dt.exactArithmetic());

    std::mt19937_64 r1(99), r2(99);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1),
              referenceTabu(flow, dist, r2));
}

TEST(TabuBitIdentitySimd, EveryIsaScanMatchesForcedScalar)
{
    // The vectorized cannot-beat-best scan (scanBelow) evaluates a
    // strict `<` against integral delta-table entries — an exact
    // predicate — so placements must be bit-identical on every
    // host-supported ISA, including the same tie-breaking (first
    // index left to right).
    std::mt19937_64 gen(31337);
    for (int inst = 0; inst < 3; ++inst) {
        auto flow = randomFlow(8 + inst, gen);
        auto dist = hopDistanceMatrix(device::montreal27());
        std::uint64_t seed = gen();

        Placement scalarP = [&]() {
            simd::ScopedForceIsa force(simd::Isa::Scalar);
            std::mt19937_64 r(seed);
            return tabuSearchQapMatrix(flow, dist, r);
        }();
        for (simd::Isa isa : simd::availableIsas()) {
            simd::ScopedForceIsa force(isa);
            std::mt19937_64 r(seed);
            EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r), scalarP)
                << simd::isaName(isa) << " inst=" << inst;
        }
    }
}

TEST(TabuBitIdentitySimd, NoiseAwareDistancesMatchAcrossIsas)
{
    // Non-integral (noise-aware) deltas still go through the same
    // exact < predicate; selection stays bit-identical even though
    // the values themselves are irrational.
    std::mt19937_64 gen(31338);
    device::Topology topo = device::montreal27();
    std::mt19937_64 nrng(gen());
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.5);
    auto flow = randomFlow(9, gen);
    std::uint64_t seed = gen();

    Placement scalarP = [&]() {
        simd::ScopedForceIsa force(simd::Isa::Scalar);
        std::mt19937_64 r(seed);
        return tabuSearchQapMatrix(flow, dist, r);
    }();
    for (simd::Isa isa : simd::availableIsas()) {
        simd::ScopedForceIsa force(isa);
        std::mt19937_64 r(seed);
        EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r), scalarP)
            << simd::isaName(isa);
    }
}

TEST(TabuBitIdentityJobs, ParallelTrialsMatchSequential)
{
    std::mt19937_64 gen(42);
    auto h = ham::nnnHeisenberg(10, gen);
    auto flow = flowMatrix(h);
    auto dist = hopDistanceMatrix(device::sycamore54());

    Placement seq = bestOfTabu(flow, dist, 4242, 5, TabuOptions(), 1);
    Placement par = bestOfTabu(flow, dist, 4242, 5, TabuOptions(), 8);
    EXPECT_EQ(seq, par);
}

TEST(TabuPins, LatticeScalePlacementsUnchanged)
{
    // fnv1a64 of one-trial placements above 100 qubits, the sizes
    // lattice_stream compiles, recorded from the kernel before the
    // location-cost matrix.  The reference kernel is too slow to run
    // at this size, so these pins are the bit-identity check there;
    // any change that moves one placement moves its hash.
    struct Pin
    {
        const char *what;
        linalg::FlatMatrix flow;
        const char *device;
        std::uint64_t hash;
    };
    std::mt19937_64 gen(2718);
    std::vector<Pin> pins;
    pins.push_back({"qaoa3 n=400",
                    flowMatrix(ham::qaoaLayer(
                        graph::randomRegularGraph(400, 3, gen), 0.3,
                        0.7)),
                    "grid:20x20", 0xfe05a48974627e25ull});
    pins.push_back({"heis n=400", flowMatrix(ham::nnnHeisenberg(400, gen)),
                    "grid:20x20", 0x927f1f9dc76dd57dull});
    pins.push_back({"qaoa3 n=200",
                    flowMatrix(ham::qaoaLayer(
                        graph::randomRegularGraph(200, 3, gen), 0.3,
                        0.7)),
                    "heavyhex:11", 0x4603f67fdfd2ee93ull});
    pins.push_back({"G(60, 0.5)", denseQaoaFlow(60, 0.5, gen),
                    "heavyhex:7", 0x99bd8fdb33439dc0ull});
    for (const Pin &pin : pins) {
        auto dist =
            hopDistanceMatrix(device::deviceByName(pin.device));
        Placement p = bestOfTabu(pin.flow, dist, 31, 1);
        std::uint64_t hash =
            core::fnv1a64(p.data(), p.size() * sizeof(p[0]));
        EXPECT_EQ(hash, pin.hash)
            << pin.what << " on " << pin.device << ": 0x" << std::hex
            << hash;
    }
}

TEST(TabuTinyDevices, ValidPlacementsFor2To4Qubits)
{
    // nloc in {2, 3, 4}: the unclamped tenure bounds
    // (9 * nloc / 10, 11 * nloc / 10 + 1) degrade to ranges with
    // lo = 0 (tenure 0 = never tabu); the clamp keeps them sane.
    for (int nq : {2, 3, 4}) {
        device::Topology topo = device::line(nq);
        linalg::FlatMatrix flow(nq, nq);
        for (int i = 0; i + 1 < nq; ++i)
            flow[i][i + 1] = flow[i + 1][i] = 1.0;
        std::mt19937_64 rng(500 + nq);
        Placement p = tabuSearchQap(flow, topo, rng);
        EXPECT_TRUE(placementIsValid(p, nq)) << "line:" << nq;
        EXPECT_EQ(static_cast<int>(p.size()), nq);
    }
}

TEST(TabuTinyDevices, InvertedTenureMultipliersAreClamped)
{
    // tabuLowMul > tabuHighMul used to hand uniform_int_distribution
    // an inverted range — UB.  With the clamp the search just runs
    // with a degenerate-but-valid tenure.
    TabuOptions opt;
    opt.tabuLowMul = 50;
    opt.tabuHighMul = 1;
    for (int nq : {2, 4, 9}) {
        device::Topology topo =
            nq == 9 ? device::grid(3, 3) : device::line(nq);
        linalg::FlatMatrix flow(nq, nq);
        for (int i = 0; i + 1 < nq; ++i)
            flow[i][i + 1] = flow[i + 1][i] = 2.0;
        std::mt19937_64 rng(600 + nq);
        Placement p = tabuSearchQap(flow, topo, rng, opt);
        EXPECT_TRUE(placementIsValid(p, topo.numQubits()));
    }
}

TEST(TabuTinyDevices, BestOfTabuOnTwoQubitDevice)
{
    linalg::FlatMatrix flow(2, 2);
    flow[0][1] = flow[1][0] = 3.0;
    Placement p = bestOfTabu(
        flow, hopDistanceMatrix(device::line(2)), 7, 3,
        TabuOptions(), 2);
    EXPECT_TRUE(placementIsValid(p, 2));
}

namespace {

std::uint64_t
counterOf(const std::vector<core::profile::ScopeStats> &stats,
          const std::string &name)
{
    for (const auto &s : stats)
        if (s.name == name)
            return s.calls;
    return 0;
}

} // namespace

TEST(TabuCounters, PublishedOncePerSearch)
{
    core::profile::setEnabled(false);
    core::profile::reset();

    std::mt19937_64 gen(515);
    auto flow = flowMatrix(ham::nnnHeisenberg(100, gen));
    auto dist = hopDistanceMatrix(device::heavyHex(7));
    TabuOptions opt;
    opt.maxIters = 200;

    // Disabled: the search records nothing.
    std::mt19937_64 r0(9);
    Placement quiet = tabuSearchQapMatrix(flow, dist, r0, opt);
    EXPECT_TRUE(core::profile::snapshot().empty());

    core::profile::setEnabled(true);
    std::mt19937_64 r1(9);
    Placement counted = tabuSearchQapMatrix(flow, dist, r1, opt);
    auto stats = core::profile::snapshot();
    core::profile::setEnabled(false);
    core::profile::reset();

    EXPECT_EQ(counted, quiet);  // counting never steers the search
    std::uint64_t iters = counterOf(stats, "qap.tabu.iters");
    std::uint64_t scanned = counterOf(stats, "qap.tabu.rows_scanned");
    std::uint64_t skipped = counterOf(stats, "qap.tabu.rows_skipped");
    EXPECT_GT(iters, 0u);
    EXPECT_LE(iters, static_cast<std::uint64_t>(opt.maxIters));
    // Every iteration visits each of the n facility rows once, and
    // either scans it or skips it on its bound.
    EXPECT_EQ(scanned + skipped, iters * flow.rows());
    EXPECT_GT(skipped, 0u);
    // An iteration accepts at most one move, and an aspiration is an
    // accepted move.
    std::uint64_t moves = counterOf(stats, "qap.tabu.moves");
    EXPECT_GT(moves, 0u);
    EXPECT_LE(moves, iters);
    EXPECT_LE(counterOf(stats, "qap.tabu.aspirations"), moves);
    // Each accepted move refreshes the exchanged pair and at most
    // every flow partner of either.
    std::uint64_t maxdeg = 0;
    for (int i = 0; i < flow.rows(); ++i) {
        std::uint64_t deg = 0;
        for (int j = 0; j < flow.cols(); ++j)
            deg += (j != i && flow[i][j] != 0.0);
        maxdeg = std::max(maxdeg, deg);
    }
    std::uint64_t refreshed =
        counterOf(stats, "qap.tabu.rows_refreshed");
    EXPECT_GE(refreshed, 2 * moves);
    EXPECT_LE(refreshed, moves * (2 + 2 * maxdeg));
}
