/**
 * @file
 * Tabu-search QAP solver (paper Sec. III-A; Glover's tabu search,
 * Taillard's robust variant).
 *
 * Works on the *padded* problem: the permutation ranges over all
 * device qubits; circuit qubits beyond n are dummies with zero flow.
 * Moves exchange the locations of two facilities; a move is tabu if
 * it reassigns a facility to a location it occupied recently, with
 * the usual aspiration criterion (always accept a new global best).
 *
 * The kernel follows Taillard's robust taboo search memoization: a
 * DeltaTable caches the cost change of every candidate exchange, so
 * a neighborhood scan is a flat O(n * nloc) table read, and an
 * accepted move refreshes only the entries whose inputs changed
 * (O(nloc * deg) for the bounded-degree flows of 2-local
 * Hamiltonians) instead of re-deriving every delta from the sparse
 * flow.  On integral data every refreshed entry comes from one O(1)
 * formula over a maintained location-cost matrix.  A per-row lower
 * bound lets the scan skip whole rows that cannot beat the best move
 * found so far.  Every cached value is bit-equal to a fresh
 * evaluation and the skip drops only rows with no possible winner,
 * so results are bit-identical to the naive rescanning kernel — the
 * golden sweep is the oracle.
 */

#ifndef TQAN_QAP_TABU_H
#define TQAN_QAP_TABU_H

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "qap/qap.h"

namespace tqan {
namespace qap {

struct TabuOptions
{
    int maxIters = 2000;      ///< neighborhood scans
    int tabuLowMul = 9;       ///< tabu tenure ~ U[0.9n, 1.1n] style
    int tabuHighMul = 11;
    /** Stop early after this many non-improving iterations. */
    int stallLimit = 500;
};

/**
 * Memoized move-evaluation table of the Taillard-style kernel.
 *
 * delta(a, b) caches the cost change of exchanging the locations of
 * facilities a and b (a < b) under the permutation it was last
 * synchronized with.  update() must be called after every applied
 * exchange; only entries whose inputs changed (pairs touching the
 * moved facilities or their flow partners) are refreshed.
 *
 * Bit-identity contract: a cached value always equals what
 * evaluate() returns (up to the sign of a zero).  When every flow and
 * distance entry is a small integer (the hop-distance QAP — the
 * paper's case), every delta is an exactly-representable integer, so
 * any summation order gives the same bits.  That path keeps the
 * location-cost matrix G[m][x] = sum_k f_mk * d[x][p_k] (the cost of
 * facility m's interactions were it at location x) and its diagonal
 * C[m] = G[m][p_m], and every entry has one closed form:
 *
 *     delta(a, b) = G[a][p_b] - C[a] + G[b][p_a] - C[b]
 *                   + 2 f_ab d[p_a][p_b]
 *
 * Non-integral distance matrices (noise-aware placement) take the
 * slower path: full re-evaluation in evaluate() order, so the
 * guarantee holds there too.
 *
 * Row-bound invariant: rowBound(a) <= delta(a, b) for every b > a
 * (NaN entries aside, which never win a strict < comparison).  The
 * rows of the facilities an update touches get their exact minimum
 * back; any other entry it writes lowers the bound of its row.
 *
 * Public for the kernel's property tests; not a stable API.
 */
class DeltaTable
{
  public:
    /** Both matrices must outlive the table.  flow is n x n, dist is
     * nloc x nloc with n <= nloc. */
    DeltaTable(const linalg::FlatMatrix &flow,
               const linalg::FlatMatrix &dist);

    /** Rebuild every entry for a new permutation (O(n*nloc*deg)).
     * Writes every entry the table reads; nothing is zeroed first. */
    void reset(const std::vector<int> &perm);

    /** Cached cost change of exchanging facilities a < b. */
    double delta(int a, int b) const
    {
        return table_[static_cast<size_t>(a) * nloc_ + b];
    }

    /** One row of cached deltas (entries b > a are meaningful). */
    const double *row(int a) const
    {
        return table_.data() + static_cast<size_t>(a) * nloc_;
    }

    /** Lower bound of every cached entry of row a (b > a). */
    double rowBound(int a) const { return rowLo_[a]; }

    /** Fresh evaluation against `perm`, bypassing the cache. */
    double evaluate(const std::vector<int> &perm, int a, int b) const;

    /** Refresh the entries invalidated by an exchange of facilities
     * u and v; `perm` is the permutation *after* the exchange. */
    void update(const std::vector<int> &perm, int u, int v);

    /** Facilities whose entries update() refreshed, summed over
     * every call: the moved pair plus their flow partners. */
    std::uint64_t rowsRefreshed() const { return rowsRefreshed_; }

    int facilities() const { return n_; }
    int locations() const { return nloc_; }

    /** True when the integral fast path is active (every flow and
     * distance entry is a small integer, both symmetric, and the
     * distance diagonal is zero). */
    bool exactArithmetic() const { return exact_; }

    /** update() is only sound for symmetric flow (stale entries are
     * inferred from the moved facilities' flow rows); the kernel
     * falls back to per-scan evaluation otherwise. */
    bool memoizable() const { return flowSymmetric_; }

  private:
    /** std::allocator whose resize() leaves doubles unwritten: the
     * big n x nloc buffers are written whole by reset() before
     * anything reads them, so zeroing them first is a wasted pass. */
    template <class T>
    struct UninitAllocator : std::allocator<T>
    {
        template <class U>
        struct rebind
        {
            using other = UninitAllocator<U>;
        };
        UninitAllocator() = default;
        template <class U>
        UninitAllocator(const UninitAllocator<U> &) noexcept
        {
        }
        template <class U>
        void construct(U *p) noexcept
        {
            ::new (static_cast<void *>(p)) U;
        }
    };
    using Buffer = std::vector<double, UninitAllocator<double>>;

    const linalg::FlatMatrix *dist_;
    int n_ = 0;
    int nloc_ = 0;
    bool exact_ = false;  ///< integral data: O(1) updates are exact
    bool flowSymmetric_ = false;
    /** CSR view of the nonzero flow: facility i's partners and flows
     * are nzCol_/nzVal_[nzOff_[i] .. nzOff_[i+1]). */
    std::vector<int> nzOff_, nzCol_;
    std::vector<double> nzVal_;
    Buffer table_;  ///< n_ x nloc_, entries b > a used
    std::vector<double> rowLo_;  ///< per-row lower bound of table_
    /** Integral path only: the location-cost matrix G (n_ x nloc_)
     * and C[m] = G[m][perm m], facility m's current cost. */
    Buffer locCost_;
    std::vector<double> selfCost_;
    std::uint64_t rowsRefreshed_ = 0;
    std::vector<int> touched_;   ///< scratch: facilities to refresh
    std::vector<char> inSet_;    ///< scratch membership flags
    /** Scratch of update(), indexed by facility: g_x = f_xu - f_xv,
     * h_x = d[p_u][p_x] - d[p_v][p_x], and the 0/1 mask of facilities
     * the update does not touch. */
    std::vector<double> g_, h_, untouched_;
    std::vector<double> du_;     ///< scratch: d[p_u][x] - d[p_v][x]

    /** G[m][x] - C[m]: the cost change of moving facility m alone
     * to location x (integral path only). */
    double relocation(int m, int x) const;
    void lower(int a, double value);
    void write(int a, int b, double value);
    void tightenRow(int a);
    /** Writes row a's entries (a, b > a) from the closed form. */
    void fillRow(const std::vector<int> &perm, int a);
    void rewriteMoved(const std::vector<int> &perm, int s);
};

/**
 * Solve the QAP for an initial placement.
 *
 * @param flow n x n circuit-qubit interaction counts.
 * @param topo device (provides the distance matrix and location
 *        count N >= n).
 * @param rng seeded generator; the paper runs the randomized mapping
 *        5 times and keeps the best result.
 * @return placement of the n circuit qubits (injective into N).
 */
Placement tabuSearchQap(const linalg::FlatMatrix &flow,
                        const device::Topology &topo,
                        std::mt19937_64 &rng,
                        const TabuOptions &opt = TabuOptions());

/**
 * Generic-cost variant: solve the QAP against an arbitrary (double)
 * location-distance matrix, e.g. the noise-aware distances of
 * device::NoiseMap (the paper's Sec. VII future-work direction).
 */
Placement
tabuSearchQapMatrix(const linalg::FlatMatrix &flow,
                    const linalg::FlatMatrix &dist,
                    std::mt19937_64 &rng,
                    const TabuOptions &opt = TabuOptions());

/** Run tabuSearchQap `trials` times, keep the lowest-cost result. */
Placement bestOfTabu(const linalg::FlatMatrix &flow,
                     const device::Topology &topo, std::mt19937_64 &rng,
                     int trials = 5,
                     const TabuOptions &opt = TabuOptions());

/**
 * Best-of-trials against an arbitrary location-distance matrix (the
 * hop matrix, or device::NoiseMap's noise-aware distances), with the
 * trials distributed over up to `jobs` worker threads.
 *
 * Trial t always runs on its own generator seeded `seed + t` and ties
 * are broken towards the lowest trial index, so the result is
 * bit-identical for every `jobs` value (jobs == 1 is the sequential
 * reference).
 */
Placement bestOfTabu(const linalg::FlatMatrix &flow,
                     const linalg::FlatMatrix &dist,
                     std::uint64_t seed, int trials = 5,
                     const TabuOptions &opt = TabuOptions(),
                     int jobs = 1);

/** Hop-distance convenience wrapper of the deterministic parallel
 * best-of-trials. */
Placement bestOfTabu(const linalg::FlatMatrix &flow,
                     const device::Topology &topo, std::uint64_t seed,
                     int trials = 5,
                     const TabuOptions &opt = TabuOptions(),
                     int jobs = 1);

} // namespace qap
} // namespace tqan

#endif // TQAN_QAP_TABU_H
