#include "qap/tabu.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <numeric>
#include <thread>

#include "core/profile.h"
#include "simd/dispatch.h"

namespace tqan {
namespace qap {

/*
 * DeltaTable
 *
 * Bit-identity contract: every cached entry equals what evaluate()
 * returns for the current permutation, and evaluate() sums in the
 * exact order the pre-memoization kernel used (facility a's partners
 * in ascending index order, then facility b's).  update() keeps the
 * contract on two paths:
 *
 *  - Integral data (hop-distance QAPs: flows are interaction counts,
 *    distances are hop counts).  Every flow and distance is an
 *    integer of magnitude <= 2^20, so a product stays <= 2^40 and a
 *    sum of up to ~2^12 of them below 2^53: every intermediate below
 *    is an integer a double holds exactly, no operation rounds, and
 *    any rearrangement of a delta is bit-equal to a fresh evaluation
 *    (a zero may come out as -0.0, which compares equal).  The
 *    rearrangement used is the location-cost matrix
 *
 *        G[m][x] = sum_k f[m][k] * d[x][p[k]],    C[m] = G[m][p[m]]
 *
 *    (G[m][x] is what m's interactions would cost were m at x), with
 *    every entry in one closed form:
 *
 *        delta(a,b) = G[a][p[b]] - C[a] + G[b][p[a]] - C[b]
 *                     + 2 f[a][b] * d[p[a]][p[b]]
 *
 *    G[a][p[b]] - C[a] (relocation()) moves a to b's location and
 *    G[b][p[a]] - C[b] moves b to a's; both count the a-b
 *    interaction as if the other end stayed put, which the last term
 *    (nonzero only for flow partners) puts right, given a zero
 *    distance diagonal.  Dummies (index >= n) carry no flow, so their
 *    G and C are zero.
 *
 *    After u and v exchange (p is the post-exchange permutation) only
 *    the k = u and k = v terms of G change:
 *
 *        G'[m] = G[m] + g_m * Du,   g_m = f[m][u] - f[m][v],
 *        Du[x] = d[p[u]][x] - d[p[v]][x]
 *
 *    and g_m is zero unless m is a flow partner of u or v.  C moves
 *    with G, and for u and v also because p[u] and p[v] moved; u, v
 *    and their partners are the touched set.  With h_x = Du[p[x]], an
 *    entry (a,b) with neither end moved changes by Taillard's
 *    correction
 *
 *        delta'(a,b) = delta(a,b) + (g_a - g_b) * (h_b - h_a)
 *
 *    which vanishes unless a or b is touched.  So update() brings G
 *    and C up to date for the touched rows, corrects the partner
 *    rows (and, for untouched a where g_a = 0, their column entries
 *    g_w * (h_a - h_w)), then rewrites every pair of a moved
 *    facility from the closed form.  The corrections sweep whole
 *    rows without testing for u and v, so they also pass over
 *    entries paired with a moved facility, which hold no valid
 *    delta to correct; the moved rows are rewritten after them so
 *    those entries end up exact.
 *
 *  - Non-integral data (noise-aware distances): the correction could
 *    round differently from a fresh evaluation and flip near-tie
 *    scan comparisons, so every invalidated entry is re-evaluated in
 *    evaluate() order instead.
 *
 * Either way an accepted move costs O((2 + deg(u) + deg(v)) * nloc)
 * entry refreshes — O(nloc * deg) for the bounded-degree interaction
 * graphs of 2-local Hamiltonians — instead of the full
 * O(n * nloc * deg) rescan of the naive kernel.
 *
 * Row bounds: rowLo_[a] <= every entry of row a, so the scan may
 * skip row a once its best move so far is <= rowLo_[a].  Every
 * touched facility's row (moved or flow partner) gets its exact
 * minimum back after the update; the single column entries an
 * update writes into other rows lower those rows' bounds, which then
 * stay valid but may sit below the true minimum until that row is
 * touched itself.
 */

namespace {

/** Exactly-representable small integer (see the contract above).
 * The range test runs first, so the int conversion is defined. */
bool
isSmallInteger(double v)
{
    return std::fabs(v) <= 1048576.0 &&  // 2^20
           v == static_cast<double>(static_cast<std::int32_t>(v));
}

/** Whether dist is a symmetric small-integer matrix with a zero
 * diagonal, in one row-major pass. */
bool
isIntegralMetric(const linalg::FlatMatrix &m)
{
    int n = m.rows();
    for (int i = 0; i < n; ++i) {
        const double *row = m[i];
        if (row[i] != 0.0)
            return false;
        for (int j = 0; j < n; ++j)
            if (!isSmallInteger(row[j]))
                return false;
        for (int j = 0; j < i; ++j)
            if (row[j] != m[j][i])
                return false;
    }
    return true;
}

/** Minimum of p[lo, hi), ignoring NaN (+inf when empty).  Four
 * independent chains hide the compare latency; a minimum is exact,
 * so the grouping cannot change the result. */
double
rowMin(const double *p, int lo, int hi)
{
    const double inf = std::numeric_limits<double>::infinity();
    double m0 = inf, m1 = inf, m2 = inf, m3 = inf;
    int b = lo;
    for (; b + 4 <= hi; b += 4) {
        m0 = p[b] < m0 ? p[b] : m0;
        m1 = p[b + 1] < m1 ? p[b + 1] : m1;
        m2 = p[b + 2] < m2 ? p[b + 2] : m2;
        m3 = p[b + 3] < m3 ? p[b + 3] : m3;
    }
    for (; b < hi; ++b)
        m0 = p[b] < m0 ? p[b] : m0;
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    return m2 < m0 ? m2 : m0;
}

} // namespace

DeltaTable::DeltaTable(const linalg::FlatMatrix &flow,
                       const linalg::FlatMatrix &dist)
    : dist_(&dist), n_(flow.rows()), nloc_(dist.rows())
{
    if (flow.rows() != flow.cols())
        throw std::invalid_argument("DeltaTable: flow not square");
    if (dist.rows() != dist.cols())
        throw std::invalid_argument("DeltaTable: dist not square");
    if (n_ > nloc_)
        throw std::invalid_argument("DeltaTable: flow exceeds dist");

    // One pass builds the CSR and checks the flow: symmetry needs
    // only the nonzeros (an asymmetric pair has a nonzero side, whose
    // mirror test fails), and zeros are small integers.
    bool flowIntegral = true;
    flowSymmetric_ = true;
    nzOff_.resize(n_ + 1);
    nzOff_[0] = 0;
    // 2-local flows have a few partners per facility.
    nzCol_.reserve(4 * static_cast<size_t>(n_));
    nzVal_.reserve(4 * static_cast<size_t>(n_));
    for (int i = 0; i < n_; ++i) {
        const double *row = flow[i];
        for (int j = 0; j < n_; ++j) {
            double f = row[j];
            if (f == 0.0)
                continue;
            nzCol_.push_back(j);
            nzVal_.push_back(f);
            flowSymmetric_ = flowSymmetric_ && flow[j][i] == f;
            flowIntegral = flowIntegral && isSmallInteger(f);
        }
        nzOff_[i + 1] = static_cast<int>(nzCol_.size());
    }

    // update() infers the stale entries from the moved facilities'
    // flow rows, which is only sound when flow is symmetric; the
    // integral path additionally reads dist by row where the
    // derivation says column, so it needs dist symmetric too, and
    // the closed form assumes d[x][x] == 0.  All of this holds for
    // every flow/distance matrix the compiler builds.
    exact_ = flowSymmetric_ && flowIntegral && isIntegralMetric(dist);

    table_.resize(static_cast<size_t>(n_) * nloc_);
    rowLo_.assign(n_, 0.0);
    touched_.reserve(nloc_);
    inSet_.assign(nloc_, 0);
    if (exact_) {
        locCost_.resize(static_cast<size_t>(n_) * nloc_);
        selfCost_.assign(n_, 0.0);
        g_.assign(nloc_, 0.0);
        h_.assign(nloc_, 0.0);
        untouched_.assign(n_, 1.0);
        du_.assign(nloc_, 0.0);
    }
}

double
DeltaTable::evaluate(const std::vector<int> &perm, int a, int b) const
{
    double dd = 0.0;
    int pa = perm[a], pb = perm[b];
    const double *da = (*dist_)[pa];
    const double *db = (*dist_)[pb];
    if (a < n_) {
        for (int k = nzOff_[a]; k < nzOff_[a + 1]; ++k) {
            int j = nzCol_[k];
            if (j == b)
                continue;
            int pj = (j == a) ? pa : perm[j];
            dd += nzVal_[k] * (db[pj] - da[pj]);
        }
    }
    if (b < n_) {
        for (int k = nzOff_[b]; k < nzOff_[b + 1]; ++k) {
            int j = nzCol_[k];
            if (j == a)
                continue;
            int pj = (j == b) ? pb : perm[j];
            dd += nzVal_[k] * (da[pj] - db[pj]);
        }
    }
    return dd;
}

double
DeltaTable::relocation(int m, int x) const
{
    return locCost_[static_cast<size_t>(m) * nloc_ + x] - selfCost_[m];
}

void
DeltaTable::lower(int a, double value)
{
    if (value < rowLo_[a])
        rowLo_[a] = value;
}

void
DeltaTable::write(int a, int b, double value)
{
    table_[static_cast<size_t>(a) * nloc_ + b] = value;
    lower(a, value);
}

void
DeltaTable::tightenRow(int a)
{
    rowLo_[a] = rowMin(table_.data() + static_cast<size_t>(a) * nloc_,
                       a + 1, nloc_);
}

void
DeltaTable::reset(const std::vector<int> &perm)
{
    if (!exact_) {
        for (int a = 0; a < n_; ++a) {
            double *row = table_.data() + static_cast<size_t>(a) * nloc_;
            for (int b = a + 1; b < nloc_; ++b)
                row[b] = evaluate(perm, a, b);
            tightenRow(a);
        }
        return;
    }

    // G row m is the flow-weighted sum of m's partners' distance rows
    // (dist is symmetric here); the first partner assigns, so no row
    // is zeroed first.
    for (int m = 0; m < n_; ++m) {
        double *gm = locCost_.data() + static_cast<size_t>(m) * nloc_;
        int k0 = nzOff_[m], k1 = nzOff_[m + 1];
        if (k0 == k1) {
            std::fill(gm, gm + nloc_, 0.0);
        } else {
            const double *drow = (*dist_)[perm[nzCol_[k0]]];
            double f = nzVal_[k0];
            for (int x = 0; x < nloc_; ++x)
                gm[x] = f * drow[x];
        }
        for (int k = k0 + 1; k < k1; ++k) {
            const double *drow = (*dist_)[perm[nzCol_[k]]];
            double f = nzVal_[k];
            for (int x = 0; x < nloc_; ++x)
                gm[x] += f * drow[x];
        }
        selfCost_[m] = gm[perm[m]];
    }

    for (int a = 0; a < n_; ++a) {
        fillRow(perm, a);
        tightenRow(a);
    }
}

void
DeltaTable::fillRow(const std::vector<int> &perm, int a)
{
    int pa = perm[a];
    double *row = table_.data() + static_cast<size_t>(a) * nloc_;
    for (int b = a + 1; b < n_; ++b)
        row[b] = relocation(a, perm[b]) + relocation(b, pa);
    for (int b = std::max(n_, a + 1); b < nloc_; ++b)
        row[b] = relocation(a, perm[b]);
    const double *da = (*dist_)[pa];
    for (int k = nzOff_[a]; k < nzOff_[a + 1]; ++k)
        if (nzCol_[k] > a)
            row[nzCol_[k]] += 2.0 * nzVal_[k] * da[perm[nzCol_[k]]];
}

void
DeltaTable::update(const std::vector<int> &perm, int u, int v)
{
    // An entry (a, b) reads perm[a], perm[b] and perm[j] for a's and
    // b's flow partners j; the exchange changed slots u and v only.
    // So the stale entries are exactly those touching u, v, or a
    // flow partner of u or v (flow is symmetric: u in nz[a] iff a in
    // nz[u]).
    touched_.clear();
    auto mark = [this](int s) {
        if (!inSet_[s]) {
            inSet_[s] = 1;
            touched_.push_back(s);
        }
    };
    mark(u);
    mark(v);
    if (u < n_)
        for (int k = nzOff_[u]; k < nzOff_[u + 1]; ++k)
            mark(nzCol_[k]);
    if (v < n_)
        for (int k = nzOff_[v]; k < nzOff_[v + 1]; ++k)
            mark(nzCol_[k]);
    rowsRefreshed_ += touched_.size();

    if (!exact_) {
        // Non-integral data: re-evaluate every stale entry in
        // evaluate() order so cached bits match a fresh computation.
        for (int s : touched_) {
            for (int m = 0; m < nloc_; ++m) {
                if (m == s)
                    continue;
                // Pairs with both ends touched refresh once, on the
                // smaller touched index's turn.
                if (inSet_[m] && m < s)
                    continue;
                int a = std::min(s, m), b = std::max(s, m);
                if (a >= n_)
                    continue;  // dummy-dummy pairs never scanned
                write(a, b, evaluate(perm, a, b));
            }
        }
        // Every touched row was rewritten whole.
        for (int s : touched_) {
            inSet_[s] = 0;
            if (s < n_)
                tightenRow(s);
        }
        return;
    }

    // Integral path (see the contract at the top of this block).
    const double *dlu = (*dist_)[perm[u]];
    const double *dlv = (*dist_)[perm[v]];
    for (int x = 0; x < nloc_; ++x)
        du_[x] = dlu[x] - dlv[x];
    for (int x = 0; x < nloc_; ++x)
        h_[x] = du_[perm[x]];
    if (u < n_)
        for (int k = nzOff_[u]; k < nzOff_[u + 1]; ++k)
            g_[nzCol_[k]] += nzVal_[k];
    if (v < n_)
        for (int k = nzOff_[v]; k < nzOff_[v + 1]; ++k)
            g_[nzCol_[k]] -= nzVal_[k];

    // G and C of every touched facility; no other row of G changed.
    for (int s : touched_) {
        if (s >= n_)
            continue;
        double *gs = locCost_.data() + static_cast<size_t>(s) * nloc_;
        double c = g_[s];
        if (c != 0.0)
            for (int x = 0; x < nloc_; ++x)
                gs[x] += c * du_[x];
        selfCost_[s] = gs[perm[s]];
        untouched_[s] = 0.0;
    }

    // Partner rows, before the moved facilities' pairs are written.
    // A pair of two partners is corrected once, in the smaller one's
    // row; its column entries in other touched rows are masked out
    // (those rows correct their own), and in untouched rows g_a = 0.
    for (int w : touched_) {
        if (w == u || w == v)
            continue;
        double gw = g_[w], hw = h_[w];
        double *row = table_.data() + static_cast<size_t>(w) * nloc_;
        for (int b = w + 1; b < nloc_; ++b)
            row[b] += (gw - g_[b]) * (h_[b] - hw);
        if (gw != 0.0)
            for (int a = 0; a < w; ++a) {
                double &e = table_[static_cast<size_t>(a) * nloc_ + w];
                e += untouched_[a] * gw * (h_[a] - hw);
                lower(a, e);
            }
    }

    rewriteMoved(perm, u);
    rewriteMoved(perm, v);

    // Every touched row is exact now.
    for (int s : touched_) {
        inSet_[s] = 0;
        if (s < n_) {
            tightenRow(s);
            untouched_[s] = 1.0;
        }
    }
    if (u < n_)
        for (int k = nzOff_[u]; k < nzOff_[u + 1]; ++k)
            g_[nzCol_[k]] = 0.0;
    if (v < n_)
        for (int k = nzOff_[v]; k < nzOff_[v + 1]; ++k)
            g_[nzCol_[k]] = 0.0;
}

void
DeltaTable::rewriteMoved(const std::vector<int> &perm, int s)
{
    // Writes every pair of the moved facility s from the closed form,
    // one load of G[m][p[s]] per entry; the pair of the two moved
    // facilities is written on both turns, with the same value.
    const int ps = perm[s];
    if (s >= n_) {
        // A moved dummy has no G row, no cost and no partners.
        for (int a = 0; a < n_; ++a)
            write(a, s, relocation(a, ps));
        return;
    }
    for (int a = 0; a < s; ++a)
        write(a, s, relocation(a, ps) + relocation(s, perm[a]));
    // The partner term of those column entries; every partner's row
    // is touched, so its bound is tightened after this.
    const double *dps = (*dist_)[ps];
    for (int k = nzOff_[s]; k < nzOff_[s + 1]; ++k)
        if (nzCol_[k] < s)
            table_[static_cast<size_t>(nzCol_[k]) * nloc_ + s] +=
                2.0 * nzVal_[k] * dps[perm[nzCol_[k]]];
    fillRow(perm, s);
}

namespace {

double
costOf(const linalg::FlatMatrix &flow, const linalg::FlatMatrix &d,
       const std::vector<int> &perm)
{
    int n = flow.rows();
    double c = 0.0;
    for (int i = 0; i < n; ++i) {
        const double *frow = flow[i];
        const double *drow = d[perm[i]];
        for (int j = i + 1; j < n; ++j)
            if (frow[j] != 0.0)
                c += frow[j] * drow[perm[j]];
    }
    return c;
}

} // namespace

Placement
tabuSearchQapMatrix(const linalg::FlatMatrix &flow,
                    const linalg::FlatMatrix &dist,
                    std::mt19937_64 &rng, const TabuOptions &opt)
{
    core::profile::ScopedTimer prof(
        simd::profileLabel("qap.tabu"));

    int n = flow.rows();
    int nloc = dist.rows();
    if (n > nloc)
        throw std::invalid_argument("tabuSearchQap: circuit too large");

    // Pad with dummy facilities so perm is a full permutation of the
    // device qubits.
    std::vector<int> perm(nloc);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    // Below ~64 facility-locations the table costs more to maintain
    // than the rescan it replaces (measured crossover between 6x9
    // and 6x16); both paths produce bit-identical placements, so the
    // choice is purely a matter of speed.
    DeltaTable deltas(flow, dist);
    const bool memoize =
        deltas.memoizable() && static_cast<long>(n) * nloc >= 64;
    if (memoize)
        deltas.reset(perm);

    double cost = costOf(flow, dist, perm);
    double best_cost = cost;
    std::vector<int> best_perm = perm;

    // tabu[facility * nloc + location] = first iteration at which the
    // facility may return to the location.
    std::vector<int> tabu(static_cast<size_t>(nloc) * nloc, 0);
    // Clamped: tenure 0 would make moves never tabu, and a caller's
    // low/high multipliers (or a tiny device) could invert the range,
    // which is UB for uniform_int_distribution.
    int tenure_lo = std::max(1, opt.tabuLowMul * nloc / 10);
    int tenure_hi =
        std::max(tenure_lo, opt.tabuHighMul * nloc / 10 + 1);
    std::uniform_int_distribution<int> tenure(tenure_lo, tenure_hi);

    // Resolve the dispatch once per search: the scan pointer is hot
    // (called once per row per iteration).
    const auto scan = simd::kernels().scanBelow;

    // Algorithm counters, published once per search.
    std::uint64_t iters = 0, moves = 0, rowsScanned = 0,
                  rowsSkipped = 0, aspirations = 0;

    int stall = 0;
    for (int it = 0; it < opt.maxIters && stall < opt.stallLimit;
         ++it) {
        ++iters;
        double best_delta = 0.0;
        int ba = -1, bb = -1;
        bool found = false, aspired = false;
        for (int a = 0; a < n; ++a) {
            const int *trow = tabu.data() + a * nloc;
            int pa = perm[a];
            if (memoize) {
                // A row whose bound cannot beat the best move so far
                // holds no entry the strict < below would take, so
                // skipping it leaves the selected move unchanged.
                if (found && deltas.rowBound(a) >= best_delta) {
                    ++rowsSkipped;
                    continue;
                }
                ++rowsScanned;
                // Memoized row: the cannot-beat-best skip runs as a
                // SIMD scan for the first strictly-better delta.
                // Strict < in left-to-right order is exactly the
                // scalar predicate, so the selected move (and every
                // downstream placement) is bit-identical.
                const double *drow = deltas.row(a);
                for (int b = a + 1; b < nloc; ++b) {
                    if (found) {
                        b = scan(drow, b, nloc, best_delta);
                        if (b >= nloc)
                            break;
                    }
                    double dd = drow[b];
                    bool is_tabu = trow[perm[b]] > it ||
                                   tabu[b * nloc + pa] > it;
                    bool aspire = cost + dd < best_cost - 1e-12;
                    if (is_tabu && !aspire)
                        continue;
                    best_delta = dd;
                    ba = a;
                    bb = b;
                    found = true;
                    aspired = is_tabu;
                }
                continue;
            }
            ++rowsScanned;
            for (int b = a + 1; b < nloc; ++b) {
                double dd = deltas.evaluate(perm, a, b);
                // A pair that cannot beat the current best move is
                // skipped before the (two dependent loads of the)
                // tabu test — pure reordering of side-effect-free
                // predicates, so the selected move is unchanged.
                if (found && dd >= best_delta)
                    continue;
                bool is_tabu = trow[perm[b]] > it ||
                               tabu[b * nloc + pa] > it;
                bool aspire = cost + dd < best_cost - 1e-12;
                if (is_tabu && !aspire)
                    continue;
                best_delta = dd;
                ba = a;
                bb = b;
                found = true;
                aspired = is_tabu;
            }
        }
        if (!found) {
            ++stall;
            continue;
        }
        ++moves;
        if (aspired)
            ++aspirations;

        int t = tenure(rng);
        tabu[ba * nloc + perm[ba]] = it + t;
        tabu[bb * nloc + perm[bb]] = it + t;
        std::swap(perm[ba], perm[bb]);
        cost += best_delta;
        if (memoize)
            deltas.update(perm, ba, bb);
        if (cost < best_cost - 1e-12) {
            best_cost = cost;
            best_perm = perm;
            stall = 0;
        } else {
            ++stall;
        }
    }

    core::profile::add("qap.tabu.iters", iters);
    core::profile::add("qap.tabu.moves", moves);
    core::profile::add("qap.tabu.rows_scanned", rowsScanned);
    core::profile::add("qap.tabu.rows_skipped", rowsSkipped);
    core::profile::add("qap.tabu.aspirations", aspirations);
    core::profile::add("qap.tabu.rows_refreshed",
                       deltas.rowsRefreshed());
    return Placement(best_perm.begin(), best_perm.begin() + n);
}

Placement
tabuSearchQap(const linalg::FlatMatrix &flow,
              const device::Topology &topo, std::mt19937_64 &rng,
              const TabuOptions &opt)
{
    return tabuSearchQapMatrix(flow, hopDistanceMatrix(topo), rng,
                               opt);
}

Placement
bestOfTabu(const linalg::FlatMatrix &flow,
           const device::Topology &topo, std::mt19937_64 &rng,
           int trials, const TabuOptions &opt)
{
    Placement best;
    double best_cost = 0.0;
    for (int t = 0; t < trials; ++t) {
        Placement p = tabuSearchQap(flow, topo, rng, opt);
        double c = qapCost(flow, topo, p);
        if (best.empty() || c < best_cost) {
            best = p;
            best_cost = c;
        }
    }
    return best;
}

Placement
bestOfTabu(const linalg::FlatMatrix &flow,
           const linalg::FlatMatrix &dist,
           std::uint64_t seed, int trials, const TabuOptions &opt,
           int jobs)
{
    if (trials < 1)
        throw std::invalid_argument("bestOfTabu: trials < 1");

    // Every trial runs on its own generator seeded `seed + t`, so the
    // work partition over threads cannot influence any result.
    std::vector<Placement> placements(trials);
    std::vector<double> costs(trials, 0.0);
    auto runTrial = [&](int t) {
        std::mt19937_64 trial_rng(seed + static_cast<std::uint64_t>(t));
        placements[t] = tabuSearchQapMatrix(flow, dist, trial_rng, opt);
        costs[t] = qapCostMatrix(flow, dist, placements[t]);
    };

    int workers = std::min(jobs, trials);
    if (workers <= 1) {
        for (int t = 0; t < trials; ++t)
            runTrial(t);
    } else {
        std::atomic<int> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&]() {
                for (int t = next.fetch_add(1); t < trials;
                     t = next.fetch_add(1))
                    runTrial(t);
            });
        for (auto &th : pool)
            th.join();
    }

    // Reduce sequentially; ties break towards the lowest trial index.
    int best = 0;
    for (int t = 1; t < trials; ++t)
        if (costs[t] < costs[best])
            best = t;
    return placements[best];
}

Placement
bestOfTabu(const linalg::FlatMatrix &flow,
           const device::Topology &topo, std::uint64_t seed,
           int trials, const TabuOptions &opt, int jobs)
{
    return bestOfTabu(flow, hopDistanceMatrix(topo), seed, trials, opt,
                      jobs);
}

} // namespace qap
} // namespace tqan
