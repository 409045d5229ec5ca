#include "route/rrr.h"

#include <algorithm>
#include <stdexcept>

#include "core/profile.h"
#include "route/path_search.h"

namespace tqan {
namespace route {

using core::RouterOptions;
using core::RoutingResult;
using core::SwapStep;
using qap::Placement;

RoutingResult
routeDisjointChains(const qcir::Circuit &circuit,
                    const Placement &initial,
                    const device::Topology &topo,
                    std::mt19937_64 &rng,
                    const RouterOptions &opt)
{
    // Every tie-break is deterministic (vertex/net index order), so
    // the router never draws from the generator; the compile seed
    // still steers the mapper trials upstream.
    (void)rng;

    int n = circuit.numQubits();
    if (static_cast<int>(initial.size()) != n)
        throw std::invalid_argument("route: placement size mismatch");
    if (!qap::placementIsValid(initial, topo.numQubits()))
        throw std::invalid_argument("route: invalid placement");

    // Collect the two-qubit ops.
    std::vector<int> op_u, op_v, op_idx;
    for (int i = 0; i < circuit.size(); ++i) {
        const auto &o = circuit.op(i);
        if (o.isTwoQubit()) {
            op_idx.push_back(i);
            op_u.push_back(o.q0);
            op_v.push_back(o.q1);
        }
    }
    int m = static_cast<int>(op_idx.size());

    RoutingResult res;
    res.maps.push_back(initial);
    Placement phi = initial;
    std::vector<int> inv = qap::invertPlacement(phi, topo.numQubits());

    auto distOf = [&](int k) {
        return topo.dist(phi[op_u[k]], phi[op_v[k]]);
    };

    // Partition into already-NN and unrouted (the nets).
    std::vector<int> unrouted;
    res.nnOps.emplace_back();
    for (int k = 0; k < m; ++k) {
        if (distOf(k) == 1)
            res.nnOps[0].push_back(k);
        else
            unrouted.push_back(k);
    }

    const long max_swaps =
        static_cast<long>(opt.maxSwapFactor) * std::max(1, m) *
            std::max(2, topo.numQubits()) / 2 +
        64;
    long iter = 0;

    // Same dressed-SWAP merging as the greedy router: an unabsorbed,
    // already-routed Interact op whose logical pair sits on (p, q).
    auto dressable = [&](int p, int q) -> int {
        if (!opt.unifySwaps)
            return -1;
        int la = inv[p], lb = inv[q];
        if (la < 0 || lb < 0)
            return -1;
        for (size_t mi = 0; mi < res.nnOps.size(); ++mi) {
            for (int k : res.nnOps[mi]) {
                if ((op_u[k] == la && op_v[k] == lb) ||
                    (op_u[k] == lb && op_v[k] == la)) {
                    if (circuit.op(op_idx[k]).kind ==
                        qcir::OpKind::Interact)
                        return k;
                }
            }
        }
        return -1;
    };

    // Apply one SWAP on device edge (sp, sq): absorb a mergeable op,
    // extend the map chain, re-bucket newly nearest-neighbour nets.
    auto applySwap = [&](int sp, int sq) {
        if (++iter > max_swaps)
            throw std::runtime_error("route: livelock guard tripped");
        SwapStep step;
        step.p = sp;
        step.q = sq;
        int dressed = dressable(sp, sq);
        if (dressed >= 0) {
            step.dressedOp = op_idx[dressed];
            for (auto &bucket : res.nnOps) {
                auto it = std::find(bucket.begin(), bucket.end(),
                                    dressed);
                if (it != bucket.end()) {
                    bucket.erase(it);
                    break;
                }
            }
        }
        res.swaps.push_back(step);
        int la = inv[sp], lb = inv[sq];
        if (la >= 0)
            phi[la] = sq;
        if (lb >= 0)
            phi[lb] = sp;
        std::swap(inv[sp], inv[sq]);
        res.maps.push_back(phi);
        res.nnOps.emplace_back();
        std::vector<int> still;
        for (int k : unrouted) {
            if (distOf(k) == 1)
                res.nnOps.back().push_back(k);
            else
                still.push_back(k);
        }
        unrouted.swap(still);
    };

    // Algorithm counters, published once per call: epochs, committed
    // chains, and nets deferred because no hop-optimal path was clear
    // of their epoch's chains.
    std::uint64_t epochs = 0, chains = 0, deferred = 0;

    while (!unrouted.empty()) {
        ++epochs;
        // ---- Commit: a maximal vertex-disjoint set of chains,
        // closest nets first (ties to the smaller net index).  Each
        // net gets a hop-optimal path that avoids the vertices
        // already owned by this epoch's chains; a net with no such
        // path waits for the next epoch, which costs nothing, where
        // a detour would cost a SWAP per extra vertex.  The head of
        // the order always fits the empty mask, so every epoch
        // routes at least one net and the loop terminates.
        //
        // No absorb bias: steering the path toward a vertex w whose
        // occupant has a pending op with one of the net's endpoints
        // (so the walk absorbs that op) cannot change the path, as
        // no such w lies on a clear shortest s-t path.  Say the op
        // pairs w with s's occupant and w is on a shortest s-t path.
        // Then 1 < dist(s,w) < dist(s,t) (an unrouted op is never
        // nearest-neighbour), so the op is a shorter net, earlier in
        // this epoch's order.  Had it committed, its chain would own
        // s and this search would come back empty.  It did not, so
        // no shortest s-w path was clear even under the smaller mask
        // of its turn, and none is clear now.  An op pairing w with
        // t's occupant is the mirror image.  A bias on w could only
        // reach paths that are not candidates.
        std::vector<int> order = unrouted;
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            int da = distOf(a), db = distOf(b);
            return da != db ? da < db : a < b;
        });
        std::vector<char> taken(topo.numQubits(), 0);
        std::vector<std::pair<int, std::vector<int>>> committed;
        for (int k : order) {
            int s = phi[op_u[k]], t = phi[op_v[k]];
            std::vector<int> p = pathConstrained(topo, s, t, taken);
            if (p.empty()) {
                ++deferred;
                continue;
            }
            for (int v : p)
                taken[v] = 1;
            committed.emplace_back(k, std::move(p));
        }
        chains += committed.size();

        // ---- Execute: both endpoints walk toward the middle of the
        // chain (a length-L path costs L-1 SWAPs), so the two half
        // chains act on disjoint qubits and overlap under the ALAP
        // scheduler.  Which side advances next is chosen by the
        // aggregate progress of the SWAP across ALL unrouted nets
        // (the greedy router's criterion 1, confined to the
        // committed chain), ties preferring a dressable SWAP.  A
        // net whose op goes nearest-neighbour early (detours,
        // absorption side effects) stops its chain right there.
        auto swapDelta = [&](int x, int y) {
            int la = inv[x], lb = inv[y];
            long d = 0;
            for (int k : unrouted) {
                bool touches = op_u[k] == la || op_v[k] == la ||
                               op_u[k] == lb || op_v[k] == lb;
                if (!touches)
                    continue;
                int du = phi[op_u[k]], dv = phi[op_v[k]];
                int nu = du == x ? y : (du == y ? x : du);
                int nv = dv == x ? y : (dv == y ? x : dv);
                d += topo.dist(nu, nv) - topo.dist(du, dv);
            }
            return d;
        };
        for (const auto &c : committed) {
            const int k = c.first;
            const std::vector<int> &p = c.second;
            int a = 0, b = static_cast<int>(p.size()) - 1;
            auto live = [&]() {
                return std::find(unrouted.begin(), unrouted.end(),
                                 k) != unrouted.end();
            };
            while (live() && b > a + 1) {
                long da = swapDelta(p[a], p[a + 1]);
                long db = swapDelta(p[b], p[b - 1]);
                bool sideA;
                if (da != db) {
                    sideA = da < db;
                } else {
                    bool ra = dressable(p[a], p[a + 1]) >= 0;
                    bool rb = dressable(p[b], p[b - 1]) >= 0;
                    // Last tie-break balances the two half chains
                    // (they act on disjoint qubits, so equal halves
                    // overlap best under the ALAP scheduler).
                    sideA = ra != rb
                                ? ra
                                : a <= static_cast<int>(p.size()) -
                                           1 - b;
                }
                if (sideA) {
                    applySwap(p[a], p[a + 1]);
                    ++a;
                } else {
                    applySwap(p[b], p[b - 1]);
                    --b;
                }
            }
        }
    }

    core::profile::add("route.rrr.epochs", epochs);
    core::profile::add("route.rrr.chains", chains);
    core::profile::add("route.rrr.deferred", deferred);

    // Translate op positions back to circuit indices (dressedOp was
    // already stored as a circuit index at absorb time).
    for (auto &bucket : res.nnOps)
        for (int &k : bucket)
            k = op_idx[k];
    return res;
}

} // namespace route
} // namespace tqan
