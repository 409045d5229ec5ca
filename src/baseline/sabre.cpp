#include "baseline/sabre.h"

#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>

#include "qap/placement.h"

namespace tqan {
namespace baseline {

using qap::Placement;
using qcir::Circuit;
using qcir::GateDag;
using qcir::Op;

namespace {

struct RouteOut
{
    Placement finalMap;
    int swaps = 0;
    std::vector<Op> deviceOps;  // only filled when emitting
};

/**
 * One SABRE routing pass over the two-qubit sub-circuit.
 *
 * @param emit when false, only the final map / swap count are
 *        tracked (used by the bidirectional mapping refinement).
 */
RouteOut
sabrePass(const Circuit &sub, const device::Topology &topo,
          const Placement &initial, std::mt19937_64 &rng,
          const SabreOptions &opt, bool emit,
          const OneQubitInterleaver *il = nullptr)
{
    GateDag dag(sub);
    int m = sub.size();
    std::vector<int> indeg(m);
    for (int i = 0; i < m; ++i)
        indeg[i] = dag.inDegree(i);

    std::vector<int> front;
    for (int i = 0; i < m; ++i)
        if (indeg[i] == 0)
            front.push_back(i);

    Placement phi = initial;
    RouteOut out;
    std::vector<double> decay(topo.numQubits(), 1.0);
    int rounds_since_reset = 0;

    auto distUnder = [&](const Placement &p, int op) {
        const Op &o = sub.op(op);
        return topo.dist(p[o.q0], p[o.q1]);
    };

    // Extended (lookahead) layer: successors of the front in DAG
    // order, capped at extSize.
    auto extendedLayer = [&]() {
        std::vector<int> ext;
        std::set<int> seen(front.begin(), front.end());
        std::deque<int> q(front.begin(), front.end());
        while (!q.empty() &&
               static_cast<int>(ext.size()) < opt.extSize) {
            int v = q.front();
            q.pop_front();
            for (int w : dag.successors(v)) {
                if (seen.insert(w).second) {
                    ext.push_back(w);
                    q.push_back(w);
                }
            }
        }
        return ext;
    };

    // Swap device qubits p and q under phi; inv is phi's inverse and
    // is kept in sync.
    auto applySwap = [&](std::vector<int> &inv, int p, int q) {
        if (inv[p] >= 0)
            phi[inv[p]] = q;
        if (inv[q] >= 0)
            phi[inv[q]] = p;
        std::swap(inv[p], inv[q]);
        if (emit)
            out.deviceOps.push_back(Op::swap(p, q));
        ++out.swaps;
    };

    // Release valve, as in Qiskit's SabreSwap: after this many swaps
    // in a row that let no gate execute, the heuristic is cycling.
    // Walk the nearest front gate (ties: smallest gate index) along a
    // shortest path until it is adjacent, then reset the decay.
    const int valve_after = 10 * topo.numQubits();
    int since_progress = 0;
    auto releaseValve = [&]() {
        int g = *std::min_element(
            front.begin(), front.end(), [&](int a, int b) {
                return std::make_pair(distUnder(phi, a), a) <
                       std::make_pair(distUnder(phi, b), b);
            });
        auto inv = qap::invertPlacement(phi, topo.numQubits());
        const Op &o = sub.op(g);
        const int target = phi[o.q1];
        for (int at = phi[o.q0]; topo.dist(at, target) > 1;
             at = phi[o.q0]) {
            const int closer = topo.dist(at, target) - 1;
            int step = -1;
            for (int nb : topo.neighbors(at))
                if (topo.dist(nb, target) == closer &&
                    (step < 0 || nb < step))
                    step = nb;
            if (step < 0)
                break;  // disconnected: left to the livelock guard
            applySwap(inv, at, step);
        }
        std::fill(decay.begin(), decay.end(), 1.0);
        rounds_since_reset = 0;
        since_progress = 0;
    };

    // Backstop; the release valve keeps real inputs far below it.
    long guard = 0;
    const long max_swaps =
        20L * std::max(1, m) * std::max(2, topo.numQubits());

    while (!front.empty()) {
        // Execute every nearest-neighbour front gate.
        bool any = true;
        while (any) {
            any = false;
            for (size_t i = 0; i < front.size(); ++i) {
                int g = front[i];
                if (distUnder(phi, g) != 1)
                    continue;
                const Op &o = sub.op(g);
                if (emit) {
                    if (il) {
                        for (Op b : il->before(g)) {
                            b.q0 = phi[b.q0];
                            out.deviceOps.push_back(b);
                        }
                    }
                    Op d = o;
                    d.q0 = phi[o.q0];
                    d.q1 = phi[o.q1];
                    out.deviceOps.push_back(d);
                }
                front.erase(front.begin() + i);
                for (int w : dag.successors(g))
                    if (--indeg[w] == 0)
                        front.push_back(w);
                any = true;
                since_progress = 0;
                break;
            }
        }
        if (front.empty())
            break;

        if (++guard > max_swaps)
            throw std::runtime_error("sabre: livelock guard tripped");
        if (since_progress >= valve_after) {
            releaseValve();
            continue;
        }

        // Candidate SWAPs: edges incident to front-gate qubits.
        std::set<std::pair<int, int>> cands;
        for (int g : front) {
            const Op &o = sub.op(g);
            for (int dq : {phi[o.q0], phi[o.q1]})
                for (int nb : topo.neighbors(dq))
                    cands.insert({std::min(dq, nb), std::max(dq, nb)});
        }

        std::vector<int> ext = extendedLayer();
        // phi is fixed while candidates are scored, so its inverse
        // is too; score each candidate by translating its two
        // device qubits on the fly instead of materializing a
        // swapped placement (at 100+ device qubits the per-candidate
        // invert + copy used to dominate the whole routing pass).
        auto inv = qap::invertPlacement(phi, topo.numQubits());
        double best = 0.0;
        std::pair<int, int> best_swap{-1, -1};
        bool first = true;
        for (const auto &[p, q] : cands) {
            auto swapped = [&, p = p, q = q](int dq) {
                return dq == p ? q : dq == q ? p : dq;
            };
            auto distSwapped = [&](int op) {
                const Op &o = sub.op(op);
                return topo.dist(swapped(phi[o.q0]),
                                 swapped(phi[o.q1]));
            };

            double sf = 0.0;
            for (int g : front)
                sf += distSwapped(g);
            sf /= static_cast<double>(front.size());
            double se = 0.0;
            if (!ext.empty()) {
                for (int g : ext)
                    se += distSwapped(g);
                se /= static_cast<double>(ext.size());
            }
            double score = std::max(decay[p], decay[q]) *
                           (sf + opt.extWeight * se);
            if (first || score < best) {
                best = score;
                best_swap = {p, q};
                first = false;
            }
        }

        auto [p, q] = best_swap;
        applySwap(inv, p, q);
        ++since_progress;
        decay[p] += opt.decayDelta;
        decay[q] += opt.decayDelta;
        if (++rounds_since_reset >= opt.decayReset) {
            std::fill(decay.begin(), decay.end(), 1.0);
            rounds_since_reset = 0;
        }
        (void)rng;
    }

    out.finalMap = phi;
    return out;
}

Circuit
reversedSub(const Circuit &sub)
{
    Circuit r(sub.numQubits());
    for (int i = sub.size() - 1; i >= 0; --i)
        r.add(sub.op(i));
    return r;
}

} // namespace

BaselineResult
sabreCompile(const Circuit &circuit, const device::Topology &topo,
             std::mt19937_64 &rng, const SabreOptions &opt)
{
    Circuit sub = twoQubitSubcircuit(circuit);
    Circuit rev = reversedSub(sub);
    OneQubitInterleaver il(circuit);

    BaselineResult best;
    bool have_best = false;
    for (int t = 0; t < opt.trials; ++t) {
        // Bidirectional initial-map refinement.
        Placement map = qap::randomPlacement(
            circuit.numQubits(), topo.numQubits(), rng);
        RouteOut f1 = sabrePass(sub, topo, map, rng, opt, false);
        RouteOut b1 =
            sabrePass(rev, topo, f1.finalMap, rng, opt, false);
        Placement refined = b1.finalMap;

        RouteOut fin =
            sabrePass(sub, topo, refined, rng, opt, true, &il);

        if (!have_best || fin.swaps < best.swapCount) {
            best = BaselineResult();
            best.initialMap = refined;
            best.finalMap = fin.finalMap;
            best.swapCount = fin.swaps;
            best.deviceCircuit = Circuit(topo.numQubits());
            for (const auto &o : fin.deviceOps)
                best.deviceCircuit.add(o);
            have_best = true;
        }
    }
    il.emitTail(best.finalMap, best);
    return best;
}

} // namespace baseline
} // namespace tqan
