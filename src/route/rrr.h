/**
 * @file
 * Disjoint-chain epoch router (registry name "rrr").
 *
 * The paper's Algorithm 1 commits one SWAP at a time, greedily.  This
 * router instead commits whole SWAP chains that act on disjoint
 * qubits, so they co-execute under the ALAP scheduler.  Each epoch:
 *
 *  1. Nets: every unrouted two-qubit op at hop distance > 1 under
 *     the current placement is a net between its endpoint device
 *     qubits.
 *  2. Commit: nets are taken in distance order (closest first, ties
 *     to the smaller net index).  Each gets a hop-optimal path that
 *     avoids the vertices already owned by this epoch's chains
 *     (route/path_search.h).  A net with no such path waits for the
 *     next epoch instead of detouring.
 *     The result is a maximal vertex-disjoint set of hop-optimal
 *     chains.
 *  3. Execute: each chain walks both endpoints toward the middle of
 *     its path, choosing the side by the aggregate distance progress
 *     over all unrouted nets.  Each SWAP still absorbs a mergeable
 *     circuit op as a dressed SWAP exactly like the greedy router.
 *     A chain stops as soon as its net goes nearest-neighbour.
 *
 * The head of each epoch's order always fits the empty mask, so at
 * least one net commits per epoch and the loop terminates; the
 * maxSwapFactor livelock guard stays as a backstop.  Output is the
 * same RoutingResult contract (maps/nnOps/swaps, routingIsValid) the
 * rest of the pipeline consumes, selected via the "rrr" entry of the
 * router registry (core/router_registry.h).
 */

#ifndef TQAN_ROUTE_RRR_H
#define TQAN_ROUTE_RRR_H

#include "core/router.h"

namespace tqan {
namespace route {

/** Route a placed step circuit by epochs of disjoint SWAP chains;
 * same contract as routePermutationAware. */
core::RoutingResult
routeDisjointChains(const qcir::Circuit &circuit,
                    const qap::Placement &initial,
                    const device::Topology &topo,
                    std::mt19937_64 &rng,
                    const core::RouterOptions &opt = {});

} // namespace route
} // namespace tqan

#endif // TQAN_ROUTE_RRR_H
