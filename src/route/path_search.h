/**
 * @file
 * Commit-phase path search of the rrr router: a *shortest*
 * device-graph path that avoids a blocked-vertex mask.  It walks the
 * shortest-path DAG toward the target (every step must decrease the
 * hop distance), so path length stays hop-optimal.
 *
 * The search is deterministic: ties break toward the smaller vertex
 * id, never the rng, so routing is reproducible and jobs-invariant by
 * construction.
 */

#ifndef TQAN_ROUTE_PATH_SEARCH_H
#define TQAN_ROUTE_PATH_SEARCH_H

#include <vector>

#include "device/topology.h"

namespace tqan {
namespace route {

/**
 * A shortest path s..t (inclusive) that avoids the `blocked` vertices
 * (blocked = vertices already owned by committed SWAP chains of this
 * epoch).  Among the candidates it is the one found by walking back
 * from t, each step to the smallest-id vertex one hop farther from t
 * that s can reach through unblocked vertices.  Empty when s or t is
 * blocked or no hop-optimal path clears the mask.
 */
std::vector<int> pathConstrained(const device::Topology &topo, int s,
                                 int t,
                                 const std::vector<char> &blocked);

} // namespace route
} // namespace tqan

#endif // TQAN_ROUTE_PATH_SEARCH_H
