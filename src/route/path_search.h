/**
 * @file
 * Commit-phase path search of the rrr router: minimum bias cost among
 * the *shortest* device-graph paths that avoid a blocked-vertex mask.
 * It is Dijkstra restricted to the shortest-path DAG toward the
 * target (every step must decrease the hop distance), so path length
 * stays hop-optimal while the bias picks among equal-length paths.
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
 * Min bias cost among shortest paths s..t (inclusive) that avoid the
 * `blocked` vertices (blocked = vertices already owned by committed
 * SWAP chains of this epoch).  `bias[v]` adds to the unit entry cost
 * of v and must be >= 0.  Empty when s or t is blocked or no
 * hop-optimal path clears the mask.
 */
std::vector<int> pathConstrained(const device::Topology &topo, int s,
                                 int t,
                                 const std::vector<char> &blocked,
                                 const std::vector<double> &bias);

} // namespace route
} // namespace tqan

#endif // TQAN_ROUTE_PATH_SEARCH_H
