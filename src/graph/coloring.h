/**
 * @file
 * Greedy graph coloring.
 *
 * 2QAN schedules the dependency-free operators of one Trotter step by
 * coloring a conflict graph whose nodes are gates and whose edges
 * connect gates sharing a qubit (paper Sec. III-D, "scheduling without
 * dependency").  The paper uses NetworkX 2.5's default greedy
 * coloring, i.e. the largest-degree-first strategy; we implement the
 * same strategy here.
 */

#ifndef TQAN_GRAPH_COLORING_H
#define TQAN_GRAPH_COLORING_H

#include "graph/graph.h"

namespace tqan {
namespace graph {

/**
 * Greedy coloring with the largest-degree-first node order.
 *
 * @return color index per node; colors are 0..numColors-1 and
 *         adjacent nodes always receive distinct colors.
 */
std::vector<int> greedyColoring(const Graph &g);

/** The same coloring of a graph given as adjacency lists (no
 * duplicate or self entries).  O(V log V + E): a node of degree d
 * always finds a free color among 0..d. */
std::vector<int> greedyColoring(const std::vector<std::vector<int>> &adj);

/** Number of distinct colors in a coloring. */
int numColors(const std::vector<int> &coloring);

/** Validity check: no edge joins two nodes of equal color. */
bool coloringIsValid(const Graph &g, const std::vector<int> &coloring);

} // namespace graph
} // namespace tqan

#endif // TQAN_GRAPH_COLORING_H
