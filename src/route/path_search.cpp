#include "route/path_search.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace tqan {
namespace route {

std::vector<int>
pathConstrained(const device::Topology &topo, int s, int t,
                const std::vector<char> &blocked,
                const std::vector<double> &bias)
{
    if (blocked[s] || blocked[t])
        return {};
    // Dijkstra on the per-vertex entry cost 1 + bias, taking only
    // edges that strictly decrease the hop distance to t.  The
    // priority queue orders by (cost, vertex id).
    const int n = topo.numQubits();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> d(n, inf);
    std::vector<int> prev(n, -1);
    std::vector<char> done(n, 0);
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>,
                        std::greater<Entry>>
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
            // The target costs nothing to enter: the chain stops
            // short of it (the net's other endpoint lives there).
            double nd = dc + (v == t ? 0.0 : 1.0 + bias[v]);
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

} // namespace route
} // namespace tqan
