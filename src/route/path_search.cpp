#include "route/path_search.h"

#include <algorithm>

namespace tqan {
namespace route {

std::vector<int>
pathConstrained(const device::Topology &topo, int s, int t,
                const std::vector<char> &blocked)
{
    if (blocked[s] || blocked[t])
        return {};
    // Forward: the vertices s reaches through unblocked vertices
    // when every step is one hop closer to t, level by level.
    std::vector<char> reach(topo.numQubits(), 0);
    std::vector<int> frontier{s}, next;
    reach[s] = 1;
    for (int hops = topo.dist(s, t); hops > 0 && !frontier.empty();
         --hops) {
        next.clear();
        for (int x : frontier)
            for (int y : topo.neighbors(x))
                if (!reach[y] && !blocked[y] &&
                    topo.dist(y, t) == hops - 1) {
                    reach[y] = 1;
                    next.push_back(y);
                }
        frontier.swap(next);
    }
    if (!reach[t])
        return {};
    // Backward: from t, step to the smallest-id reached vertex one
    // hop farther from t; only s lies at the full distance.
    std::vector<int> path{t};
    while (path.back() != s) {
        int v = path.back(), prev = -1;
        for (int x : topo.neighbors(v))
            if (reach[x] && topo.dist(x, t) == topo.dist(v, t) + 1 &&
                (prev < 0 || x < prev))
                prev = x;
        path.push_back(prev);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

} // namespace route
} // namespace tqan
