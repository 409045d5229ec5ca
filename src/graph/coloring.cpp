#include "graph/coloring.h"

#include <algorithm>
#include <numeric>

namespace tqan {
namespace graph {

std::vector<int>
greedyColoring(const std::vector<std::vector<int>> &adj)
{
    int n = static_cast<int>(adj.size());
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&adj](int a, int b) {
        return adj[a].size() > adj[b].size();
    });

    std::vector<int> color(n, -1);
    std::vector<char> used;
    for (int v : order) {
        // d neighbours block at most d colors, so the smallest free
        // one is at most d: colors above it need no slot.
        const size_t d = adj[v].size();
        used.assign(d + 1, 0);
        for (int w : adj[v])
            if (color[w] >= 0 && static_cast<size_t>(color[w]) <= d)
                used[color[w]] = 1;
        int c = 0;
        while (used[c])
            ++c;
        color[v] = c;
    }
    return color;
}

std::vector<int>
greedyColoring(const Graph &g)
{
    return greedyColoring(g.adjacency());
}

int
numColors(const std::vector<int> &coloring)
{
    int m = -1;
    for (int c : coloring)
        m = std::max(m, c);
    return m + 1;
}

bool
coloringIsValid(const Graph &g, const std::vector<int> &coloring)
{
    for (const auto &[u, v] : g.edges())
        if (coloring[u] == coloring[v])
            return false;
    return true;
}

} // namespace graph
} // namespace tqan
