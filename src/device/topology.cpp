#include "device/topology.h"

#include <stdexcept>
#include <utility>

namespace tqan {
namespace device {

std::string
gateSetName(GateSet g)
{
    switch (g) {
      case GateSet::Cnot: return "CNOT";
      case GateSet::Cz: return "CZ";
      case GateSet::ISwap: return "iSWAP";
      case GateSet::Syc: return "SYC";
    }
    return "?";
}

Topology::Topology(std::string name, graph::Graph coupling)
    : name_(std::move(name)), coupling_(std::move(coupling))
{
    if (!coupling_.isConnected())
        throw std::invalid_argument(
            "Topology: coupling graph must be connected");
    // One BFS per source: O(n * edges) where Floyd-Warshall would be
    // O(n^3), and it is exact for unit-weight hops.
    int n = coupling_.numNodes();
    dist_.reserve(n);
    for (int s = 0; s < n; ++s)
        dist_.push_back(coupling_.bfsDistances(s));
}

} // namespace device
} // namespace tqan
