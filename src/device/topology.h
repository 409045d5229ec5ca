/**
 * @file
 * Device coupling topology and native gate set descriptors.
 */

#ifndef TQAN_DEVICE_TOPOLOGY_H
#define TQAN_DEVICE_TOPOLOGY_H

#include <string>
#include <vector>

#include "graph/graph.h"

namespace tqan {
namespace device {

/** Native two-qubit gate of a device (paper Fig. 1). */
enum class GateSet {
    Cnot,   ///< IBM (Montreal, Manhattan)
    Cz,     ///< Sycamore / Aspen alternative native gate (appendix)
    ISwap,  ///< Rigetti Aspen
    Syc,    ///< Google Sycamore fSim(pi/2, pi/6)
};

std::string gateSetName(GateSet g);

/**
 * A quantum device: qubit count, coupling graph, and precomputed
 * all-pairs hop distances (the QAP distance matrix of Eq. 7).
 */
class Topology
{
  public:
    Topology(std::string name, graph::Graph coupling);

    const std::string &name() const { return name_; }
    int numQubits() const { return coupling_.numNodes(); }
    const graph::Graph &coupling() const { return coupling_; }
    const std::vector<graph::Edge> &edges() const
    {
        return coupling_.edges();
    }
    const std::vector<int> &neighbors(int q) const
    {
        return coupling_.neighbors(q);
    }

    /** Coupled, read off the hop-distance table in O(1); false for
     * out-of-range qubits. */
    bool connected(int p, int q) const
    {
        int n = numQubits();
        return p >= 0 && q >= 0 && p < n && q < n && dist_[p][q] == 1;
    }
    /** Hop distance between hardware qubits. */
    int dist(int p, int q) const { return dist_[p][q]; }
    const std::vector<std::vector<int>> &distMatrix() const
    {
        return dist_;
    }

  private:
    std::string name_;
    graph::Graph coupling_;
    std::vector<std::vector<int>> dist_;
};

} // namespace device
} // namespace tqan

#endif // TQAN_DEVICE_TOPOLOGY_H
