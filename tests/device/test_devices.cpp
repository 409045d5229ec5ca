/**
 * @file
 * Unit tests for the device topologies.
 */

#include <gtest/gtest.h>

#include "device/devices.h"

using namespace tqan::device;

TEST(Topology, GridDistances)
{
    Topology t = grid(3, 4);
    EXPECT_EQ(t.numQubits(), 12);
    EXPECT_EQ(t.dist(0, 0), 0);
    EXPECT_EQ(t.dist(0, 3), 3);   // along the first row
    EXPECT_EQ(t.dist(0, 11), 5);  // manhattan distance
    EXPECT_TRUE(t.connected(0, 1));
    EXPECT_FALSE(t.connected(0, 2));
}

TEST(Topology, LineAndRing)
{
    Topology l = line(5);
    EXPECT_EQ(l.dist(0, 4), 4);
    Topology r = ring(6);
    EXPECT_EQ(r.dist(0, 3), 3);
    EXPECT_EQ(r.dist(0, 5), 1);
}

TEST(Topology, AllToAll)
{
    Topology t = allToAll(6);
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j)
            EXPECT_EQ(t.dist(i, j), i == j ? 0 : 1);
}

TEST(Topology, CubeEdgeCount)
{
    // 5x3x2: 4*3*2 + 5*2*2 + 5*3*1 = 24 + 20 + 15 = 59 edges; this is
    // the Heisenberg-3D lattice of Table III (30 qubits).
    Topology t = cube(5, 3, 2);
    EXPECT_EQ(t.numQubits(), 30);
    EXPECT_EQ(static_cast<int>(t.edges().size()), 59);
}

TEST(Topology, RejectsDisconnected)
{
    tqan::graph::Graph g(4, {{0, 1}, {2, 3}});
    EXPECT_THROW(Topology("bad", g), std::invalid_argument);
}

TEST(Topology, ConnectedMatchesCouplingEdges)
{
    for (const auto &t : {grid(3, 4), heavyHex(3), sycamore54()}) {
        int n = t.numQubits();
        for (int p = -1; p <= n; ++p)
            for (int q = -1; q <= n; ++q)
                EXPECT_EQ(t.connected(p, q), t.coupling().hasEdge(p, q))
                    << t.name() << " " << p << "," << q;
    }
}

TEST(Devices, Sycamore54)
{
    Topology t = sycamore54();
    EXPECT_EQ(t.numQubits(), 54);
    // Square-lattice bulk degree 4.
    int deg4 = 0;
    for (int q = 0; q < 54; ++q)
        if (static_cast<int>(t.neighbors(q).size()) == 4)
            ++deg4;
    EXPECT_GT(deg4, 20);
}

TEST(Devices, Montreal27)
{
    Topology t = montreal27();
    EXPECT_EQ(t.numQubits(), 27);
    EXPECT_EQ(static_cast<int>(t.edges().size()), 28);
    // Heavy-hex: maximum degree 3.
    for (int q = 0; q < 27; ++q)
        EXPECT_LE(static_cast<int>(t.neighbors(q).size()), 3);
}

TEST(Devices, Aspen16)
{
    Topology t = aspen16();
    EXPECT_EQ(t.numQubits(), 16);
    // Two octagons (16 ring edges) + 2 bridges.
    EXPECT_EQ(static_cast<int>(t.edges().size()), 18);
    for (int q = 0; q < 16; ++q)
        EXPECT_LE(static_cast<int>(t.neighbors(q).size()), 3);
}

TEST(Devices, HeavyHex5IsManhattan)
{
    Topology t = manhattan65();
    EXPECT_EQ(t.numQubits(), 65);
    // Heavy-hex degree bound.
    for (int q = 0; q < 65; ++q)
        EXPECT_LE(static_cast<int>(t.neighbors(q).size()), 3);
    EXPECT_EQ(static_cast<int>(t.edges().size()), 72);
}

TEST(Devices, HeavyHexRejectsEven)
{
    EXPECT_THROW(heavyHex(4), std::invalid_argument);
    EXPECT_THROW(heavyHex(1), std::invalid_argument);
}

TEST(Devices, GateSetNames)
{
    EXPECT_EQ(gateSetName(GateSet::Cnot), "CNOT");
    EXPECT_EQ(gateSetName(GateSet::Syc), "SYC");
    EXPECT_EQ(gateSetName(GateSet::ISwap), "iSWAP");
    EXPECT_EQ(gateSetName(GateSet::Cz), "CZ");
}
