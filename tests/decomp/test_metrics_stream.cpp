/**
 * @file
 * The counting metrics path against the expanding one: countExpansion
 * and computeCircuitMetrics must return exactly what
 * expandForMetrics followed by twoQubitCount / twoQubitDepth / depth
 * returns, and the one-gamma native classifier must answer exactly as
 * the SBM and Weyl-chamber criteria written out below.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/metrics.h"
#include "decomp/native_count.h"
#include "decomp/pass.h"
#include "decomp/weyl.h"
#include "qcir/circuit.h"

using namespace tqan;
using namespace tqan::decomp;
using namespace tqan::linalg;
using tqan::device::GateSet;
using qcir::Circuit;
using qcir::Op;

namespace {

const GateSet kGateSets[] = {GateSet::Cnot, GateSet::Cz, GateSet::ISwap,
                             GateSet::Syc};

Mat2
randomSu2(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    return rz(ang(rng)) * ry(ang(rng)) * rz(ang(rng));
}

Mat4
dressLocal(const Mat4 &u, std::mt19937_64 &rng)
{
    return kron(randomSu2(rng), randomSu2(rng)) * u *
           kron(randomSu2(rng), randomSu2(rng));
}

/** One interaction coefficient: zero, a multiple of pi/4 (which can
 * make the whole block local, k = 0) or a generic angle. */
double
coefficient(std::mt19937_64 &rng)
{
    std::uniform_int_distribution<int> pick(0, 2);
    std::uniform_int_distribution<int> quarter(-4, 4);
    std::uniform_real_distribution<double> ang(-1.5, 1.5);
    switch (pick(rng)) {
      case 0: return 0.0;
      case 1: return quarter(rng) * M_PI / 4.0;
      default: return ang(rng);
    }
}

/** Interact coefficients with exactly `axes` non-zero entries. */
void
interactionOn(int axes, std::mt19937_64 &rng, double c[3])
{
    std::uniform_real_distribution<double> ang(-1.5, 1.5);
    std::uniform_int_distribution<int> quarter(1, 3);
    std::vector<int> slots = {0, 1, 2};
    std::shuffle(slots.begin(), slots.end(), rng);
    c[0] = c[1] = c[2] = 0.0;
    for (int i = 0; i < axes; ++i)
        c[slots[i]] = (rng() % 3 == 0) ? quarter(rng) * M_PI / 4.0
                                       : ang(rng);
}

/** A random circuit over every op kind. */
Circuit
randomBlockCircuit(int n, int nops, std::mt19937_64 &rng)
{
    Circuit c(n);
    std::uniform_int_distribution<int> qubit(0, n - 1);
    std::uniform_int_distribution<int> kind(0, 13);
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    for (int i = 0; i < nops; ++i) {
        int a = qubit(rng), b = qubit(rng);
        while (b == a)
            b = qubit(rng);
        double co[3];
        if (rng() % 2 == 0) {
            interactionOn(static_cast<int>(rng() % 4), rng, co);
        } else {
            co[0] = coefficient(rng);
            co[1] = coefficient(rng);
            co[2] = coefficient(rng);
        }
        switch (kind(rng)) {
          case 0: c.add(Op::rx(a, ang(rng))); break;
          case 1: c.add(Op::ry(a, ang(rng))); break;
          case 2: c.add(Op::rz(a, ang(rng))); break;
          case 3:
            // A run of single-qubit ops on one wire.
            for (int r = 0; r < 3; ++r)
                c.add(Op::u1q(a, randomSu2(rng)));
            break;
          case 4:
          case 5: c.add(Op::interact(a, b, co[0], co[1], co[2])); break;
          case 6: c.add(Op::swap(a, b)); break;
          case 7:
            c.add(Op::dressedSwap(a, b, co[0], co[1], co[2]));
            break;
          case 8: c.add(Op::cnot(a, b)); break;
          case 9: c.add(Op::cz(a, b)); break;
          case 10: c.add(Op::iswap(a, b)); break;
          case 11: c.add(Op::syc(a, b)); break;
          case 12:
            c.add(Op::u2q(a, b,
                          dressLocal(expXxYyZz(co[0], co[1], co[2]),
                                     rng)));
            break;
          default:
            c.add(Op::u2q(a, b, kron(randomSu2(rng), randomSu2(rng))));
            break;
        }
    }
    return c;
}

/** A random Interact-only Trotter step (with a 1q layer in the
 * middle) for the NoMap half of the metrics. */
Circuit
randomStep(int n, int nops, std::mt19937_64 &rng)
{
    Circuit c(n);
    std::uniform_int_distribution<int> qubit(0, n - 1);
    for (int i = 0; i < nops; ++i) {
        int a = qubit(rng), b = qubit(rng);
        while (b == a)
            b = qubit(rng);
        if (i == nops / 2)
            for (int q = 0; q < n; ++q)
                c.add(Op::rx(q, 0.3));
        c.add(Op::interact(a, b, coefficient(rng), coefficient(rng),
                           coefficient(rng)));
    }
    return c;
}

/** The minimal native count by the SBM criteria (CNOT/CZ, tolerance
 * 1e-9) and the iSWAP/SYC coverage rules (tolerance 1e-7), written
 * out on gamma(U) independently of the library's predicates. */
int
referenceCount(const Mat4 &u, GateSet gs)
{
    Mat4 g = gammaInvariant(toSU4(u));
    Mat4 g2 = g * g;
    const Cx tr = g.trace();
    const Cx tr2 = g2.trace();
    const double sq_id = g2.distance(Mat4::identity());
    const double sq_mi = (g2 + Mat4::identity()).frobeniusNorm();
    const double tol = (gs == GateSet::Cnot || gs == GateSet::Cz) ? 1e-9
                                                                  : 1e-7;
    if (std::min(std::abs(tr - 4.0), std::abs(tr + 4.0)) < tol)
        return 0;
    switch (gs) {
      case GateSet::Cnot:
      case GateSet::Cz:
        if (std::abs(tr) < tol && sq_mi < tol)
            return 1;
        break;
      case GateSet::ISwap:
        if (std::abs(tr) < tol && sq_id < tol)
            return 1;
        break;
      case GateSet::Syc: {
        // SYC's class: tr gamma = +-4i sin(pi/12), tr gamma^2 =
        // 4 cos(pi/6).
        const double s = 4.0 * std::sin(M_PI / 12.0);
        if (std::min(std::abs(tr - Cx(0.0, s)), std::abs(tr + Cx(0.0, s))) <
                tol &&
            std::abs(tr2 - 4.0 * std::cos(M_PI / 6.0)) < tol)
            return 1;
        break;
      }
    }
    if (std::abs(tr.imag()) < tol)
        return 2;
    return 3;
}

/** The rule nativeCountOp()'s fixed-kind table must follow: a gate
 * set's own native gate costs one, anything else its unitary's count. */
int
referenceCountOp(const Op &op, GateSet gs)
{
    if ((op.kind == qcir::OpKind::Cnot && gs == GateSet::Cnot) ||
        (op.kind == qcir::OpKind::Cz && gs == GateSet::Cz) ||
        (op.kind == qcir::OpKind::ISwap && gs == GateSet::ISwap) ||
        (op.kind == qcir::OpKind::Syc && gs == GateSet::Syc))
        return 1;
    return referenceCount(op.unitary4(), gs);
}

} // namespace

TEST(Metrics, StreamedCountsMatchExpansion)
{
    std::mt19937_64 rng(1515);
    int checked = 0;
    for (GateSet gs : kGateSets) {
        for (int rep = 0; rep < 40; ++rep) {
            int n = 2 + static_cast<int>(rng() % 7);
            Circuit c = randomBlockCircuit(n, 5 + static_cast<int>(rng() % 60),
                                           rng);
            Circuit expanded = expandForMetrics(c, gs);

            ExpansionCounts got = countExpansion(c, gs);
            EXPECT_EQ(got.twoQubitCount, expanded.twoQubitCount())
                << device::gateSetName(gs) << " rep " << rep;
            EXPECT_EQ(got.twoQubitDepth, expanded.twoQubitDepth())
                << device::gateSetName(gs) << " rep " << rep;
            EXPECT_EQ(got.depth, expanded.depth())
                << device::gateSetName(gs) << " rep " << rep;

            for (const auto &op : c.ops())
                if (op.isTwoQubit())
                    ASSERT_EQ(nativeCountOp(op, gs),
                              referenceCountOp(op, gs))
                        << op.str();

            // The whole metrics record, NoMap half included.
            Circuit step = randomStep(n, 3 + static_cast<int>(rng() % 20),
                                      rng);
            core::CompilationMetrics m =
                core::computeCircuitMetrics(c, step, gs);
            EXPECT_EQ(m.native2q, expanded.twoQubitCount());
            EXPECT_EQ(m.depth2q, expanded.twoQubitDepth());
            EXPECT_EQ(m.depthAll, expanded.depth());
            Circuit nomap = expandForMetrics(
                core::scheduleNoMap(qcir::unifySamePairInteractions(step))
                    .deviceCircuit,
                gs);
            EXPECT_EQ(m.native2qNoMap, nomap.twoQubitCount());
            EXPECT_EQ(m.depth2qNoMap, nomap.twoQubitDepth());
            EXPECT_EQ(m.depthAllNoMap, nomap.depth());
            ++checked;
        }
    }
    EXPECT_EQ(checked, 160);
}

TEST(Metrics, StreamedCountsOfEmptyAndOneQubitCircuits)
{
    for (GateSet gs : kGateSets) {
        ExpansionCounts empty = countExpansion(Circuit(3), gs);
        EXPECT_EQ(empty.twoQubitCount, 0);
        EXPECT_EQ(empty.twoQubitDepth, 0);
        EXPECT_EQ(empty.depth, 0);

        // A run of 1q ops merges into one layer.
        Circuit runs(2);
        runs.add(Op::rx(0, 0.1));
        runs.add(Op::rz(0, 0.2));
        runs.add(Op::ry(1, 0.3));
        ExpansionCounts r = countExpansion(runs, gs);
        EXPECT_EQ(r.depth, expandForMetrics(runs, gs).depth());
        EXPECT_EQ(r.depth, 1);
    }
}

TEST(NativeCount, SingleGammaMatchesPredicateChain)
{
    std::mt19937_64 rng(77);
    std::vector<Mat4> us;

    // Generic and locally dressed random unitaries.
    std::uniform_real_distribution<double> ang(-1.5, 1.5);
    for (int i = 0; i < 60; ++i) {
        us.push_back(dressLocal(expXxYyZz(ang(rng), ang(rng), ang(rng)),
                                rng));
        us.push_back(dressLocal(expXxYyZz(ang(rng), ang(rng), 0.0), rng));
        us.push_back(dressLocal(expXxYyZz(ang(rng), 0.0, 0.0), rng));
    }

    // Class boundaries: the named gates, multiples of pi/4, and
    // offsets straddling the 1e-9 and 1e-7 tolerances.
    const Mat4 named[] = {Mat4::identity(), swapGate(), cnot(0, 1),
                          czGate(),         iswapGate(), sycGate()};
    for (const Mat4 &g : named) {
        us.push_back(g);
        us.push_back(dressLocal(g, rng));
        us.push_back(swapGate() * g);
    }
    const double offsets[] = {0.0, 1e-11, 3e-10, 3e-9, 3e-8, 3e-7, 1e-5};
    for (double eps : offsets) {
        for (int a = -2; a <= 2; ++a) {
            for (int b = 0; b <= 1; ++b) {
                for (int c = 0; c <= 1; ++c) {
                    double x = a * M_PI / 4.0 + eps;
                    double y = b * M_PI / 4.0 - eps;
                    double z = c * M_PI / 4.0 + 0.5 * eps;
                    us.push_back(expXxYyZz(x, y, z));
                    us.push_back(expXxYyZz(x, y, eps));
                    us.push_back(swapGate() * expXxYyZz(x, 0.0, z));
                }
            }
        }
        // Near SYC: fSim(pi/2, pi/6) at Weyl (pi/4, pi/4, pi/24).
        us.push_back(expXxYyZz(M_PI / 4 + eps, M_PI / 4, M_PI / 24));
        us.push_back(expXxYyZz(M_PI / 4, M_PI / 4, M_PI / 24 + eps));
        us.push_back(dressLocal(sycGate(), rng) *
                     expXxYyZz(0.0, 0.0, eps));
    }

    int checked = 0;
    int histogram[4] = {0, 0, 0, 0};
    for (const Mat4 &u : us) {
        for (GateSet gs : kGateSets) {
            int fused = nativeCount(u, gs);
            ASSERT_EQ(fused, referenceCount(u, gs))
                << device::gateSetName(gs) << " unitary #" << checked;
            ++histogram[fused];
        }
        ++checked;
    }
    // Every count occurs, so every branch of the criteria was compared.
    for (int k = 0; k < 4; ++k)
        EXPECT_GT(histogram[k], 0) << "count " << k;
}
