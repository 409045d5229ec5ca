/**
 * @file
 * Tests for the KAK decomposition and the whole-circuit decomposition
 * passes (exact synthesis + peepholes + metric expansion).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "decomp/kak.h"
#include "decomp/pass.h"

using namespace tqan;
using namespace tqan::decomp;
using namespace tqan::linalg;
using qcir::Circuit;
using qcir::Op;
using qcir::OpKind;

namespace {

Mat2
randomSu2(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    return rz(ang(rng)) * ry(ang(rng)) * rz(ang(rng));
}

/** Generic random SU(4) element via its own KAK form. */
Mat4
randomU4(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> coeff(-1.5, 1.5);
    return kron(randomSu2(rng), randomSu2(rng)) *
           expXxYyZz(coeff(rng), coeff(rng), coeff(rng)) *
           kron(randomSu2(rng), randomSu2(rng));
}

/** Dense 4x4 unitary of a 2-qubit circuit (qubits 0 and 1). */
Mat4
circuitUnitary2q(const Circuit &c)
{
    Mat4 u = Mat4::identity();
    for (const auto &op : c.ops()) {
        Mat4 g;
        if (op.isTwoQubit()) {
            // Ops are emitted on (q0, q1) in either orientation.
            g = op.unitary4();
            if (op.q0 == 1) {
                g = swapGate() * g * swapGate();
            }
        } else {
            Mat2 m = op.unitary2();
            g = op.q0 == 0 ? kron(Mat2::identity(), m)
                           : kron(m, Mat2::identity());
        }
        u = g * u;
    }
    return u;
}

} // namespace

TEST(Kak, RoundTripRandomUnitaries)
{
    std::mt19937_64 rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        Mat4 u = randomU4(rng);
        Kak k = kakDecompose(u);
        EXPECT_LT(k.reconstruct().distance(u), 1e-6) << trial;
        EXPECT_TRUE(k.a0.isUnitary(1e-7));
        EXPECT_TRUE(k.b1.isUnitary(1e-7));
    }
}

TEST(Kak, SpecialGates)
{
    for (const Mat4 &g : {cnot(0, 1), czGate(), swapGate(),
                          iswapGate(), sycGate(), Mat4::identity()}) {
        Kak k = kakDecompose(g);
        EXPECT_LT(k.reconstruct().distance(g), 1e-7);
    }
}

TEST(DecomposeToCnot, SingleInteractUnitaryExact)
{
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> coeff(-2.0, 2.0);
    for (int trial = 0; trial < 50; ++trial) {
        double a = coeff(rng), b = coeff(rng), c = coeff(rng);
        if (trial % 4 == 0)
            b = 0.0;
        if (trial % 5 == 0)
            c = 0.0;
        Circuit in(2);
        in.add(Op::interact(0, 1, a, b, c));
        Circuit out = decomposeToCnot(in);
        for (const auto &op : out.ops()) {
            EXPECT_TRUE(op.kind == OpKind::Cnot ||
                        !op.isTwoQubit());
        }
        EXPECT_LT(phaseDistance(circuitUnitary2q(out),
                                expXxYyZz(a, b, c)),
                  1e-9)
            << "a=" << a << " b=" << b << " c=" << c;
    }
}

TEST(DecomposeToCnot, SwapIsThreeCnots)
{
    Circuit in(2);
    in.add(Op::swap(0, 1));
    Circuit out = decomposeToCnot(in);
    EXPECT_EQ(out.countKind(OpKind::Cnot), 3);
    EXPECT_LT(phaseDistance(circuitUnitary2q(out), swapGate()),
              1e-10);
}

TEST(DecomposeToCnot, DressedZzSwapIsThreeCnots)
{
    // The paper's Fig. 5: SWAP * exp(i theta ZZ) needs only 3 CNOTs;
    // the emission + adjacent-CNOT cancellation must find this.
    Circuit in(2);
    in.add(Op::dressedSwap(0, 1, 0.0, 0.0, 0.37));
    Circuit out = decomposeToCnot(in);
    EXPECT_EQ(out.countKind(OpKind::Cnot), 3);
    Mat4 expect = swapGate() * expXxYyZz(0.0, 0.0, 0.37);
    EXPECT_LT(phaseDistance(circuitUnitary2q(out), expect), 1e-9);
}

TEST(DecomposeToCnot, GenericDressedSwapExact)
{
    Circuit in(2);
    in.add(Op::dressedSwap(0, 1, 0.3, 0.5, 0.7));
    Circuit out = decomposeToCnot(in);
    Mat4 expect = swapGate() * expXxYyZz(0.3, 0.5, 0.7);
    EXPECT_LT(phaseDistance(circuitUnitary2q(out), expect), 1e-9);
}

TEST(DecomposeToCnot, U2qViaKak)
{
    std::mt19937_64 rng(43);
    for (int trial = 0; trial < 20; ++trial) {
        Mat4 u = randomU4(rng);
        Circuit in(2);
        in.add(Op::u2q(0, 1, u));
        Circuit out = decomposeToCnot(in);
        EXPECT_LT(phaseDistance(circuitUnitary2q(out), u), 1e-6);
    }
}

TEST(DecomposeToCz, UnitaryExactAndCzOnly)
{
    Circuit in(2);
    in.add(Op::interact(0, 1, 0.4, 0.0, 0.9));
    Circuit out = decomposeToCz(in);
    for (const auto &op : out.ops()) {
        if (op.isTwoQubit()) {
            EXPECT_EQ(op.kind, OpKind::Cz);
        }
    }
    EXPECT_LT(phaseDistance(circuitUnitary2q(out),
                            expXxYyZz(0.4, 0.0, 0.9)),
              1e-9);
}

TEST(Peephole, CancelAdjacentCnots)
{
    Circuit c(3);
    c.add(Op::cnot(0, 1));
    c.add(Op::cnot(0, 1));
    c.add(Op::cnot(1, 2));
    Circuit out = cancelAdjacentCnots(c);
    EXPECT_EQ(out.countKind(OpKind::Cnot), 1);
    EXPECT_EQ(out.op(0).q0, 1);
}

TEST(Peephole, NoCancelAcrossBlockingOp)
{
    Circuit c(2);
    c.add(Op::cnot(0, 1));
    c.add(Op::rx(1, 0.3));
    c.add(Op::cnot(0, 1));
    Circuit out = cancelAdjacentCnots(c);
    EXPECT_EQ(out.countKind(OpKind::Cnot), 2);
}

namespace {

/** The restart-after-every-pair fixpoint loop cancelAdjacentCnots
 * replaced, kept verbatim as the reference for its one-pass form. */
Circuit
cancelAdjacentCnotsFixpoint(const Circuit &c)
{
    std::vector<Op> ops = c.ops();
    bool changed = true;
    while (changed) {
        changed = false;
        std::vector<int> last(c.numQubits(), -1);
        for (size_t i = 0; i < ops.size() && !changed; ++i) {
            const Op &op = ops[i];
            if (op.kind == OpKind::Cnot) {
                int l0 = last[op.q0], l1 = last[op.q1];
                if (l0 >= 0 && l0 == l1 &&
                    ops[l0].kind == OpKind::Cnot &&
                    ops[l0].q0 == op.q0 && ops[l0].q1 == op.q1) {
                    ops.erase(ops.begin() + i);
                    ops.erase(ops.begin() + l0);
                    changed = true;
                    break;
                }
            }
            last[op.q0] = static_cast<int>(i);
            if (op.isTwoQubit())
                last[op.q1] = static_cast<int>(i);
        }
    }
    Circuit out(c.numQubits());
    for (const auto &op : ops)
        out.add(op);
    return out;
}

} // namespace

TEST(Peephole, CancelAdjacentCnotsMatchesFixpointReference)
{
    // Few qubits and CNOT-heavy draws make long cancellation
    // cascades: runs of CX(a,b), reversed CX(b,a) blockers, CZs on
    // the same pair and 1q ops in between.
    std::mt19937_64 rng(20220611);
    int cancelled = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        int n = 2 + static_cast<int>(rng() % 3);
        int len = static_cast<int>(rng() % 40);
        Circuit c(n);
        int a = 0, b = 1;
        for (int i = 0; i < len; ++i) {
            int r = static_cast<int>(rng() % 10);
            if (r < 3) {
                c.add(Op::cnot(a, b));  // repeat: cascades
            } else if (r < 5) {
                a = static_cast<int>(rng() % n);
                b = (a + 1 + static_cast<int>(rng() % (n - 1))) % n;
                c.add(Op::cnot(a, b));
            } else if (r < 7) {
                c.add(Op::cnot(b, a));
            } else if (r < 8) {
                c.add(Op::cz(a, b));
            } else {
                c.add(Op::rz(static_cast<int>(rng() % n), 0.1 * i));
            }
        }
        Circuit fast = cancelAdjacentCnots(c);
        Circuit ref = cancelAdjacentCnotsFixpoint(c);
        SCOPED_TRACE("trial " + std::to_string(trial));
        ASSERT_EQ(fast.size(), ref.size());
        for (int i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(fast.op(i).kind, ref.op(i).kind);
            EXPECT_EQ(fast.op(i).q0, ref.op(i).q0);
            EXPECT_EQ(fast.op(i).q1, ref.op(i).q1);
            EXPECT_EQ(fast.op(i).theta, ref.op(i).theta);
        }
        cancelled += c.size() - fast.size();
    }
    EXPECT_GT(cancelled, 1000);  // the draws do exercise cascades
}

TEST(Peephole, CancelAdjacentCnotsCascades)
{
    // CX CX CX CX vanishes; CX(0,1) CX(1,0) CX(1,0) CX(0,1) collapses
    // from the middle out.
    Circuit c(2);
    for (int i = 0; i < 4; ++i)
        c.add(Op::cnot(0, 1));
    c.add(Op::cnot(0, 1));
    c.add(Op::cnot(1, 0));
    c.add(Op::cnot(1, 0));
    c.add(Op::cnot(0, 1));
    EXPECT_EQ(cancelAdjacentCnots(c).size(), 0);
}

TEST(Peephole, MergeAdjacent1q)
{
    Circuit c(2);
    c.add(Op::rz(0, 0.2));
    c.add(Op::rz(0, 0.3));
    c.add(Op::rx(1, 0.1));
    Circuit out = mergeAdjacent1q(c);
    EXPECT_EQ(out.size(), 2);
    EXPECT_LT(out.op(0).unitary2().distance(rz(0.5)), 1e-12);
}

TEST(Peephole, MergeAdjacentSamePair)
{
    Circuit c(3);
    c.add(Op::interact(0, 1, 0, 0, 0.4));
    c.add(Op::rz(0, 0.3));
    c.add(Op::interact(1, 0, 0.2, 0, 0));
    c.add(Op::interact(1, 2, 0, 0, 0.5));
    Circuit out = mergeAdjacentSamePair(c);
    // First two 2q ops + the 1q in between merge to one U2q.
    EXPECT_EQ(out.twoQubitCount(), 2);
    EXPECT_EQ(out.op(0).kind, OpKind::U2q);

    Mat4 expect = expXxYyZz(0.2, 0, 0) *
                  kron(Mat2::identity(), rz(0.3)) *
                  expXxYyZz(0, 0, 0.4);
    EXPECT_LT(phaseDistance(out.op(0).unitary4(), expect), 1e-12);
}

TEST(ExpandForMetrics, CountsMatchAnalytic)
{
    Circuit c(4);
    c.add(Op::interact(0, 1, 0, 0, 0.4));       // ZZ: 2
    c.add(Op::interact(1, 2, 0.3, 0.5, 0.7));   // Heisenberg: 3
    c.add(Op::swap(2, 3));                      // 3
    c.add(Op::dressedSwap(0, 1, 0.1, 0.2, 0.3));// 3
    Circuit out = expandForMetrics(c, device::GateSet::Cnot);
    EXPECT_EQ(out.twoQubitCount(), 11);
    for (const auto &op : out.ops()) {
        if (op.isTwoQubit()) {
            EXPECT_EQ(op.kind, OpKind::Cnot);
        }
    }
    // Depth: (0,1) chain has 2+3 = 5 sequential CNOTs, (1,2) 3, the
    // critical path through qubit 1 is 2 + 3 = 5... measured value
    // must at least dominate the per-pair counts.
    EXPECT_GE(out.twoQubitDepth(), 5);
}
