#include "decomp/native_count.h"

#include <array>

#include "decomp/weyl.h"

namespace tqan {
namespace decomp {

using device::GateSet;
using linalg::Mat4;

int
nativeCount(const Mat4 &u, GateSet gs)
{
    const GammaData d = gammaData(u);
    switch (gs) {
      case GateSet::Cnot:
      case GateSet::Cz:
        return cnotCount(d);
      case GateSet::ISwap:
        if (isLocalClass(d))
            return 0;
        if (isIswapClass(d))
            return 1;
        if (hasZeroCz(d))
            return 2;
        return 3;
      case GateSet::Syc:
        if (isLocalClass(d))
            return 0;
        if (isSycClass(d))
            return 1;
        if (hasZeroCz(d))
            return 2;
        return 3;
    }
    return 3;
}

namespace {

/** Slot of a fixed-matrix kind in the per-gate-set table, or -1. */
int
fixedSlot(qcir::OpKind k)
{
    switch (k) {
      case qcir::OpKind::Swap: return 0;
      case qcir::OpKind::Cnot: return 1;
      case qcir::OpKind::Cz: return 2;
      case qcir::OpKind::ISwap: return 3;
      case qcir::OpKind::Syc: return 4;
      default: return -1;
    }
}

/** nativeCountOp() of every fixed-matrix kind in every gate set.
 * Slot g + 1 holds gate set g's own native gate, which costs exactly
 * one; the other kinds cost the count of their unitary, which does
 * not depend on the op's qubits. */
const std::array<std::array<int, 5>, 4> &
fixedCounts()
{
    static const std::array<std::array<int, 5>, 4> table = [] {
        const qcir::Op ops[5] = {
            qcir::Op::swap(0, 1), qcir::Op::cnot(0, 1), qcir::Op::cz(0, 1),
            qcir::Op::iswap(0, 1), qcir::Op::syc(0, 1)};
        std::array<std::array<int, 5>, 4> t{};
        for (int g = 0; g < 4; ++g)
            for (int k = 0; k < 5; ++k)
                t[g][k] = k == g + 1 ? 1
                                     : nativeCount(ops[k].unitary4(),
                                                   static_cast<GateSet>(g));
        return t;
    }();
    return table;
}

} // namespace

int
nativeCountOp(const qcir::Op &op, GateSet gs)
{
    if (!op.isTwoQubit())
        throw std::invalid_argument("nativeCountOp: 1q op");
    const int slot = fixedSlot(op.kind);
    if (slot >= 0)
        return fixedCounts()[static_cast<int>(gs)][slot];
    return nativeCount(op.unitary4(), gs);
}

int
nativeTwoQubitCount(const qcir::Circuit &c, GateSet gs)
{
    int total = 0;
    for (const auto &op : c.ops())
        if (op.isTwoQubit())
            total += nativeCountOp(op, gs);
    return total;
}

} // namespace decomp
} // namespace tqan
