/**
 * @file
 * Minimal native-two-qubit-gate counts per gate set.
 *
 * The paper's figures report hardware gate counts after decomposing
 * every two-qubit unitary (circuit gate, SWAP or dressed SWAP) into
 * the device's native gate.  The minimal counts depend only on the
 * local-equivalence class:
 *
 *  - CNOT / CZ: exact SBM criteria (see weyl.h).
 *  - iSWAP: 0 if local, 1 if in the iSWAP class, 2 if cz = 0 (the
 *    two-iSWAP span coincides with the two-CNOT span, the (x, y, 0)
 *    plane of the Weyl chamber), else 3.
 *  - SYC: 0 if local, 1 if in the SYC class, 2 if cz = 0 (matching
 *    Cirq's analytic 2-SYC synthesis of CZ/ZZ-class gates; the paper
 *    uses Cirq for QAOA/Ising on Sycamore), else 3.
 *
 * Consequences the paper relies on: exp(i theta ZZ) costs 2 in every
 * basis, a SWAP costs 3 in every basis, a Heisenberg circuit gate and
 * a dressed SWAP both cost 3 -- which is why unifying erases the SYC
 * overhead of the Heisenberg model (paper Sec. V-A).
 */

#ifndef TQAN_DECOMP_NATIVE_COUNT_H
#define TQAN_DECOMP_NATIVE_COUNT_H

#include "device/topology.h"
#include "qcir/circuit.h"

namespace tqan {
namespace decomp {

/** Minimal native-gate count of an arbitrary two-qubit unitary,
 * from one gamma invariant: every class test of the gate set reads
 * the same GammaData, with tolerance 1e-9 for CNOT/CZ and 1e-7 for
 * iSWAP/SYC. */
int nativeCount(const linalg::Mat4 &u, device::GateSet gs);

/** Minimal native-gate count of a circuit op (must be two-qubit).
 * The fixed-matrix kinds (Swap, Cnot, Cz, ISwap, Syc) come from a
 * table classified once per process; every other block is
 * classified from its unitary. */
int nativeCountOp(const qcir::Op &op, device::GateSet gs);

/** Sum of native counts over all two-qubit ops of a circuit. */
int nativeTwoQubitCount(const qcir::Circuit &c, device::GateSet gs);

} // namespace decomp
} // namespace tqan

#endif // TQAN_DECOMP_NATIVE_COUNT_H
