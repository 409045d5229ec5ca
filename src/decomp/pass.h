/**
 * @file
 * Whole-circuit gate-decomposition passes (paper Fig. 2, "Gate
 * decomposition and optimization").
 *
 * Two flavours:
 *
 *  - decomposeToCnot / decomposeToCz: exact, verified synthesis into
 *    CNOT/CZ + single-qubit rotations using constructive templates
 *    (interaction blocks conjugated into the right Pauli frame and
 *    full KAK for arbitrary U2q payloads).  The emitted circuit's
 *    unitary equals the input's (up to global phase); generic
 *    three-axis interactions use a 4-CNOT constructive template (the
 *    minimal-count metric in the benchmarks uses the exact
 *    SBM counts from native_count.h; the numerical decomposer below
 *    reaches the 3-CNOT minimum when needed).
 *
 *  - expandForMetrics: count-exact structural expansion for *any*
 *    gate set: each two-qubit op becomes its minimal number of native
 *    gates with interleaved single-qubit layers, giving faithful
 *    hardware gate-count and depth metrics (the quantities plotted in
 *    the paper's figures).  countExpansion() reads the same three
 *    numbers off the block circuit in one streaming pass, without
 *    building the expansion; the compile metrics use it, and
 *    expandForMetrics stays for the ESP tally, which needs the gates
 *    themselves, and as the reference the counting pass is tested
 *    against.
 *
 * Peephole helpers shared with the baselines (adjacent-CNOT
 * cancellation, adjacent-1q merging, adjacent same-pair 2q merging)
 * live here too.
 */

#ifndef TQAN_DECOMP_PASS_H
#define TQAN_DECOMP_PASS_H

#include "device/topology.h"
#include "qcir/circuit.h"

namespace tqan {
namespace decomp {

/** Exact synthesis into {CNOT, 1q rotations}. */
qcir::Circuit decomposeToCnot(const qcir::Circuit &c);

/** Exact synthesis into {CZ, 1q rotations}. */
qcir::Circuit decomposeToCz(const qcir::Circuit &c);

/**
 * Count-exact structural expansion into the target gate set: every
 * two-qubit op is replaced by nativeCountOp() native gates on the
 * same pair with single-qubit layers before/between/after (the KAK
 * synthesis shape), then adjacent single-qubit ops are merged.
 * Intended for gate-count/depth metrics, not for execution.
 */
qcir::Circuit expandForMetrics(const qcir::Circuit &c,
                               device::GateSet gs);

/** The metrics of an expandForMetrics() circuit. */
struct ExpansionCounts
{
    int twoQubitCount = 0;  ///< native two-qubit gates
    int twoQubitDepth = 0;  ///< ASAP depth over those gates
    int depth = 0;          ///< ASAP depth over every gate
};

/**
 * expandForMetrics(c, gs) followed by twoQubitCount(),
 * twoQubitDepth() and depth(), in one pass over `c` that builds no
 * circuit.  Each wire keeps a level, a two-qubit level and whether
 * its last op was single-qubit.  A 1q op raises its wire's level by
 * one unless the last op there was 1q too (mergeAdjacent1q would
 * fold it in).  A two-qubit block of native count k acts as a 1q op
 * on each wire, then k times a native gate followed by a 1q op on
 * each wire.
 */
ExpansionCounts countExpansion(const qcir::Circuit &c,
                               device::GateSet gs);

/** @name Peephole passes. @{ */
/** Remove pairs of adjacent identical CNOTs (also used by the
 * Paulihedral-like baseline's block-boundary cancellation). */
qcir::Circuit cancelAdjacentCnots(const qcir::Circuit &c);

/** Merge runs of single-qubit ops on one qubit into a single U1q. */
qcir::Circuit mergeAdjacent1q(const qcir::Circuit &c);

/**
 * Merge adjacent two-qubit ops acting on the same qubit pair into one
 * U2q (the FullPeepholeOptimise-style resynthesis available to the
 * general-purpose baselines; valid for any circuit).
 */
qcir::Circuit mergeAdjacentSamePair(const qcir::Circuit &c);
/** @} */

} // namespace decomp
} // namespace tqan

#endif // TQAN_DECOMP_PASS_H
