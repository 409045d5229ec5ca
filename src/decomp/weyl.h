/**
 * @file
 * Local-equivalence analysis of two-qubit unitaries.
 *
 * The gate-decomposition pass of 2QAN (paper Fig. 2) must express
 * application-level unitaries in a device's native two-qubit gate.
 * The *minimal number* of native gates needed depends only on the
 * local-equivalence class of the unitary, characterized by Makhlin's
 * invariants / the gamma matrix of Shende, Bullock and Markov (SBM):
 *
 *     gamma(U) = U (Y x Y) U^T (Y x Y),   U in SU(4).
 *
 * SBM's exact CNOT criteria ("Recognizing small-circuit structure in
 * two-qubit operators"):
 *   0 CNOTs  iff  tr gamma = +-4,
 *   1 CNOT   iff  tr gamma = 0 and gamma^2 = -I,
 *   2 CNOTs  iff  tr gamma is real,
 *   3 CNOTs  otherwise.
 * CZ is locally equivalent to CNOT, so CZ counts coincide.
 *
 * For iSWAP and SYC we use the Weyl-chamber coverage rules detailed
 * in native_count.h.  This header provides the invariants plus the
 * Weyl canonical coordinates themselves.
 */

#ifndef TQAN_DECOMP_WEYL_H
#define TQAN_DECOMP_WEYL_H

#include "linalg/matrix.h"

namespace tqan {
namespace decomp {

/** U scaled to determinant 1 (one fixed branch of det^{1/4}). */
linalg::Mat4 toSU4(const linalg::Mat4 &u);

/** gamma(U) = U (YxY) U^T (YxY) for U in SU(4). */
linalg::Mat4 gammaInvariant(const linalg::Mat4 &su4);

/**
 * Weyl canonical coordinates (cx, cy, cz) of U: U is locally
 * equivalent to exp(i(cx XX + cy YY + cz ZZ)) with
 * pi/4 >= cx >= cy >= |cz| and cz >= 0 unless cx = pi/4.
 * Computed from the eigenphases of m^T m in the magic basis.
 */
struct WeylCoordinates
{
    double cx;
    double cy;
    double cz;
};

WeylCoordinates weylCoordinates(const linalg::Mat4 &u);

/**
 * The quantities every class test below reads, all from one
 * gamma(U): tr gamma, tr gamma^2, ||gamma^2 - I||_F and
 * ||gamma^2 + I||_F.  Compute it once per unitary and classify that
 * unitary against as many classes as needed.
 */
struct GammaData
{
    linalg::Cx tr;  ///< tr gamma (defined up to sign)
    linalg::Cx tr2; ///< tr gamma^2 (unambiguous)
    double sq_id;   ///< || gamma^2 - I ||_F
    double sq_mi;   ///< || gamma^2 + I ||_F
};

GammaData gammaData(const linalg::Mat4 &u);

/**
 * Exact minimal CNOT count (0..3) of a two-qubit unitary, via the
 * SBM trace criteria.  The branch ambiguity of det^{1/4} only flips
 * the sign of tr gamma, which none of the tests depend on.
 */
int cnotCount(const GammaData &d, double tol = 1e-9);

/** @name Local-class predicates used by the native-gate counters. @{ */
bool isLocalClass(const GammaData &d, double tol = 1e-7);
bool isCnotClass(const GammaData &d, double tol = 1e-7);
bool isIswapClass(const GammaData &d, double tol = 1e-7);
bool isSwapClass(const GammaData &d, double tol = 1e-7);
bool isSycClass(const GammaData &d, double tol = 1e-7);
/** cz = 0: the class implementable with two CNOTs (tr gamma real). */
bool hasZeroCz(const GammaData &d, double tol = 1e-7);
/** @} */

} // namespace decomp
} // namespace tqan

#endif // TQAN_DECOMP_WEYL_H
