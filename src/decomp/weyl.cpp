#include "decomp/weyl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/eig.h"

namespace tqan {
namespace decomp {

using linalg::Cx;
using linalg::Mat2;
using linalg::Mat4;

Mat4
toSU4(const Mat4 &u)
{
    Cx d = u.det();
    double mag = std::abs(d);
    if (mag < 1e-12)
        throw std::invalid_argument("toSU4: singular matrix");
    // One fixed branch of det^{-1/4}.
    Cx scale = std::exp(Cx(0.0, -std::arg(d) / 4.0)) /
               std::pow(mag, 0.25);
    return u * scale;
}

Mat4
gammaInvariant(const Mat4 &su4)
{
    Mat4 yy = linalg::kron(linalg::pauliY(), linalg::pauliY());
    return su4 * yy * su4.transpose() * yy;
}

GammaData
gammaData(const Mat4 &u)
{
    Mat4 g = gammaInvariant(toSU4(u));
    Mat4 g2 = g * g;
    GammaData d;
    d.tr = g.trace();
    d.tr2 = g2.trace();
    d.sq_id = g2.distance(Mat4::identity());
    d.sq_mi = (g2 + Mat4::identity()).frobeniusNorm();
    return d;
}

bool
isLocalClass(const GammaData &d, double tol)
{
    return std::min(std::abs(d.tr - 4.0), std::abs(d.tr + 4.0)) < tol;
}

bool
isCnotClass(const GammaData &d, double tol)
{
    return std::abs(d.tr) < tol && d.sq_mi < tol;
}

bool
isIswapClass(const GammaData &d, double tol)
{
    return std::abs(d.tr) < tol && d.sq_id < tol;
}

bool
isSwapClass(const GammaData &d, double tol)
{
    return std::abs(std::abs(d.tr) - 4.0) < tol &&
           std::abs(d.tr.real()) < tol;
}

bool
isSycClass(const GammaData &d, double tol)
{
    // SYC = fSim(pi/2, pi/6) sits at Weyl coordinates
    // (pi/4, pi/4, pi/24): the controlled-phase part contributes
    // phi/4 = pi/24 to cz.  Its gamma eigenvalues are
    // {e^{i pi/12}, e^{i pi/12}, -e^{-i pi/12}, -e^{-i pi/12}}, so
    // tr gamma = +-4i sin(pi/12) and tr gamma^2 = 4 cos(pi/6).
    const double s = 4.0 * std::sin(M_PI / 12.0);
    bool tr_ok = std::min(std::abs(d.tr - Cx(0.0, s)),
                          std::abs(d.tr + Cx(0.0, s))) < tol;
    return tr_ok &&
           std::abs(d.tr2 - 4.0 * std::cos(M_PI / 6.0)) < tol;
}

bool
hasZeroCz(const GammaData &d, double tol)
{
    return std::abs(d.tr.imag()) < tol;
}

int
cnotCount(const GammaData &d, double tol)
{
    if (isLocalClass(d, tol))
        return 0;
    if (isCnotClass(d, tol))
        return 1;
    if (hasZeroCz(d, tol))
        return 2;
    return 3;
}

WeylCoordinates
weylCoordinates(const Mat4 &u)
{
    // m = B^dag U B, M = m^T m; the eigenphases 2*theta_j of M give
    // the interaction content.
    Mat4 b = linalg::magicBasis();
    Mat4 m = b.dagger() * toSU4(u) * b;
    Mat4 mm = m.transpose() * m;

    // M = X + iY with X, Y real symmetric and commuting; diagonalize
    // a generic real combination.
    linalg::RMat4 comb{};
    double cs = std::cos(0.7), sn = std::sin(0.7);
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            comb[i * 4 + j] =
                cs * mm.at(i, j).real() + sn * mm.at(i, j).imag();
        }
    }
    std::array<double, 4> w;
    linalg::RMat4 v;
    linalg::jacobiEig4(comb, w, v, 1e-13);

    // Eigenphase of M on eigenvector row i of v.
    std::array<double, 4> theta;
    for (int i = 0; i < 4; ++i) {
        // lambda_i = v_i M v_i^T (v rows are real orthonormal).
        Cx lam = 0.0;
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                lam += v[i * 4 + r] * mm.at(r, c) * v[i * 4 + c];
        theta[i] = 0.5 * std::arg(lam);
    }

    // Any assignment of the four phases to the Bell labels gives a
    // representative (a, b, c); canonicalize it into the chamber.
    double a = 0.5 * (theta[0] + theta[2]);
    double bq = 0.5 * (theta[1] + theta[2]);
    double c = 0.5 * (theta[0] + theta[1]);

    auto mod_quarter = [](double x) {
        // Reduce mod pi/2 into [-pi/4, pi/4].
        double y = std::fmod(x + M_PI / 4.0, M_PI / 2.0);
        if (y < 0)
            y += M_PI / 2.0;
        return y - M_PI / 4.0;
    };
    double xs[3] = {mod_quarter(a), mod_quarter(bq), mod_quarter(c)};

    // Sort by |.| descending (coordinate permutations are local ops).
    std::sort(xs, xs + 3, [](double p, double q) {
        return std::abs(p) > std::abs(q);
    });
    // Sign fixing: only pairs of coordinates may be negated.
    if (xs[0] < 0 && xs[1] < 0) {
        xs[0] = -xs[0];
        xs[1] = -xs[1];
    } else if (xs[0] < 0) {
        xs[0] = -xs[0];
        xs[2] = -xs[2];
    } else if (xs[1] < 0) {
        xs[1] = -xs[1];
        xs[2] = -xs[2];
    }
    // On the chamber boundary x = pi/4 the sign of z is gauge; fold
    // it positive for a unique representative.
    if (xs[2] < 0 && std::abs(xs[0] - M_PI / 4.0) < 1e-9)
        xs[2] = -xs[2];

    return {xs[0], xs[1], xs[2]};
}

} // namespace decomp
} // namespace tqan
