"""Independent references for the benchmark's correctness checks.

Nothing here calls xpmsim. Each quantity comes from a closed form or from
a quadrature chosen apart from the program's own routes:

- C1 and C2 of the unit Gaussian and the unit square pulse in closed form
  (erf, sine integral), the C1 = 1/2 transition as a root of those closed
  forms, and F and theta from the closed-form gate formulas.
- The copropagating linear entropy with Z1 traced exactly. The sinc kernel
  is a box in k, so int sinc(k0 (x - a)) sinc(k0 (x - b)) dx =
  (pi/k0) sinc(k0 (a - b)), and f1 * sinc is one smooth k integral.
- The head-on collision F, theta and S_L with z1 traced over the whole
  line. The commutator kernel C is a box in k as well, so
  int C(x - a) C(x - b) dx = C(a - b), and every z1 integral becomes an
  integral over k in [-k_s, k_s].
- The head-on time integrals A, B and D at single points by adaptive
  quadrature (scipy.integrate.quad).

Lengths are in units of the pulse width sigma = 1, as in the program.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erf, sici

GAUSS_NORM = math.pi ** -0.25  # peak of the unit-norm Gaussian, sigma = 1

# Gauss-Legendre rules of the copropagating entropy: z nodes on
# [-COPRO_HALFWIDTH, COPRO_HALFWIDTH] and k nodes on [-k0, k0]
COPRO_Z_NODES = 240
COPRO_K_NODES = 200
COPRO_HALFWIDTH = 12.0

# the program's default head-on geometry
HEADON_K0 = 1e-3
HEADON_SEPARATION = 10.0
HEADON_V1, HEADON_V2 = 5000.0, -5000.0


def gaussian(z, center=0.0):
    return GAUSS_NORM * np.exp(-0.5 * (np.asarray(z, dtype=float) - center) ** 2)


def c1_gaussian(k0: float) -> float:
    return math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0 / 3.0) * k0) / k0


def c1_square(k0: float, width: float = 2.0) -> float:
    x = k0 * width
    one_minus_cos = 2.0 * math.sin(0.5 * x) ** 2
    si = float(sici(x)[0])
    return (2.0 / width ** 2) * (width * si / k0 - one_minus_cos / k0 ** 2)


def c2_gaussian(k0: float) -> float:
    return math.sqrt(math.pi / 2.0) / k0


def c2_square(k0: float, width: float = 2.0) -> float:
    return math.pi / (k0 * width)


def coefficients(profile: str, k0: float) -> tuple[float, float]:
    """(C1, C2) of a pulse pair of one shape, square width 2 (the program's default)."""
    if profile == "gaussian":
        return c1_gaussian(k0), c2_gaussian(k0)
    if profile == "square":
        return c1_square(k0), c2_square(k0)
    raise ValueError(f"unknown profile {profile!r}")


def transition_k0(profile: str) -> float:
    """k0 where the closed-form C1 crosses 1/2."""
    return float(brentq(lambda k: coefficients(profile, k)[0] - 0.5,
                        0.5, 6.0, xtol=1e-13, rtol=1e-14))


def fidelity(c1: float, c2: float, phi: float) -> float:
    s2 = math.sin(0.5 * phi) ** 2
    val = (1.0 - 4.0 * c1 * (1.0 - c1) * s2) / (1.0 - 4.0 * (c1 - c2) * s2)
    return min(max(val, 0.0), 1.0)


def conditional_phase(c1: float, phi: float) -> float:
    return math.atan2(c1 * math.sin(phi), 1.0 - c1 + c1 * math.cos(phi))


def _gauss_legendre(lo: float, hi: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def copro_entropy(k0: float, phis) -> np.ndarray:
    """Copropagating linear entropy of two centred unit Gaussians, per Phi.

    The state is f(Z1) f(Z2) + alpha p(Z2) sinc(k0 (Z1 - Z2)), p = f^2,
    alpha = exp(i Phi) - 1. Tracing Z1 out leaves on Z2
        rho(a, b) = f(a) f(b) + alpha p g(a) f(b) + conj(alpha) f(a) p g(b)
                    + |alpha|^2 (pi/k0) p(a) p(b) sinc(k0 (a - b)),
    with g(b) = int f(x) sinc(k0 (x - b)) dx
         = (1/2k0) int_{-k0}^{k0} fhat(k) cos(k b) dk,
    fhat(k) = pi^(-1/4) sqrt(2 pi) exp(-k^2/2). Every factor is damped by
    the profile, so a Gauss-Legendre rule on the pulse support suffices.
    """
    z, w = _gauss_legendre(-COPRO_HALFWIDTH, COPRO_HALFWIDTH, COPRO_Z_NODES)
    k, wk = _gauss_legendre(-k0, k0, COPRO_K_NODES)
    fhat = GAUSS_NORM * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * k * k)
    g = (np.cos(np.outer(z, k)) @ (wk * fhat)) / (2.0 * k0)
    f = gaussian(z)
    p = f * f
    pg = p * g
    sinc = np.sinc(k0 * (z[:, None] - z[None, :]) / math.pi)
    r_ff = np.outer(f, f)
    r_gf = np.outer(pg, f)
    r_pp = (math.pi / k0) * np.outer(p, p) * sinc
    out = []
    for phi in np.asarray(phis, dtype=float):
        alpha = cmath.exp(1j * phi) - 1.0
        rho = r_ff + alpha * r_gf + alpha.conjugate() * r_gf.T + abs(alpha) ** 2 * r_pp
        nsq = float(w @ np.real(np.diag(rho)))
        out.append(1.0 - float(w @ np.abs(rho) ** 2 @ w) / nsq ** 2)
    return np.asarray(out)


def exp_remainder(x: float) -> complex:
    """exp(ix) - 1 - ix without cancellation at small x."""
    if abs(x) < 0.5:
        total, term = 0.0 + 0.0j, 1j * x
        for n in range(2, 30):
            term *= 1j * x / n
            total += term
        return total
    return cmath.exp(1j * x) - 1.0 - 1j * x


class Collision:
    """Head-on pass of two unit Gaussians in the program's default geometry.

    f1 is centred at -separation/2 and moves at v1, f2 at +separation/2 and
    moves at v2 (the HEADON_* constants); phi is the accumulated phase of a
    full pass, which fixes chi = phi |v_r| / (2 kappa separation),
    kappa = k0/pi. In co-moving offsets the closed-form amplitude is
        psi = f1(z1) f2(z2) + f2(z2) int_0^t C(z2 - z1 - v_r s) g(z2, s) ds,
        g(z2, s) = i chi f1(z2 - v_r s) + beta B(z2),
        beta = (exp(ix) - 1 - ix)/(kappa t^2), x = chi kappa t,
    with C(x) = (1/2 pi) int_{-k0}^{k0} exp(ikx) dk and
    B(z2) = int_0^t f1(z2 - v_r s) ds.
    """

    k0 = HEADON_K0
    c1, c2 = -HEADON_SEPARATION / 2.0, HEADON_SEPARATION / 2.0
    v_r = HEADON_V1 - HEADON_V2
    kappa = HEADON_K0 / math.pi
    pass_time = 2.0 * HEADON_SEPARATION / abs(v_r)

    def __init__(self, phi: float):
        self.phi = phi
        self.chi = phi * abs(self.v_r) / (2.0 * self.kappa * HEADON_SEPARATION)

    def _b(self, z2, t):
        """int_0^t f1(z2 - v_r s) ds in closed form (erf)."""
        u_hi = (z2 - self.c1) / math.sqrt(2.0)
        u_lo = (z2 - self.v_r * t - self.c1) / math.sqrt(2.0)
        return GAUSS_NORM * math.sqrt(math.pi / 2.0) * (erf(u_hi) - erf(u_lo)) / self.v_r

    def _parts(self, t: float, n2: int, ns: int, nk: int):
        z2, w2 = _gauss_legendre(self.c2 - 12.0, self.c2 + 12.0, n2)
        # one Gauss panel per half pulse width the front crosses
        panels = max(1, int(math.ceil(2.0 * abs(self.v_r) * t)))
        xs, ws = np.polynomial.legendre.leggauss(ns)
        edges = np.linspace(0.0, t, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        s = (half * xs[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
        ws = np.tile(half * ws, panels)
        k, wk = _gauss_legendre(-self.k0, self.k0, nk)
        x = self.chi * self.kappa * t
        beta = exp_remainder(x) / (self.kappa * t * t)
        y = z2[:, None] - self.v_r * s[None, :]
        g = 1j * self.chi * gaussian(y, self.c1) + beta * self._b(z2, t)[:, None]
        # h(y) = int f1(z1) C(y - z1) dz1 = (1/2 pi) int fhat(k) cos(k (y - c1)) dk
        fhat = GAUSS_NORM * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * k * k)
        h = np.cos((y - self.c1)[..., None] * k) @ (wk * fhat) / (2.0 * math.pi)
        big_h = (g * h) @ ws
        # G(a, k) = exp(ika) sum_s w_s g(a, s) exp(-ik v_r s)
        big_g = np.exp(1j * np.outer(z2, k)) * ((g * ws[None, :]) @ np.exp(
            -1j * self.v_r * np.outer(s, k)))
        return z2, w2, gaussian(z2, self.c2), big_h, big_g, wk

    def metrics(self, t: float, *, n2: int = 160, ns: int = 16,
                nk: int = 24) -> tuple[float, float]:
        """(F, theta) at time t against the unit-norm free product."""
        if t == 0.0:
            return 1.0, 0.0
        z2, w2, f2, big_h, big_g, wk = self._parts(t, n2, ns, nk)
        dens = w2 * f2 * f2
        amp = 1.0 + complex(dens @ big_h)
        corr = float(dens @ (np.abs(big_g) ** 2 @ wk)) / (2.0 * math.pi)
        nsq = 1.0 + 2.0 * (amp.real - 1.0) + corr
        return abs(amp) ** 2 / nsq, math.atan2(amp.imag, amp.real)

    def entropy(self, t: float, *, n2: int = 160, ns: int = 16,
                nk: int = 24) -> float:
        """Linear entropy with z1 traced over the whole line."""
        if t == 0.0:
            return 0.0
        z2, w2, f2, big_h, big_g, wk = self._parts(t, n2, ns, nk)
        rho = (1.0 + big_h[:, None] + np.conj(big_h)[None, :]
               + ((big_g * wk[None, :]) @ np.conj(big_g).T) / (2.0 * math.pi))
        rho *= np.outer(f2, f2)
        nsq = float(w2 @ np.real(np.diag(rho)))
        return 1.0 - float(w2 @ np.abs(rho) ** 2 @ w2) / nsq ** 2

    def commutator(self, x):
        ks = self.k0
        return (ks / math.pi) * np.sinc(ks * np.asarray(x, dtype=float) / math.pi)

    def tables_quad(self, z1: float, z2: float, t: float) -> tuple[float, float, float]:
        """A, B, D at one co-moving point by adaptive quadrature in u = v_r s."""
        span = self.v_r * t
        peak = z2 - self.c1  # f1(z2 - u) peaks at u = z2 - c1
        pts = [peak] if 0.0 < peak < span else None
        opts = dict(limit=200, epsabs=1e-15, epsrel=1e-12)
        a, _ = quad(lambda u: self.commutator(z2 - z1 - u), 0.0, span, **opts)
        b, _ = quad(lambda u: float(gaussian(z2 - u, self.c1)), 0.0, span,
                    points=pts, **opts)
        d, _ = quad(lambda u: self.commutator(z2 - z1 - u) * float(gaussian(z2 - u, self.c1)),
                    0.0, span, points=pts, **opts)
        return a / self.v_r, b / self.v_r, d / self.v_r

    def amplitude(self, z1: float, z2: float, t: float) -> complex:
        """Closed-form amplitude at one co-moving point from the quad tables."""
        f2 = float(gaussian(z2, self.c2))
        free = float(gaussian(z1, self.c1)) * f2
        if t == 0.0:
            return complex(free)
        a, b, d = self.tables_quad(z1, z2, t)
        x = self.chi * self.kappa * t
        beta = exp_remainder(x) / (self.kappa * t * t)
        return free + 1j * self.chi * d * f2 + beta * a * b * f2
