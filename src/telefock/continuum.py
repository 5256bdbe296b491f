"""Continuum-limit evaluation of the teleportation performance integrals and
numerical verification of the asymptotic-convergence statements.

The discrete resource matrix is replaced by a density omega(z, y) =
chi(z) chi(y) in the imbalance variables z = 1 - 2k/nu, y = 1 - 2j/nu, with
rho_{k,j} ~ omega(z, y) * 2/nu.  The performance functionals become narrow
band integrals around the diagonal z = y.  Every continuum shape is flat or
a mixture of equal-width Gaussians, whose band integrals are closed forms
except on two thin edge strips (see `_band_integral`).

A `ContinuumProfile` is a nu-indexed *family*: a per-nu mixture plus the
width scaling alpha(nu) the convergence fits read, so that one object
supports both fixed-nu evaluation and convergence sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import HypothesisViolationError, NumericalError, StateValidationError
from .fock import _normalize, normalized_amplitudes
from .protocol import fidelity_closed_pure
from . import resources

# profiles whose diagonal mass deviates from 1 by more than this are rejected;
# smaller deviations (compact-interval truncation of wide shapes) renormalize
RENORM_LIMIT = 0.5

SMOOTHNESS_CLASSES = ("twice", "none")

# the fixed rule of the band integral: Gauss-Legendre nodes per panel, and
# how many widths s from a pair's center the edge strips' panels reach
_GL_NODES = 16
_EDGE_REACH = 40.0


@dataclass(frozen=True)
class ContinuumProfile:
    """A family of two-mode profiles over the imbalance square [-1, 1]^2.

    `mixture_of_nu(nu)` returns the amplitude at each nu as a mixture
    `(weights, centers, width)` of equal-width Gaussians,

        chi(z) = sum_i a_i exp(-(z - c_i)^2 / (4 s^2)),

    with weights a_i >= 0 and one width s > 0; width inf is the flat
    chi = sum_i a_i.  The density omega(z, y) = chi(z) chi(y) is then real
    and nonnegative, and `diagonal_norm`, `fidelity_continuum` and
    `entanglement_continuum` evaluate it in closed form.  `mixture_of_nu` is
    None for families with no continuum shape.

    `alpha(nu)` is the width scaling the convergence fits read.
    `smoothness` declares the regularity class of the shape function
    ("twice" or "none"); it is asserted by the
    convergence checks, never inferred.  `amplitudes_of_nu` optionally
    supplies the discrete amplitudes used for closed-form sweeps (defaulting
    to discretizing chi), which stay O(nu) in memory.
    """

    smoothness: str
    alpha: Callable[[float], float] = lambda nu: 1.0
    mixture_of_nu: Callable[[float], tuple] | None = None
    amplitudes_of_nu: Callable[[int], np.ndarray] | None = None

    def __post_init__(self):
        if self.smoothness not in SMOOTHNESS_CLASSES:
            raise StateValidationError(f"unknown smoothness class {self.smoothness!r}")

    def mixture(self, nu: float) -> tuple[np.ndarray, np.ndarray, float]:
        """The checked (weights, centers, width) at the given particle number."""
        if self.mixture_of_nu is None:
            raise StateValidationError("profile has no continuum amplitude chi")
        weights, centers, width = self.mixture_of_nu(nu)
        a, c, s = np.asarray(weights, dtype=float), np.asarray(centers, dtype=float), float(width)
        if a.ndim != 1 or a.size == 0 or a.shape != c.shape:
            raise StateValidationError("a mixture needs one weight per center, and a center")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c)) and s > 0.0):
            raise StateValidationError(
                f"a mixture needs finite weights and centers and a width > 0, not {width!r}")
        if np.any(a < 0.0):
            raise StateValidationError("mixture weights must be nonnegative")
        return a, c, s

    def chi(self, nu: float) -> Callable:
        """The continuum amplitude at the given particle number."""
        a, c, s = self.mixture(nu)

        def chi(z):
            z = np.asarray(z, dtype=float)
            if s == math.inf:
                return np.full(z.shape, a.sum())
            return sum(ai * np.exp((z - ci) ** 2 / (-4.0 * s * s)) for ai, ci in zip(a, c))

        return chi

    def diagonal_norm(self, nu: float) -> float:
        """Integral of omega(z, z) over [-1, 1]; must be 1 for a valid profile."""
        a, c, s = self.mixture(nu)
        if s == math.inf:
            return 2.0 * float(a.sum()) ** 2
        # chi(z)^2 pairs to exp(-(z-m)^2/(2s^2)) exp(-d^2/(8s^2))
        return sum(weight * math.exp(d * d / (-8.0 * s * s)) * _gauss_mass(-1.0, 1.0, m, s)
                   for weight, m, d in _pairs(a, c))

    def amplitudes(self, nu: int) -> np.ndarray:
        """Discretized normalized amplitude vector x_k = chi(z_k) sqrt(2/nu)."""
        if self.amplitudes_of_nu is not None:
            return normalized_amplitudes(self.amplitudes_of_nu(nu))
        z = np.arange(nu + 1, dtype=float)  # 1 - 2k/nu, formed in place
        np.multiply(z, 2.0, out=z)
        np.divide(z, nu, out=z)
        x = np.array(self.chi(nu)(np.subtract(1.0, z, out=z)), dtype=complex)
        np.multiply(x, np.sqrt(2.0 / nu), out=x)
        return _normalize(x)

    def one_minus_fidelity(self, nu: int, N: int) -> float:
        """1 - f of the discrete counterpart, from its amplitudes."""
        return 1.0 - fidelity_closed_pure(self.amplitudes(nu), N)


def _pairs(a: np.ndarray, c: np.ndarray):
    """(a_i a_j, m, d) with m = (c_i+c_j)/2 and d = c_i-c_j, over i <= j.

    A pair i < j stands for (j, i) too, whose terms are the same: they
    depend on d only through d^2 or through a strip moment even in d.
    """
    for i in range(len(a)):
        for j in range(i, len(a)):
            weight = float(a[i] * a[j]) * (1.0 if i == j else 2.0)
            yield weight, 0.5 * float(c[i] + c[j]), float(c[i] - c[j])


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the Legendre recurrence from Tricomi's estimates."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_X, _GL_W = _gauss_legendre(_GL_NODES)


def _erf_diff(x: float, y: float) -> float:
    """erf(y) - erf(x) for x <= y, without cancellation: reflected so that
    x + y >= 0, then taken as a difference of erfc where both arguments
    exceed 1/2 (erf there is within 0.48 of 1)."""
    if x + y < 0.0:
        x, y = -y, -x
    if x > 0.5:
        return math.erfc(x) - math.erfc(y)
    return math.erf(y) - math.erf(x)


_erf_diffs = np.frompyfunc(_erf_diff, 2, 1)


def _gauss_mass(lo: float, hi: float, m: float, s: float) -> float:
    """Int_lo^hi exp(-(u-m)^2/(2s^2)) du."""
    r = s * math.sqrt(2.0)
    return r * math.sqrt(math.pi) / 2.0 * _erf_diff((lo - m) / r, (hi - m) / r)


def _half_moment(b, d: float, s: float, nu: float, N: int) -> np.ndarray:
    """Int_0^b (N+1 - v nu/2) exp(-(v-d)^2/(8s^2)) dv, elementwise in b >= 0.

    Where b is at most the Gaussian's spread 2s the integrand is smooth on
    [0, b], and the Gauss-Legendre rule integrates it to rounding.  Wider b
    take the closed form: with r = 2s sqrt(2) the Gaussian is
    exp(-((v-d)/r)^2), and the integral is (N+1 - d nu/2) times its erf
    mass, minus nu/2 times its first moment about d,
    4s^2 (exp(-p) - exp(-q)) with p = (d/r)^2 and q = ((b-d)/r)^2.  That
    difference is formed with expm1 from the smaller exponent, so a far
    pair cannot form 0 * inf.  (The closed form would lose digits to
    cancellation on narrow b away from d, the rule on wide b.)
    """
    b = np.asarray(b, dtype=float)
    out = np.empty(b.shape)
    r = 2.0 * s * math.sqrt(2.0)
    near = b <= 2.0 * s
    h = b[near] / 2.0
    v = np.multiply.outer(h, 1.0 + _GL_X)
    out[near] = h * (((N + 1.0 - v * nu / 2.0) * np.exp(-((v - d) / r) ** 2)) @ _GL_W)
    wide = b[~near]
    x, y = -d / r, (wide - d) / r
    mass = r * math.sqrt(math.pi) / 2.0 * np.asarray(_erf_diffs(x, y), dtype=float)
    p, q = x * x, y * y
    # q - p = (y - x)(y + x), without the cancellation of the squares
    step = -np.abs(wide * (wide - 2.0 * d)) / (r * r)
    gap = -np.exp(-np.minimum(p, q)) * np.expm1(step)
    out[~near] = ((N + 1.0 - d * nu / 2.0) * mass
                  - (nu / 2.0) * 4.0 * s * s * np.where(p <= q, gap, -gap))
    return out


def _strip_moment(b, d: float, s: float, nu: float, N: int) -> np.ndarray:
    """Int_{-b}^{b} (N+1 - |v| nu/2) exp(-(v-d)^2/(8s^2)) dv, elementwise in b >= 0."""
    return _half_moment(b, d, s, nu, N) + _half_moment(b, -d, s, nu, N)


def _edge_strip(t0: float, d: float, s: float, half: float, nu: float, N: int) -> float:
    """Int_0^half exp(-(t-t0)^2/(2s^2)) M(2t) dt, where M is the pair's
    strip moment: one edge strip of the band, at distance t from the edge
    of the square, with the pair's u-Gaussian centered at t0."""
    lo, hi = max(0.0, t0 - _EDGE_REACH * s), min(half, t0 + _EDGE_REACH * s)
    if not lo < hi:
        return 0.0
    panels = math.ceil((hi - lo) / s)
    h = (hi - lo) / (2.0 * panels)
    t = np.add.outer(lo + h * (2.0 * np.arange(panels) + 1.0), h * _GL_X)
    f = np.exp(((t - t0) / s) ** 2 / -2.0) * _strip_moment(2.0 * t, d, s, nu, N)
    return h * float(np.sum(f @ _GL_W))


def _band_integral(a: np.ndarray, c: np.ndarray, s: float, nu: float, N: int) -> float:
    """Int max(0, N+1 - |z-y| nu/2) chi(z) chi(y) over the square [-1, 1]^2.

    In u = (z+y)/2, v = z-y the square is |u| <= 1 - |v|/2, the kernel
    confines v to |v| <= w = min(2(N+1)/nu, 2), and the pair (i, j) of the
    mixture contributes a_i a_j exp(-(u-m)^2/(2s^2)) exp(-(v-d)^2/(8s^2)).
    On |u| <= 1 - w/2 the whole band lies in the square, so that part is
    the product of an erf mass in u and a closed strip moment in v.  On the
    two edge strips 1 - w/2 < |u| <= 1 the band narrows to
    |v| <= 2(1 - |u|); there a fixed Gauss-Legendre rule integrates over u,
    on panels no wider than s and within `_EDGE_REACH` widths of m (the
    u-Gaussian is below exp(-800) beyond).  The flat profile's band is a
    cubic in w.
    """
    w = min(2.0 * (N + 1.0) / nu, 2.0)
    if s == math.inf:
        # (sum a)^2 Int_{-w}^{w} (N+1 - |v| nu/2) (2 - |v|) dv
        return float(a.sum()) ** 2 * w * (4.0 * (N + 1.0) - (N + 1.0 + nu) * w + nu * w * w / 3.0)
    # the strips reach 1 - inner exactly, so they tile [-1, 1] with the
    # interior even where a rounded boundary would cut a steep Gaussian
    inner = 1.0 - w / 2.0
    edge = 1.0 - inner
    total = 0.0
    for weight, m, d in _pairs(a, c):
        core = _gauss_mass(-inner, inner, m, s) * float(_strip_moment(w, d, s, nu, N))
        edges = (_edge_strip(1.0 - m, d, s, edge, nu, N)
                 + _edge_strip(1.0 + m, d, s, edge, nu, N))
        total += weight * (core + edges)
    return total


def _normalized_band(profile: ContinuumProfile, N: int, nu: float) -> float:
    """The band integral of the profile, divided by its diagonal norm."""
    norm = profile.diagonal_norm(nu)
    if not np.isfinite(norm) or abs(norm - 1.0) > RENORM_LIMIT:
        raise StateValidationError(
            f"profile diagonal integrates to {norm!r}, expected 1"
        )
    with np.errstate(all="ignore"):  # IEEE arithmetic: `_finite` rejects what is not finite
        band = _band_integral(*profile.mixture(nu), nu, N)
    return band if abs(norm - 1.0) < 1e-14 else band / norm


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise NumericalError(f"continuum functional gave a non-finite result: {value!r}")
    return value


def fidelity_continuum(profile: ContinuumProfile, N: int, nu: float) -> float:
    """Continuum approximation of the teleportation fidelity.

    f ~ 1/(N+2) + (nu/2) Int max(0, N+1 - |z-y| nu/2) omega(z, y) / ((N+1)(N+2)).
    """
    band = _normalized_band(profile, N, nu)
    return _finite(1.0 / (N + 2.0) + (nu / 2.0) * band / ((N + 1.0) * (N + 2.0)))


def entanglement_continuum(profile: ContinuumProfile, N: int, nu: float) -> float:
    """Continuum approximation of the average final entanglement.

    E ~ -pi/8 + (pi nu / 16) Int max(0, N+1 - |z-y| nu/2) |omega(z, y)| / (N+1).
    A mixture's omega is nonnegative, so this reads the fidelity's band integral.
    """
    band = _normalized_band(profile, N, nu)
    return _finite(-np.pi / 8.0 + (np.pi * nu / 16.0) * band / (N + 1.0))


# ---------------------------------------------------------------------------
# Convergence reports
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Finite-size convergence summary over a particle-number grid."""

    nu_grid: list[int]
    one_minus_f: list[float]
    fitted_exponent: float | None
    converges: bool
    hypothesis_flags: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def _validate_grid(nu_grid) -> list[int]:
    grid = [int(nu) for nu in nu_grid]
    if len(grid) < 4:
        raise StateValidationError("need at least 4 grid points for a convergence fit")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise StateValidationError("nu grid must be strictly increasing")
    return grid


def _fit_tail_exponent(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of log ys against log xs over the last half of the grid.

    The first half is discarded as pre-asymptotic transient.  A tail of
    equal ys has slope exactly 0, not the round-off a fit would return.
    """
    half = len(xs) // 2
    if np.all(ys[half:] == ys[half]):
        return 0.0
    lx, ly = np.log(xs[half:]), np.log(ys[half:])
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def _convergence_flags(one_minus_f: np.ndarray) -> bool:
    half = len(one_minus_f) // 2
    tail = one_minus_f[half - 1 :]
    decreasing = bool(np.all(np.diff(tail) < 0.0))
    shrinks = one_minus_f[-1] < 0.5 * one_minus_f[half - 1]
    return decreasing and bool(shrinks)


def convergence_report(
    grid: list[int], one_minus_f: np.ndarray, xs: np.ndarray, flags: list[str],
    diagnostics: dict, converges: bool | None = None,
) -> ConvergenceReport:
    """The report of one convergence study of 1 - f against the scale xs.

    The verdict defaults to `_convergence_flags` (a strictly decreasing tail
    that at least halves); a failed verdict appends "no-convergence" to
    `flags`.  The tail exponent is fitted only when every 1 - f and every x
    is positive and the x values are not all equal.
    """
    if converges is None:
        converges = _convergence_flags(one_minus_f)
    if not converges:
        flags.append("no-convergence")
    fitted = None
    if np.all(one_minus_f > 0.0) and np.all(xs > 0.0) and len(set(xs)) > 1:
        fitted = _fit_tail_exponent(xs, one_minus_f)
    return ConvergenceReport(
        nu_grid=grid,
        one_minus_f=one_minus_f.tolist(),
        fitted_exponent=fitted,
        converges=bool(converges),
        hypothesis_flags=flags,
        diagnostics=diagnostics,
    )


def check_proposition2(
    profile: ContinuumProfile, N: int, nu_grid
) -> ConvergenceReport:
    """Convergence study of 1 - f for a scaled profile family.

    Evaluates the closed-form fidelity of the discretized family over the
    grid, fits the tail exponent of 1 - f against alpha(nu) N / nu, and
    checks the O(alpha(nu) N / nu) envelope for twice-differentiable shapes.
    Profiles declaring smoothness "none" are flagged as violating the
    continuity hypothesis rather than rejected.
    """
    grid = _validate_grid(nu_grid)
    one_minus_f = np.array([profile.one_minus_fidelity(nu, N) for nu in grid])
    xs = np.array([profile.alpha(nu) * N / nu for nu in grid], dtype=float)
    diagnostics: dict = {"alpha_N_over_nu": xs.tolist()}
    envelope_ok = True
    if profile.smoothness == "twice":
        ratios = one_minus_f / xs
        half = len(ratios) // 2
        tail = ratios[half - 1 :]
        envelope_ok = bool(np.all(tail[1:] <= 1.2 * tail[:-1]))
        diagnostics["envelope_ratios"] = ratios.tolist()
    flags = ["profile-not-continuous"] if profile.smoothness == "none" else []
    report = convergence_report(grid, one_minus_f, xs, flags, diagnostics)
    if not envelope_ok:
        report.hypothesis_flags.append("envelope-exceeded")
    return report


def check_proposition3(
    profile_a: ContinuumProfile,
    profile_b: ContinuumProfile,
    c1: float,
    c2: float,
    N: int,
    nu_grid,
) -> ConvergenceReport:
    """Convergence study for a nonnegative superposition of two families.

    Verifies that the component overlap decays, that the superposition
    fidelity converges to one, and reports the tail exponent against
    max(alpha_1, alpha_2) N / nu.  Negative mixing coefficients or negative
    component amplitudes violate the hypotheses and raise.
    """
    if c1 < 0.0 or c2 < 0.0:
        raise HypothesisViolationError("superposition coefficients must be nonnegative")
    grid = _validate_grid(nu_grid)

    one_minus_f = []
    overlaps = []
    for nu in grid:
        xa = profile_a.amplitudes(nu)
        xb = profile_b.amplitudes(nu)
        if np.min(xa.real) < -1e-12 or np.min(xb.real) < -1e-12:
            raise HypothesisViolationError("component amplitudes must be nonnegative")
        x = normalized_amplitudes(c1 * xa.real + c2 * xb.real)
        one_minus_f.append(1.0 - fidelity_closed_pure(x, N))
        overlaps.append(float(np.dot(xa.real, xb.real)))

    flags: list[str] = []
    if abs(overlaps[-1]) > 0.05 or abs(overlaps[-1]) > abs(overlaps[0]) + 1e-12:
        flags.append("components-not-asymptotically-orthogonal")
    xs = np.array(
        [max(profile_a.alpha(nu), profile_b.alpha(nu)) * N / nu for nu in grid]
    )
    return convergence_report(grid, np.array(one_minus_f), xs, flags,
                              {"overlaps": overlaps})


# ---------------------------------------------------------------------------
# Stock profile families
# ---------------------------------------------------------------------------

def _bump(center: float, s: float) -> tuple:
    """The mixture of one Gaussian of width s at `center`, unit-normalized
    on the line: (2 pi s^2)^(-1/4) exp(-(z - center)^2 / (4 s^2))."""
    return ((2.0 * math.pi * s * s) ** -0.25,), (center,), s


def flat_family() -> ContinuumProfile:
    """Uniform amplitude chi = 1/sqrt(2); the maximally entangled family."""
    return ContinuumProfile(
        smoothness="twice",
        mixture_of_nu=lambda nu: ((math.sqrt(0.5),), (0.0,), math.inf),
        amplitudes_of_nu=resources.max_entangled_amplitudes,
    )


def gaussian_beta_family(beta: float) -> ContinuumProfile:
    """Discrete Gaussians of width nu^beta centered on the balanced splitting.

    In imbalance coordinates the amplitude width is 2 nu^(beta-1), i.e. the
    family rescales with alpha(nu) = nu^(1-beta).
    """
    alpha = lambda nu: float(nu) ** (1.0 - beta)
    return ContinuumProfile(
        smoothness="twice",
        alpha=alpha,
        mixture_of_nu=lambda nu: _bump(0.0, 2.0 / alpha(nu)),
        amplitudes_of_nu=lambda nu: resources.gaussian_amplitudes(
            resources.GaussianSpec.from_beta(nu, beta)
        ),
    )


def gaussian_bump_family(
    center: float, sigma_of_nu: Callable[[float], float],
    amplitudes_of_nu: Callable[[int], np.ndarray] | None = None,
) -> ContinuumProfile:
    """Single Gaussian bump at imbalance `center` with width sigma_of_nu(nu)."""
    return ContinuumProfile(
        smoothness="twice",
        alpha=lambda nu: 1.0 / sigma_of_nu(nu),
        mixture_of_nu=lambda nu: _bump(center, sigma_of_nu(nu)),
        amplitudes_of_nu=amplitudes_of_nu,
    )


def _ground_amplitudes(gamma_of_nu: Callable[[float], float]) -> Callable[[int], np.ndarray]:
    """The exact double-well ground state at each nu, at gamma_of_nu(nu)."""
    return lambda nu: resources.double_well_ground_amplitudes(
        resources.BoseHubbardParams.from_gamma(nu, gamma_of_nu(nu)))


def double_well_profile(gamma_of_nu: Callable[[float], float]) -> ContinuumProfile:
    """Continuum shape of the repulsive-side double-well ground state.

    Gaussian centered at z = 0 with variance 1/(nu sqrt(gamma + 1)); the
    discrete counterpart is the exact diagonalization ground state.
    """
    def sigma(nu: float) -> float:
        g = gamma_of_nu(nu)
        if g <= -1.0:
            raise HypothesisViolationError(
                "Gaussian ground-state shape requires gamma > -1"
            )
        return (nu * np.sqrt(g + 1.0)) ** -0.5

    return gaussian_bump_family(0.0, sigma, amplitudes_of_nu=_ground_amplitudes(gamma_of_nu))


def double_well_bimodal_profile(gamma: float) -> ContinuumProfile:
    """Continuum shape of the attractive-side ground state: two Gaussians.

    Bumps sit at z = +/- sqrt(1 - 1/gamma^2) with variance
    1/(nu |gamma| sqrt(gamma^2 - 1)); valid for gamma < -1.
    """
    if gamma >= -1.0:
        raise HypothesisViolationError("bimodal ground-state shape requires gamma < -1")
    z0 = math.sqrt(1.0 - 1.0 / gamma ** 2)

    def sigma(nu: float) -> float:
        return (nu * abs(gamma) * np.sqrt(gamma ** 2 - 1.0)) ** -0.5

    def mixture_of_nu(nu: float) -> tuple:
        s = sigma(nu)
        (weight,), _, _ = _bump(0.0, s)
        # the bumps' overlap is exp(-z0^2 / (2 s^2))
        norm = math.sqrt(2.0 * (1.0 + math.exp(z0 * z0 / (-2.0 * s * s))))
        return (weight / norm,) * 2, (-z0, z0), s

    return ContinuumProfile(
        smoothness="twice",
        alpha=lambda nu: 1.0 / sigma(nu),
        mixture_of_nu=mixture_of_nu,
        amplitudes_of_nu=_ground_amplitudes(lambda nu: gamma),
    )


def double_well_family(gamma: float) -> ContinuumProfile:
    """Continuum shape of the double-well ground state at a fixed gamma.

    One Gaussian bump (`double_well_profile`) for gamma > -1, two
    (`double_well_bimodal_profile`) for gamma < -1.  At gamma = -1 neither
    shape applies, and the single bump raises when evaluated.
    """
    if gamma < -1.0:
        return double_well_bimodal_profile(gamma)
    return double_well_profile(lambda nu: gamma)


def discrete_only_family(
    amplitudes_of_nu: Callable[[int], np.ndarray]
) -> ContinuumProfile:
    """Family with no admissible continuum shape (separable, N00N, ...)."""
    return ContinuumProfile(
        smoothness="none",
        amplitudes_of_nu=amplitudes_of_nu,
    )


def spike_profile(width: float, center: float = 0.0) -> ContinuumProfile:
    """Near-singular diagonal profile; outside every proposition hypothesis."""
    return ContinuumProfile(
        smoothness="none",
        mixture_of_nu=lambda nu: _bump(center, width),
    )
