"""Continuum-limit evaluation of the teleportation performance integrals and
numerical verification of the asymptotic-convergence statements.

The discrete resource matrix is replaced by a density omega(z, y) in the
imbalance variables z = 1 - 2k/nu, y = 1 - 2j/nu, with
rho_{k,j} ~ omega(z, y) * 2/nu.  The performance functionals become narrow
band integrals around the diagonal z = y, evaluated here in rotated
coordinates so the band is resolved at any nu.

A `ContinuumProfile` is a nu-indexed *family*: a per-nu amplitude chi or
density omega plus the width scaling alpha(nu) the convergence fits read, so
that one object supports both fixed-nu quadrature and convergence sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import HypothesisViolationError, QuadratureError, StateValidationError
from .fock import normalized_amplitudes
from .protocol import fidelity_closed_pure
from . import resources

QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10
# profiles whose diagonal mass deviates from 1 by more than this are rejected;
# smaller deviations (compact-interval truncation of wide shapes) renormalize
RENORM_LIMIT = 0.5

SMOOTHNESS_CLASSES = ("twice", "once", "continuous", "none")


@dataclass(frozen=True)
class ContinuumProfile:
    """A family of two-mode profiles over the imbalance square [-1, 1]^2.

    A profile that sets `omega_of_nu` is a density (`kind` "density"): omega
    is given per nu by `omega_of_nu`.  Any other is pure (`kind` "pure"):
    omega(z, y) = conj(chi(z)) chi(y), with the amplitude chi given per nu by
    `chi_of_nu` (see `scaled_chi`), which is None for families with no
    continuum shape.

    `alpha(nu)` is the width scaling the convergence fits read.
    `smoothness` declares the regularity class of the shape function
    ("twice", "once", "continuous", or "none"); it is asserted by the
    convergence checks, never inferred.  `amplitudes_of_nu` optionally
    supplies the discrete amplitudes used for closed-form sweeps (defaulting
    to discretizing chi for pure profiles), which stay O(nu) in memory.
    `features_of_nu` lists interior z-points (bump centers) handed to the
    quadrature as breakpoints.

    The `chi` and `omega` callables must accept numpy arrays and broadcast
    over them (every stock profile does; a constant is fine): the strip
    integral across the diagonal evaluates QUADPACK's first GK21 step at all
    42 nodes in one call, and falls back to adaptive `quad` only when that
    step fails its error test.
    """

    smoothness: str
    alpha: Callable[[float], float] = lambda nu: 1.0
    chi_of_nu: Callable[[float], Callable] | None = None
    omega_of_nu: Callable[[float], Callable] | None = None
    amplitudes_of_nu: Callable[[int], np.ndarray] | None = None
    features_of_nu: Callable[[float], tuple] = lambda nu: ()

    def __post_init__(self):
        if self.smoothness not in SMOOTHNESS_CLASSES:
            raise StateValidationError(f"unknown smoothness class {self.smoothness!r}")

    @property
    def kind(self) -> str:
        """The profile kind: "density" if it sets `omega_of_nu`, else "pure"."""
        return "pure" if self.omega_of_nu is None else "density"

    def chi(self, nu: float) -> Callable:
        if self.kind != "pure" or self.chi_of_nu is None:
            raise StateValidationError("profile has no continuum amplitude chi")
        return self.chi_of_nu(nu)

    def omega(self, nu: float) -> Callable:
        """Two-point density at the given particle number."""
        if self.kind == "pure":
            chi = self.chi(nu)
            return lambda z, y: np.conj(chi(z)) * chi(y)
        return self.omega_of_nu(nu)

    def diagonal_norm(self, nu: float) -> float:
        """Integral of omega(z, z) over [-1, 1]; must be 1 for a valid profile."""
        om = self.omega(nu)
        val, _ = _quad(lambda z: float(np.real(om(z, z))), -1.0, 1.0,
                       points=self._features(nu))
        return val

    def amplitudes(self, nu: int) -> np.ndarray:
        """Discretized normalized amplitude vector x_k = chi(z_k) sqrt(2/nu)."""
        if self.amplitudes_of_nu is not None:
            return normalized_amplitudes(self.amplitudes_of_nu(nu))
        z = 1.0 - 2.0 * np.arange(nu + 1) / nu
        x = np.asarray(self.chi(nu)(z), dtype=complex) * np.sqrt(2.0 / nu)
        return normalized_amplitudes(x)

    def one_minus_fidelity(self, nu: int, N: int) -> float:
        """1 - f of the discrete counterpart, from its amplitudes."""
        return 1.0 - fidelity_closed_pure(self.amplitudes(nu), N)

    def _features(self, nu: float) -> list[float]:
        return [float(p) for p in self.features_of_nu(nu) if -1.0 < p < 1.0]


def _quad(func, lo, hi, points=None) -> tuple[float, float]:
    """Adaptive quadrature that turns genuine non-convergence into an error.

    Roundoff-limited warnings with a tiny reported error estimate are
    accepted; anything with a substantial residual error raises.
    """
    import scipy.integrate

    out = scipy.integrate.quad(
        func, lo, hi,
        epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
        limit=400, points=points if points else None,
        full_output=1,
    )
    val, err = out[0], out[1]
    if not (np.isfinite(val) and np.isfinite(err)):
        raise QuadratureError(f"quadrature gave a non-finite result: {val!r} +/- {err!r}")
    if len(out) > 3 and err > max(1e-9, 1e-7 * abs(val)):
        raise QuadratureError(f"quadrature failed to converge: {out[3]}")
    return val, err


# QUADPACK dqk21 (Piessens et al., 1983): Kronrod abscissae on [0, 1], center
# last, with their Kronrod and Gauss weights; the 10-point Gauss nodes are the
# odd-indexed abscissae, so the Gauss weights are zero at the others.
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_GK21_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GK21_WG = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
])
# the 21 nodes and weights of one panel, from its left end to its right end
_GK21_T = np.concatenate((-_GK21_X, _GK21_X[-2::-1]))
_GK21_WK21 = np.concatenate((_GK21_WK, _GK21_WK[-2::-1]))
_GK21_WG21 = np.concatenate((_GK21_WG, _GK21_WG[-2::-1]))
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _gk21_pair(f, b: float) -> tuple[float, float]:
    """QUADPACK qagp's first step for the integral of f over [-b, b].

    That step applies dqk21 to [-b, 0] and [0, b] (breakpoint 0); here all
    42 nodes are evaluated in one call of the array function f.  Returns the
    summed value and error estimate; when the estimate passes qagp's own
    test, `quad` would return the same value up to summation order.
    """
    h = 0.5 * b  # also the panel centers' distance from 0
    fv = f((np.array([[-h], [h]]) + h * _GK21_T).ravel()).reshape(2, 21)
    resk = fv @ _GK21_WK21
    resg = fv @ _GK21_WG21
    resabs = np.abs(fv) @ _GK21_WK21
    resasc = np.abs(fv - 0.5 * resk[:, None]) @ _GK21_WK21
    val = err = 0.0
    for k, g, ra, rs in zip(resk.tolist(), resg.tolist(), resabs.tolist(), resasc.tolist()):
        e = abs((k - g) * h)
        ra, rs = ra * h, rs * h
        if rs != 0.0 and e != 0.0:
            r = 200.0 * e / rs
            e = rs * (r ** 1.5 if r < 1.0 else 1.0)  # min(1, r**1.5); pow cannot overflow
        if ra > _UFLOW / (50.0 * _EPMACH):
            e = max(50.0 * _EPMACH * ra, e)
        val += k * h
        err += e
    return val, err


def triangle_kernel_moment(a: float, b: float, j: int, method: str = "quad") -> float:
    """Moment integral of (a - |x|) x^j over [-b, b], for a >= b >= 0.

    method "quad" uses the same machinery as the band integrals; method
    "closed" returns b (b^j + (-b)^j)(2a - b + a j - b j) / (j^2 + 3 j + 2).
    The agreement of the two is a standing property test of the integrator.
    """
    if not a >= b >= 0.0:
        raise StateValidationError("require a >= b >= 0")
    if method == "closed":
        return b * (b ** j + (-b) ** j) * (2 * a - b + a * j - b * j) / (j * j + 3 * j + 2)
    if method != "quad":
        raise ValueError(f"unknown method {method!r}")
    if b == 0.0:
        return 0.0
    val, _ = _quad(lambda x: (a - abs(x)) * x ** j, -b, b, points=[0.0])
    return val


def _band_integral(omega, nu: float, N: int, features) -> float:
    """Integral of max(0, N+1 - |z-y| nu/2) g(z, y) over the square.

    Rotated coordinates u = (z+y)/2, v = z - y confine the kernel to
    |v| <= w = 2(N+1)/nu, which the inner integral resolves explicitly; a
    naive quadrature over (z, y) misses the band entirely once nu is large.
    The inner integral is one vectorized GK21 pair (`_gk21_pair`) and falls
    back to adaptive `quad` when that pair fails its error test.
    """
    w = 2.0 * (N + 1.0) / nu

    def inner(u: float) -> float:
        b = min(w, 2.0 - 2.0 * abs(u))
        if b <= 0.0:
            return 0.0
        def g(v):
            return np.real(
                (N + 1.0 - np.abs(v) * nu / 2.0) * omega(u + v / 2.0, u - v / 2.0)
            )
        val, err = _gk21_pair(g, b)
        if not err <= max(QUAD_EPSABS, QUAD_EPSREL * abs(val)):  # NaN fails too
            val, _ = _quad(lambda v: float(g(v)), -b, b, points=[0.0])
        return val

    pts = sorted({-1.0 + w / 2.0, 1.0 - w / 2.0, *features})
    pts = [p for p in pts if -1.0 < p < 1.0]
    val, _ = _quad(inner, -1.0, 1.0, points=pts)
    return val


def _checked_omega(profile: ContinuumProfile, nu: float):
    norm = profile.diagonal_norm(nu)
    if not np.isfinite(norm) or abs(norm - 1.0) > RENORM_LIMIT:
        raise StateValidationError(
            f"profile diagonal integrates to {norm!r}, expected 1"
        )
    om = profile.omega(nu)
    if abs(norm - 1.0) < 1e-14:
        return om
    return lambda z, y: om(z, y) / norm


def fidelity_continuum(profile: ContinuumProfile, N: int, nu: float) -> float:
    """Continuum approximation of the teleportation fidelity.

    f ~ 1/(N+2) + (nu/2) Int max(0, N+1 - |z-y| nu/2) omega(z, y) / ((N+1)(N+2)).
    """
    om = _checked_omega(profile, nu)
    band = _band_integral(om, nu, N, profile._features(nu))
    return 1.0 / (N + 2.0) + (nu / 2.0) * band / ((N + 1.0) * (N + 2.0))


def entanglement_continuum(profile: ContinuumProfile, N: int, nu: float) -> float:
    """Continuum approximation of the average final entanglement.

    E ~ -pi/8 + (pi nu / 16) Int max(0, N+1 - |z-y| nu/2) |omega(z, y)| / (N+1).
    """
    om = _checked_omega(profile, nu)
    abs_om = lambda z, y: np.abs(om(z, y))
    band = _band_integral(abs_om, nu, N, profile._features(nu))
    return -np.pi / 8.0 + (np.pi * nu / 16.0) * band / (N + 1.0)


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

def scaled_chi(
    zeta: Callable[[np.ndarray], np.ndarray],
    alpha: Callable[[float], float],
    delta: Callable[[float], float] = lambda nu: 0.0,
) -> Callable[[float], Callable]:
    """The `chi_of_nu` of a nu-independent shape zeta, rescaled per nu:

    chi(z) = sqrt(alpha(nu)) zeta((z + delta(nu)) alpha(nu)),

    so alpha sets the width and delta the center.
    """
    def chi_of_nu(nu: float) -> Callable:
        a, d = alpha(nu), delta(nu)
        return lambda z: np.sqrt(a) * zeta((np.asarray(z) + d) * a)

    return chi_of_nu


def flat_family() -> ContinuumProfile:
    """Uniform amplitude chi = 1/sqrt(2); the maximally entangled family."""
    return ContinuumProfile(
        smoothness="twice",
        chi_of_nu=scaled_chi(
            lambda u: np.full_like(np.asarray(u, dtype=float), 1.0 / np.sqrt(2.0)),
            lambda nu: 1.0,
        ),
        amplitudes_of_nu=resources.max_entangled_amplitudes,
    )


def _gaussian_zeta(scale: float) -> Callable:
    """Unit-normalized Gaussian amplitude with chi^2-variance `scale`^2."""
    return lambda u: (2.0 * np.pi * scale ** 2) ** (-0.25) * np.exp(
        -np.asarray(u, dtype=float) ** 2 / (4.0 * scale ** 2)
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
        chi_of_nu=scaled_chi(_gaussian_zeta(2.0), alpha),
        amplitudes_of_nu=lambda nu: resources.gaussian_amplitudes(
            resources.GaussianSpec.from_beta(nu, beta)
        ),
    )


def gaussian_bump_family(
    center: float, sigma_of_nu: Callable[[float], float],
    amplitudes_of_nu: Callable[[int], np.ndarray] | None = None,
) -> ContinuumProfile:
    """Single Gaussian bump at imbalance `center` with width sigma_of_nu(nu)."""
    alpha = lambda nu: 1.0 / sigma_of_nu(nu)
    return ContinuumProfile(
        smoothness="twice",
        alpha=alpha,
        chi_of_nu=scaled_chi(_gaussian_zeta(1.0), alpha, lambda nu: -center),
        amplitudes_of_nu=amplitudes_of_nu,
        features_of_nu=lambda nu: (center,),
    )


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

    def amps(nu: int) -> np.ndarray:
        return resources.double_well_ground_amplitudes(
            resources.BoseHubbardParams.from_gamma(nu, gamma_of_nu(nu))
        )

    return gaussian_bump_family(0.0, sigma, amplitudes_of_nu=amps)


def double_well_bimodal_profile(gamma: float) -> ContinuumProfile:
    """Continuum shape of the attractive-side ground state: two Gaussians.

    Bumps sit at z = +/- sqrt(1 - 1/gamma^2) with variance
    1/(nu |gamma| sqrt(gamma^2 - 1)); valid for gamma < -1.
    """
    if gamma >= -1.0:
        raise HypothesisViolationError("bimodal ground-state shape requires gamma < -1")
    z0 = np.sqrt(1.0 - 1.0 / gamma ** 2)

    def sigma(nu: float) -> float:
        return (nu * abs(gamma) * np.sqrt(gamma ** 2 - 1.0)) ** -0.5

    def chi_of_nu(nu: float):
        s = sigma(nu)
        overlap = np.exp(-z0 ** 2 / (2.0 * s ** 2))
        norm = np.sqrt(2.0 * (1.0 + overlap))
        bump = _gaussian_zeta(s)

        def chi(z):
            z = np.asarray(z, dtype=float)
            return (bump(z - z0) + bump(z + z0)) / norm

        return chi

    def amps(nu: int) -> np.ndarray:
        return resources.double_well_ground_amplitudes(
            resources.BoseHubbardParams.from_gamma(nu, gamma)
        )

    return ContinuumProfile(
        smoothness="twice",
        alpha=lambda nu: 1.0 / sigma(nu),
        chi_of_nu=chi_of_nu,
        amplitudes_of_nu=amps,
        features_of_nu=lambda nu: (-z0, z0),
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


def factorized_gaussian_profile(sigma_z: float) -> ContinuumProfile:
    """Gaussian density omega(z, y) = plus(z + y) minus((z - y) a).

    Identical to the pure Gaussian bump of width sigma_z, written as a
    product over the sum and difference coordinates; exercises the density
    evaluation path.
    """
    a = 1.0 / (np.sqrt(8.0) * sigma_z)
    norm = (2.0 * np.pi * sigma_z ** 2) ** -0.5
    plus = lambda s: norm * np.exp(-np.asarray(s, dtype=float) ** 2 / (8.0 * sigma_z ** 2))
    minus = lambda v: np.exp(-np.asarray(v, dtype=float) ** 2)
    return ContinuumProfile(
        smoothness="twice",
        alpha=lambda nu: a,
        omega_of_nu=lambda nu: lambda z, y: plus(z + y) * minus((z - y) * a),
    )


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
        chi_of_nu=lambda nu: _shifted_gaussian(center, width),
        # bracket the spike so the adaptive grid cannot step over it
        features_of_nu=lambda nu: (center - 5 * width, center, center + 5 * width),
    )


def _shifted_gaussian(center: float, width: float) -> Callable:
    g = _gaussian_zeta(width)
    return lambda z: g(np.asarray(z, dtype=float) - center)
