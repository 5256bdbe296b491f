"""Noise channels on the resource state and the induced robustness analyses.

Three channel types: probabilistic mixing with an undesired state, pure
dephasing (analytic entrywise damping), and particle loss.  Particle loss is
solved two ways: the surviving fixed-particle block in closed form, and a
direct Runge-Kutta integration of the master equation over the direct sum of
particle-number blocks, which doubles as the oracle for the closed form and
supplies the lower blocks the closed form does not reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np

from .continuum import (
    ContinuumProfile, ConvergenceReport, _convergence_flags, _validate_grid, convergence_report,
)
from .errors import (
    NumericalError,
    StateValidationError,
    UnsupportedRegimeError,
)
from .fock import Diagonals, ResourceState, _reader, dense_state
from .protocol import Band, band, band_of_diagonals, fidelity_closed, separable_fidelity


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingSpec:
    """Mix with `undesired` at weight s: rho -> (rho + s sigma) / (1 + s).

    `undesired` is a state, `Diagonals` or a normalized amplitude vector.
    """

    undesired: ResourceState | Diagonals | np.ndarray
    s: float

    def __post_init__(self):
        if self.s < 0.0:
            raise StateValidationError("mixing weight s must be nonnegative")


def mix(rho: ResourceState, spec: MixingSpec) -> ResourceState:
    sigma = dense_state(spec.undesired)
    if sigma.n_particles != rho.n_particles:
        raise StateValidationError("mixing requires matching particle numbers")
    m = (rho.matrix + spec.s * sigma.matrix) / (1.0 + spec.s)
    return ResourceState(rho.n_particles, m)


# ---------------------------------------------------------------------------
# Dephasing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DephasingSpec:
    """Markovian dephasing with mode rates lambda3, lambda4 for a time t."""

    lambda3: float
    lambda4: float
    t: float

    def __post_init__(self):
        if self.lambda3 < 0.0 or self.lambda4 < 0.0 or self.t < 0.0:
            raise StateValidationError("dephasing rates and time must be nonnegative")

    @property
    def rate_sum(self) -> float:
        return self.lambda3 + self.lambda4


def dephase(rho: ResourceState, spec: DephasingSpec) -> ResourceState:
    """Entrywise damping rho_{k,j} -> exp(-(t/2)(l3+l4)(k-j)^2) rho_{k,j}.

    The diagonal is untouched, so trace and populations are preserved; the
    damping kernel is a Gaussian positive-definite function, so positivity
    is preserved as well.
    """
    k = np.arange(rho.n_particles + 1)
    kernel = np.exp(-0.5 * spec.t * spec.rate_sum * (k[:, None] - k[None, :]) ** 2)
    return ResourceState(rho.n_particles, rho.matrix * kernel)


def four_coherence_diagonals(
    a: float, b: float, c: float, d: float, x: float, y: float, nu: int
) -> Diagonals:
    """Four-level state with one nearest- and one third-neighbor coherence.

    Populations (a, b, c, d) on |k, nu-k>, k = 0..3, coherence x between
    k = 1, 2 and y between k = 0, 3; all other entries zero.  Positivity
    demands x^2 <= b c and y^2 <= a d.  The diagonals are complex like the
    dense state's, so the trace sums in the same order.
    """
    if nu < 3:
        raise StateValidationError("need nu >= 3 to host the four-level block")
    if min(a, b, c, d) < 0.0 or abs(a + b + c + d - 1.0) > 1e-12:
        raise StateValidationError("populations must be nonnegative and sum to 1")
    if x * x > b * c + 1e-12 or y * y > a * d + 1e-12:
        raise StateValidationError("coherences violate positivity: need x^2<=bc, y^2<=ad")
    upper = [np.zeros(nu + 1 - j, dtype=complex) for j in range(4)]
    upper[0][:4] = a, b, c, d
    upper[1][1] = x
    upper[3][0] = y
    return Diagonals(nu, tuple(upper))


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b], step for step as scipy's `brentq` (Zeros/brentq.c).

    Brent's method keeps a sign-changing bracket [xcur, xblk] and steps by
    inverse quadratic or secant interpolation while the step stays short,
    by bisection otherwise; it stops once half the bracket is below
    delta = (xtol + rtol |xcur|) / 2.  No sign change, a NaN value of f and
    no convergence in scipy's default 100 steps raise `NumericalError`.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"root finder: f({x!r}) is NaN; it cannot continue")
        return fx

    def negative(v: float) -> bool:  # C's signbit
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = a, b
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise NumericalError(f"root finder: f({a!r}) and f({b!r}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # no interpolation step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or NaN: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise NumericalError(f"root finder failed to converge after 100 iterations, value is {xcur!r}")


@dataclass
class ThresholdReport:
    """Dephasing time beyond which the state stops beating the baseline."""

    N: int
    rate_sum: float
    f_sep: float
    t_star: float
    t_star_bisect: float
    verified: bool = field(init=False)

    def __post_init__(self):
        self.verified = abs(self.t_star - self.t_star_bisect) <= 1e-6


def dephasing_threshold_demo(
    a: float, b: float, c: float, d: float, x: float, y: float,
    N: int, lambda3: float, lambda4: float, nu: int | None = None,
) -> ThresholdReport:
    """Critical dephasing time for the four-coherence state.

    The state beats the separable baseline iff y > -x exp(4 t (l3+l4)) N/(N-2),
    so the fidelity crosses f_sep at
    t* = ln(y (N-2) / (-x N)) / (4 (l3 + l4)), computed here in log space and
    confirmed by Brent's method (`_brentq`) on the closed-form fidelity of the
    dephased band (`band_scan`, 2N numbers per step, no dense state).  Requires
    N > 2 (below that the y-coherence sits outside the fidelity band), x < 0
    and y > 0 as in the crossing scenario.
    """
    if N <= 2:
        raise UnsupportedRegimeError("crossing criterion requires N > 2")
    if not (x < 0.0 < y):
        raise StateValidationError("crossing scenario requires x < 0 and y > 0")
    rate_sum = lambda3 + lambda4
    if rate_sum <= 0.0:
        raise StateValidationError("need a positive total dephasing rate")
    if nu is None:
        nu = max(3, N)
    diagonals = four_coherence_diagonals(a, b, c, d, x, y, nu)
    f_sep = separable_fidelity(N)
    log_ratio = math.log(y * (N - 2)) - math.log(-x * N)
    if log_ratio <= 0.0:
        raise StateValidationError(
            "initial state does not outperform the separable baseline"
        )
    t_star = log_ratio / (4.0 * rate_sum)
    band0, dephasing = band(diagonals, N), DephasingSpec(lambda3, lambda4, 0.0)

    def gap(t: float) -> float:
        [(evolved, _)] = band_scan(band0, dephasing, N, [t])
        return fidelity_closed(evolved, N) - f_sep

    hi = 4.0 * t_star + 1.0
    t_bisect = _brentq(gap, 0.0, hi, xtol=1e-13, rtol=1e-14)
    return ThresholdReport(
        N=N, rate_sum=rate_sum, f_sep=f_sep, t_star=t_star, t_star_bisect=t_bisect
    )


# ---------------------------------------------------------------------------
# Particle loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossChannel:
    """One loss channel a_3^m a_4^n at the given rate."""

    rate: float
    m: int
    n: int

    def __post_init__(self):
        if self.rate < 0.0:
            raise StateValidationError("loss rate must be nonnegative")
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise StateValidationError("loss channel must remove at least one particle")


@dataclass(frozen=True)
class LossSpec:
    """A set of loss channels acting for a time t."""

    channels: tuple[LossChannel, ...]
    t: float

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if not self.channels:
            raise StateValidationError("need at least one loss channel")
        if self.t < 0.0:
            raise StateValidationError("time must be nonnegative")


def two_particle_loss_spec(
    l3: float, l4: float, l33: float, l44: float, l34: float, t: float
) -> LossSpec:
    """The standard one- and two-particle channel set {a3, a4, a3^2, a4^2, a3 a4}."""
    return LossSpec(
        channels=(
            LossChannel(l3, 1, 0),
            LossChannel(l4, 0, 1),
            LossChannel(l33, 2, 0),
            LossChannel(l44, 0, 2),
            LossChannel(l34, 1, 1),
        ),
        t=t,
    )


def eta_rates(spec: LossSpec, nu: int) -> np.ndarray:
    """Fock-diagonal decay rates eta_k = sum_i (rate_i/2) k!/(k-m)! (nu-k)!/(nu-k-n)!.

    Falling factorials vanish whenever the channel would remove more
    particles than a mode holds.  They are float products of integers, so
    exact while below 2**53.
    """
    k = np.arange(nu + 1)
    eta = np.zeros(nu + 1)
    for ch in spec.channels:
        eta += 0.5 * ch.rate * _falling(k, ch.m) * _falling(nu - k, ch.n)
    return eta


def _falling(x: np.ndarray, m: int) -> np.ndarray:
    """x!/(x-m)! elementwise, zero where x < m."""
    out = np.ones(x.shape)
    # once i exceeds max(x) every entry is already zero: stop there, so a
    # huge m costs no more than max(x) + 1 products
    for i in range(min(m, int(x.max(initial=0)) + 1)):
        out *= np.maximum(x - i, 0)
    return out


@dataclass
class LossResult:
    """Solution of the loss channel split into particle-number blocks.

    `surviving_block` is the unnormalized nu-particle coefficient matrix,
    `survival_weight` its trace, and `lower_blocks[b]` the unnormalized
    b-particle matrix for b < nu when they were computed (via the
    Runge-Kutta integrator; the closed form never populates them).
    """

    n_particles: int
    surviving_block: np.ndarray
    survival_weight: float
    lower_blocks: list[np.ndarray] | None = None

    def total_trace(self) -> float:
        total = self.survival_weight
        if self.lower_blocks is not None:
            total += sum(float(np.trace(b).real) for b in self.lower_blocks)
        return total


def particle_loss_analytic(rho: ResourceState, spec: LossSpec) -> LossResult:
    """Closed-form surviving block of the loss evolution.

    Entries damp as exp(-t (eta_k + eta_j)); the weight remaining in the
    nu-particle sector is sum_k exp(-2 t eta_k) rho_{k,k}.  The lower
    blocks come from the integrator, `particle_loss_lindblad`.
    """
    nu = rho.n_particles
    e = np.exp(-spec.t * eta_rates(spec, nu))
    surviving = e[:, None] * rho.matrix * e[None, :]
    return LossResult(nu, surviving, float(np.trace(surviving).real))


def _block_offsets(nu: int) -> np.ndarray:
    """Start of each b-particle block, b = 0..nu, in the stacked row-major
    vector of the loss evolution, and its total size sum_b (b+1)^2 last."""
    return np.concatenate(([0], np.cumsum(np.arange(1, nu + 2) ** 2)))


class _CSR:
    """A square sparse matrix in compressed sparse rows, from its (row,
    column, value) triplets: row i holds data[indptr[i]:indptr[i+1]] at its
    sorted columns, and a repeated position is summed by the mat-vec.  Every
    row must hold an entry, which `np.add.reduceat` needs to sum each row."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int):
        order = np.lexsort((cols, rows))
        self.data, self.indices = vals[order], cols[order]
        self.indptr = np.searchsorted(rows[order], np.arange(size + 1))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.data * x[self.indices], self.indptr[:-1])


def _loss_generator(spec: LossSpec, nu: int) -> _CSR:
    """The loss master equation on the blocks b = 0..nu, stacked as in
    `_block_offsets`, as one complex sparse matrix (each row holds its
    anticommutator entry).

    The anticommutator damps entry (k, j) of block b at eta_k + eta_j; the
    jump term of a channel a_3^m a_4^n feeds entry (k - m, j - m) of block
    b - m - n from entry (k, j) of block b with rate * A_k A_j, where
    A_k = sqrt(k!/(k-m)! (b-k)!/(b-k-n)!).
    """
    offsets = _block_offsets(nu)
    rows, cols, vals = [], [], []
    for b in range(nu + 1):
        eta = eta_rates(spec, b)
        diagonal = offsets[b] + np.arange((b + 1) ** 2)
        rows.append(diagonal)
        cols.append(diagonal)
        vals.append(-(eta[:, None] + eta[None, :]).ravel())
    for ch in spec.channels:
        drop = ch.m + ch.n
        for src in range(drop, nu + 1):
            dst = src - drop
            k = np.arange(ch.m, src - ch.n + 1)
            amp = np.sqrt(_falling(k, ch.m) * _falling(src - k, ch.n))
            i = np.arange(k.size)
            rows.append((offsets[dst] + i[:, None] * (dst + 1) + i[None, :]).ravel())
            cols.append((offsets[src] + k[:, None] * (src + 1) + k[None, :]).ravel())
            vals.append((ch.rate * np.outer(amp, amp)).ravel())
    return _CSR(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals).astype(complex),
                int(offsets[-1]))


# The Dormand-Prince 5(4) pair as scipy's `RK45` holds it: nodes, stage
# coefficients, fifth-order weights and the weights of the error estimate.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> SimpleNamespace:
    """Integrate y' = fun(t, y) over t_span = (t0, t1), t0 <= t1, step for
    step as scipy's `solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol)`.

    That is its RK45 (Dormand and Prince 1980; Hairer, Norsett and Wanner,
    Solving ODEs I, sec. II.4) in scipy's operation order: the same first
    step (`select_initial_step`), stage dot products and RMS error norm,
    step factors 0.9 err^(-1/5) within [0.2, 10] (at most 1 right after a
    rejection), the floor of 10 spacings of t and the clamp at t1.  So it
    returns the same bits.  The result holds the final state as y[:, -1],
    `success`, `message` and `nfev`; only the final state is kept.
    """
    t, t_bound = map(float, t_span)
    if t_bound < t:
        raise ValueError(f"solve_ivp integrates forward only: t_span = {t_span!r}")
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    def rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    y = np.asarray(y0, dtype=float)
    f = rhs(t, y)
    if t < t_bound:  # scipy's `select_initial_step` for an error of order 4
        scale = atol + np.abs(y) * rtol
        d0, d1 = rms(y / scale), rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
        d2 = rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
        h_abs = min(100 * h0, h1, t_bound - t)
    K = np.empty((7, y.size))
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                return SimpleNamespace(y=y[:, None], success=False, nfev=nfev, message=(
                    "Required step size is less than spacing between numbers."))
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 6):
                K[s] = rhs(t + _DP_C[s] * h, y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = K[6] = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = rms(np.dot(K.T, _DP_E) * h / scale)
            factor = 10 if error_norm == 0 else 0.9 * error_norm ** -0.2
            if error_norm < 1:
                h_abs *= min(1 if rejected else 10, factor)
                break
            h_abs *= max(0.2, factor)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return SimpleNamespace(y=y[:, None], success=True, nfev=nfev, message=(
        "The solver successfully reached the end of the integration interval."))


def particle_loss_lindblad(rho: ResourceState, spec: LossSpec, t: float) -> LossResult:
    """Direct integration of the loss master equation.

    The generator preserves the direct sum over particle numbers: the
    anticommutator acts within each block, the jump term feeds block b from
    block b + m + n.  It is constant in time, so it is assembled once as a
    numpy CSR matrix (`_loss_generator`) and each right-hand side is one
    mat-vec.  Adaptive embedded Runge-Kutta (the module's `solve_ivp`, read
    at call time), no trace renormalization (trace drift is a diagnostic,
    not something to hide).
    """
    if t < 0.0:
        raise StateValidationError("time must be nonnegative")
    nu = rho.n_particles
    offsets = _block_offsets(nu)
    y = np.zeros(int(offsets[-1]), dtype=complex)
    y[offsets[nu] :] = rho.matrix.reshape(-1)
    if t > 0.0:
        generator = _loss_generator(spec, nu)

        def rhs(_t: float, yflat: np.ndarray) -> np.ndarray:
            return (generator @ yflat.view(complex)).view(float)

        sol = solve_ivp(rhs, (0.0, t), y.view(float), rtol=1e-10, atol=1e-12)
        if not sol.success:
            raise NumericalError(f"loss integrator failed: {sol.message}")
        y = sol.y[:, -1].copy().view(complex)
    blocks = [y[offsets[b] : offsets[b + 1]].reshape(b + 1, b + 1) for b in range(nu + 1)]
    surviving = blocks[nu]
    return LossResult(
        n_particles=nu,
        surviving_block=surviving,
        survival_weight=float(np.trace(surviving).real),
        lower_blocks=blocks[:nu],
    )


def apply(
    rho: ResourceState, spec: MixingSpec | DephasingSpec | LossSpec
) -> tuple[ResourceState | np.ndarray, float]:
    """(block, survival_weight) of one channel acting on the resource.

    Mixing and dephasing keep every particle: the block is the output
    state and the weight 1.  Loss gives the unnormalized surviving
    nu-particle block of `particle_loss_analytic` and its trace.  The band
    functionals read either form.  This dense path is the oracle of
    `band_scan`.
    """
    if isinstance(spec, MixingSpec):
        return mix(rho, spec), 1.0
    if isinstance(spec, DephasingSpec):
        return dephase(rho, spec), 1.0
    if isinstance(spec, LossSpec):
        res = particle_loss_analytic(rho, spec)
        return res.surviving_block, res.survival_weight
    raise StateValidationError(f"unknown noise channel {type(spec).__name__}")


# ---------------------------------------------------------------------------
# The band path: channels without a dense state
# ---------------------------------------------------------------------------

def band_scan(
    resource, spec: MixingSpec | DephasingSpec | LossSpec, N: int, values
) -> list[tuple[Band, float]]:
    """(band, survival_weight) of `apply`'s block at each time t in `values`
    (each weight s for mixing): the `Band` of width N the functionals read.

    `resource` is a normalized amplitude vector, `Diagonals`, a state, or,
    for dephasing, a `Band`.  Time and memory are O(nu N) at most, with no
    dense state:
    - dephasing scales diagonal d by w_d = exp(-t L d^2 / 2) > 0, so it
      scales both band sums of d by w_d;
    - loss scales the diagonals d <= N, rho_{k,k+d} -> e_k rho_{k,k+d} e_{k+d}
      with e = exp(-t eta), as `particle_loss_analytic` does the matrix;
    - mixing combines the diagonals d <= N of both states.
    What does not depend on t (or s) is done once per scan: the band that
    dephasing rescales and the loss rates eta.  The diagonals d <= N are
    read again at every point (one `diagonals()` pass per point for loss,
    one per state for mixing: 6 for a 3-point scan), so an amplitude
    vector's x_k conj(x_{k+d}) are recomputed each time; holding them
    would take (N+1) 16 nu bytes, 1 GB at nu = 1e6, N = 64.
    Each channel keeps a positive resource positive (a Schur product with a
    positive-definite Gaussian kernel, a congruence E rho E, a convex
    combination), so no result needs a certificate.
    """
    if not isinstance(spec, (DephasingSpec, MixingSpec, LossSpec)):
        raise StateValidationError(f"unknown noise channel {type(spec).__name__}")
    key = "s" if isinstance(spec, MixingSpec) else "t"
    # each value passes through the spec, which rejects a negative time or weight
    points = (getattr(replace(spec, **{key: float(v)}), key) for v in values)
    out = []
    if isinstance(spec, DephasingSpec):
        clean = band(resource, N)
        d2 = np.arange(len(clean.sums) + 1) ** 2
        for t in points:
            w = np.exp(-0.5 * t * spec.rate_sum * d2)[1:]  # as `dephase`'s kernel
            out.append((replace(clean, sums=clean.sums * w, moduli=clean.moduli * w), 1.0))
        return out
    nu, rho, _ = _reader(resource, N)
    if isinstance(spec, MixingSpec):
        sigma_nu, sigma, _ = _reader(spec.undesired, N)
        if sigma_nu != nu:
            raise StateValidationError("mixing requires matching particle numbers")
        for s in points:
            pairs = zip_longest(rho(), sigma(), fillvalue=0.0)
            out.append((band_of_diagonals(nu, ((r + s * q) / (1.0 + s) for r, q in pairs), N), 1.0))
        return out
    eta = eta_rates(spec, nu)
    for t in points:
        e = np.exp(-t * eta)
        lossy = band_of_diagonals(nu, (e[: nu + 1 - d] * u * e[d:] for d, u in enumerate(rho())), N)
        out.append((lossy, lossy.weight))
    return out


@dataclass
class BoundsReport:
    """Loss-channel fidelity trajectory against its exponential lower bound."""

    N: int
    times: list[float]
    fidelity: list[float]
    lower_bound: list[float]
    f_sep: float
    max_eta: float
    t_critical: float
    bound_satisfied: bool = field(init=False)

    def __post_init__(self):
        self.bound_satisfied = all(
            f >= b - 1e-12 for f, b in zip(self.fidelity, self.lower_bound))


def loss_floor(f0: float, max_eta: float, times) -> np.ndarray:
    """The bound exp(-2 t max_k eta_k) f(0) on the loss-channel fidelity at each time."""
    return np.exp(-2.0 * np.asarray(times) * max_eta) * f0


def loss_fidelity_bounds(
    rho, spec: LossSpec, N: int, n_times: int = 20
) -> BoundsReport:
    """f(t) over a time grid with the bound f(t) >= exp(-2 t max_k eta_k) f(0).

    `rho` is any resource `band_scan` reads: amplitudes, `Diagonals` or a state.

    Lower particle-number blocks never contribute to the fidelity (a state
    with the wrong particle number has zero overlap with the input), so f(t)
    is the band functional of the unnormalized surviving block, read from
    `band_scan` in O(nu N) per time with no dense block.  The critical
    time 2 t max eta = ln(f(0) (N+2)/2) bounds the window in which the
    evolved state still beats the separable baseline.
    """
    times = np.linspace(0.0, spec.t, n_times)
    # f(0) is the scan's own t = 0 row: exp(-0 * eta) is exactly 1
    scan = band_scan(rho, spec, N, [0.0, *times])
    max_eta = float(np.max(eta_rates(spec, scan[0][0].n_particles)))
    f0, *fid = (fidelity_closed(lossy, N) for lossy, _ in scan)
    bound = loss_floor(f0, max_eta, times).tolist()
    ratio = f0 * (N + 2) / 2.0
    if max_eta == 0.0:
        t_crit = math.inf
    elif ratio <= 1.0:
        t_crit = 0.0
    else:
        t_crit = math.log(ratio) / (2.0 * max_eta)
    return BoundsReport(
        N=N,
        times=times.tolist(),
        fidelity=fid,
        lower_bound=bound,
        f_sep=separable_fidelity(N),
        max_eta=max_eta,
        t_critical=t_crit,
    )


# ---------------------------------------------------------------------------
# Noisy convergence sweeps
# ---------------------------------------------------------------------------

def _is_factorized_gaussian(x: np.ndarray) -> bool:
    """True iff the amplitudes are real, positive and exp(c + a (k - nu/2)^2).

    Then x_k x_j = exp(2c + a ((k+j-nu)^2 + (k-j)^2) / 2): the entries have
    the form omega_plus(k+j) exp(-b (k-j)^2) that `noisy_convergence`
    predicts for.  Fits log x_k by least squares, O(nu).
    """
    x = np.asarray(x)
    if np.any(np.imag(x) != 0.0) or np.min(np.real(x)) <= 0.0:
        return False
    logs = np.log(np.real(x))
    k = np.arange(x.size)
    design = np.stack([np.ones_like(logs), (k - 0.5 * (x.size - 1)) ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    return float(np.max(np.abs(logs - design @ coef))) < 1e-6


def noisy_convergence(
    profile,
    noise: DephasingSpec | LossSpec,
    t_of_nu,
    N: int,
    nu_grid,
) -> ConvergenceReport:
    """Convergence of the fidelity for a noisy Gaussian resource family.

    The entrywise damping of dephasing (or of the two-particle loss set,
    after factoring out its (k+j)-dependent part) widens the factorized
    Gaussian exponent, alpha^2 -> alpha^2 + t L nu^2 / 8 (dephasing) or
    + t (l33 + l44 - l34) nu^2 / 16 (loss).  Asymptotically perfect
    teleportation survives iff the added term vanishes against the clean
    one, which the sweep checks empirically under the supplied t(nu).
    Its verdict also requires 1 - f < 0.5 at the last grid point.  A family
    whose amplitudes at the first grid point fail `_is_factorized_gaussian`
    is flagged "not-factorized-gaussian".  Each point applies the channel
    to the family's amplitudes on the band path (`band_scan`), O(nu N).
    """
    if not isinstance(profile, ContinuumProfile):
        raise StateValidationError("expected a ContinuumProfile family")
    if not isinstance(noise, (DephasingSpec, LossSpec)):
        raise UnsupportedRegimeError(
            f"noisy convergence needs a dephasing or loss channel, "
            f"got {type(noise).__name__}"
        )
    grid = _validate_grid(nu_grid)
    x = profile.amplitudes(grid[0])
    flags = [] if _is_factorized_gaussian(x) else ["not-factorized-gaussian"]

    one_minus_f = []
    survival = []
    for i, nu in enumerate(grid):
        if i:
            x = profile.amplitudes(nu)
        [(noisy, weight)] = band_scan(x, noise, N, [t_of_nu(nu)])
        one_minus_f.append(1.0 - fidelity_closed(noisy, N))
        survival.append(weight)
    one_minus_f = np.array(one_minus_f)
    xs = np.array([profile.alpha(nu) * N / nu for nu in grid])
    return convergence_report(
        grid, one_minus_f, xs, flags, {"survival_weight": survival},
        converges=_convergence_flags(one_minus_f) and one_minus_f[-1] < 0.5,
    )
