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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    NumericalError,
    StateValidationError,
    UnsupportedRegimeError,
)
from .fock import ResourceState
from .protocol import fidelity_closed, separable_fidelity


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingSpec:
    """Mix with `undesired` at weight s: rho -> (rho + s sigma) / (1 + s)."""

    undesired: ResourceState
    s: float

    def __post_init__(self):
        if self.s < 0.0:
            raise StateValidationError("mixing weight s must be nonnegative")


def mix(rho: ResourceState, spec: MixingSpec) -> ResourceState:
    if spec.undesired.n_particles != rho.n_particles:
        raise StateValidationError("mixing requires matching particle numbers")
    m = (rho.matrix + spec.s * spec.undesired.matrix) / (1.0 + spec.s)
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
    nu = rho.n_particles
    d = np.arange(nu + 1)
    w = np.exp(-0.5 * spec.t * spec.rate_sum * d ** 2)
    # Toeplitz view kernel[k, j] = w[|k - j|]: row r of the reversed windows
    # over (w_nu .. w_1, w_0 .. w_nu) starts at w_r
    kernel = sliding_window_view(np.concatenate((w[:0:-1], w)), nu + 1)[::-1]
    return ResourceState(nu, rho.matrix * kernel)


def four_coherence_state(
    a: float, b: float, c: float, d: float, x: float, y: float, nu: int
) -> ResourceState:
    """Four-level state with one nearest- and one third-neighbor coherence.

    Populations (a, b, c, d) on |k, nu-k>, k = 0..3, coherence x between
    k = 1, 2 and y between k = 0, 3; all other entries zero.  Positivity
    demands x^2 <= b c and y^2 <= a d.
    """
    if nu < 3:
        raise StateValidationError("need nu >= 3 to host the four-level block")
    if min(a, b, c, d) < 0.0 or abs(a + b + c + d - 1.0) > 1e-12:
        raise StateValidationError("populations must be nonnegative and sum to 1")
    if x * x > b * c + 1e-12 or y * y > a * d + 1e-12:
        raise StateValidationError("coherences violate positivity: need x^2<=bc, y^2<=ad")
    m = np.zeros((nu + 1, nu + 1), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = a, b, c, d
    m[1, 2] = m[2, 1] = x
    m[0, 3] = m[3, 0] = y
    return ResourceState(nu, m)


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
    confirmed by bisection on the evolved closed-form fidelity.  Requires
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
    rho0 = four_coherence_state(a, b, c, d, x, y, nu)
    f_sep = separable_fidelity(N)
    log_ratio = math.log(y * (N - 2)) - math.log(-x * N)
    if log_ratio <= 0.0:
        raise StateValidationError(
            "initial state does not outperform the separable baseline"
        )
    t_star = log_ratio / (4.0 * rate_sum)

    def gap(t: float) -> float:
        evolved = dephase(rho0, DephasingSpec(lambda3, lambda4, t))
        return fidelity_closed(evolved, N) - f_sep

    hi = 4.0 * t_star + 1.0
    t_bisect = float(brentq(gap, 0.0, hi, xtol=1e-13, rtol=1e-14))
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

    def entanglement_eligible_lower_weights(self, N: int) -> dict[int, float]:
        """Weights of lower blocks close enough in particle number to still
        carry final-state entanglement (nu - b < N); reported separately,
        never folded into the fixed-number performance functionals."""
        if self.lower_blocks is None:
            return {}
        return {
            b: float(np.trace(self.lower_blocks[b]).real)
            for b in range(len(self.lower_blocks))
            if self.n_particles - b < N
        }


def particle_loss_analytic(
    rho: ResourceState, spec: LossSpec, compute_lower: bool = False
) -> LossResult:
    """Closed-form surviving block of the loss evolution.

    Entries damp as exp(-t (eta_k + eta_j)); the weight remaining in the
    nu-particle sector is sum_k exp(-2 t eta_k) rho_{k,k}.  Lower blocks, when
    requested, come from the numerical integrator.
    """
    nu = rho.n_particles
    e = np.exp(-spec.t * eta_rates(spec, nu))
    surviving = e[:, None] * rho.matrix * e[None, :]
    weight = float(np.trace(surviving).real)
    lower = None
    if compute_lower:
        numeric = particle_loss_lindblad(rho, spec, spec.t)
        lower = numeric.lower_blocks
    return LossResult(nu, surviving, weight, lower)


def particle_loss_lindblad(
    rho: ResourceState, spec: LossSpec, t: float, dt: float | None = None
) -> LossResult:
    """Direct integration of the loss master equation.

    The generator preserves the direct sum over particle numbers: the
    anticommutator acts within each block, the jump term feeds block b from
    block b + m + n.  Adaptive embedded Runge-Kutta, no trace renormalization
    (trace drift is a diagnostic, not something to hide).  `dt` caps the step
    size when given.
    """
    if t < 0.0:
        raise StateValidationError("time must be nonnegative")
    if dt is not None and dt <= 0.0:
        raise StateValidationError("dt must be positive")
    nu = rho.n_particles
    dims = [b + 1 for b in range(nu + 1)]
    offsets = np.concatenate(([0], np.cumsum([d * d for d in dims])))
    size = int(offsets[-1])

    # per-block diagonal rates and per-(channel, source-block) jump amplitudes
    block_eta = [eta_rates(spec, b) for b in range(nu + 1)]
    jumps = []
    for ch in spec.channels:
        drop = ch.m + ch.n
        for src in range(drop, nu + 1):
            k = np.arange(ch.m, src - ch.n + 1)
            if k.size == 0:
                continue
            amp = np.sqrt(_falling(k, ch.m) * _falling(src - k, ch.n))
            jumps.append((ch.rate, src, src - drop, int(k[0]), amp))

    def unpack(yflat: np.ndarray) -> list[np.ndarray]:
        yc = yflat.view(complex)
        return [
            yc[offsets[b] : offsets[b + 1]].reshape(dims[b], dims[b])
            for b in range(nu + 1)
        ]

    def rhs(_t: float, yflat: np.ndarray) -> np.ndarray:
        blocks = unpack(yflat)
        out = [np.zeros_like(blk) for blk in blocks]
        for b in range(nu + 1):
            eta = block_eta[b]
            out[b] -= (eta[:, None] + eta[None, :]) * blocks[b]
        for rate, src, dst, k0, amp in jumps:
            sub = blocks[src][k0 : k0 + amp.size, k0 : k0 + amp.size]
            out[dst][: amp.size, : amp.size] += rate * np.outer(amp, amp) * sub
        return np.concatenate([o.reshape(-1) for o in out]).view(float)

    y0c = np.zeros(size, dtype=complex)
    y0c[offsets[nu] : offsets[nu + 1]] = rho.matrix.reshape(-1)
    y0 = y0c.view(float)
    if t == 0.0:
        blocks = unpack(y0)
    else:
        kwargs = {"max_step": dt} if dt is not None else {}
        sol = solve_ivp(
            rhs, (0.0, t), y0, method="RK45", rtol=1e-10, atol=1e-12, **kwargs
        )
        if not sol.success:
            raise NumericalError(f"loss integrator failed: {sol.message}")
        blocks = unpack(sol.y[:, -1].copy())
    surviving = blocks[nu]
    return LossResult(
        n_particles=nu,
        surviving_block=surviving,
        survival_weight=float(np.trace(surviving).real),
        lower_blocks=[blocks[b] for b in range(nu)],
    )


def apply(
    rho: ResourceState, spec: MixingSpec | DephasingSpec | LossSpec
) -> tuple[ResourceState | np.ndarray, float]:
    """(block, survival_weight) of one channel acting on the resource.

    Mixing and dephasing keep every particle: the block is the output
    state and the weight 1.  Loss gives the unnormalized surviving
    nu-particle block of `particle_loss_analytic` and its trace.  The band
    functionals read either form.
    """
    if isinstance(spec, MixingSpec):
        return mix(rho, spec), 1.0
    if isinstance(spec, DephasingSpec):
        return dephase(rho, spec), 1.0
    if isinstance(spec, LossSpec):
        res = particle_loss_analytic(rho, spec)
        return res.surviving_block, res.survival_weight
    raise StateValidationError(f"unknown noise channel {type(spec).__name__}")


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
    rho: ResourceState, spec: LossSpec, N: int, n_times: int = 20
) -> BoundsReport:
    """f(t) over a time grid with the bound f(t) >= exp(-2 t max_k eta_k) f(0).

    Lower particle-number blocks never contribute to the fidelity (a state
    with the wrong particle number has zero overlap with the input), so f(t)
    is the band functional of the unnormalized surviving block.  The critical
    time 2 t max eta = ln(f(0) (N+2)/2) bounds the window in which the
    evolved state still beats the separable baseline.
    """
    max_eta = float(np.max(eta_rates(spec, rho.n_particles)))
    f0 = fidelity_closed(rho, N)
    times = np.linspace(0.0, spec.t, n_times)
    fid = [fidelity_closed(apply(rho, replace(spec, t=float(t)))[0], N) for t in times]
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

def _is_factorized_gaussian(matrix: np.ndarray) -> bool:
    """True iff the entries have the form omega_plus(k+j) exp(-c (k-j)^2).

    Gaussian families are strictly positive everywhere, so sparse support
    already disqualifies; on full support, the log entries must be fit
    exactly by const + a (k+j-nu)^2 + b (k-j)^2.
    """
    nu = matrix.shape[0] - 1
    k = np.arange(nu + 1)
    kk, jj = np.meshgrid(k, k, indexing="ij")
    vals = matrix.real
    if np.min(vals) <= 0.0:
        return False
    mask = vals > np.max(vals) * 1e-120
    if np.count_nonzero(mask) < 0.7 * mask.size:
        return False
    logs = np.log(vals[mask])
    s2 = ((kk + jj - nu)[mask]) ** 2
    q2 = ((kk - jj)[mask]) ** 2
    design = np.stack([np.ones_like(logs), s2, q2], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = logs - design @ coef
    return float(np.max(np.abs(resid))) < 1e-6


def noisy_convergence(
    profile,
    noise: DephasingSpec | LossSpec,
    t_of_nu,
    N: int,
    nu_grid,
) -> "ConvergenceReport":
    """Convergence of the fidelity for a noisy Gaussian resource family.

    The entrywise damping of dephasing (or of the two-particle loss set,
    after factoring out its (k+j)-dependent part) widens the factorized
    Gaussian exponent, alpha^2 -> alpha^2 + t L nu^2 / 8 (dephasing) or
    + t (l33 + l44 - l34) nu^2 / 16 (loss).  Asymptotically perfect
    teleportation survives iff the added term vanishes against the clean
    one, which the sweep checks empirically under the supplied t(nu).
    Its verdict also requires 1 - f < 0.5 at the last grid point.
    """
    from .continuum import (
        ContinuumProfile, _convergence_flags, _validate_grid, convergence_report,
    )

    if not isinstance(profile, ContinuumProfile):
        raise StateValidationError("expected a ContinuumProfile family")
    if not isinstance(noise, (DephasingSpec, LossSpec)):
        raise UnsupportedRegimeError(
            f"noisy convergence needs a dephasing or loss channel, "
            f"got {type(noise).__name__}"
        )
    grid = _validate_grid(nu_grid)
    flags: list[str] = []

    probe = profile.to_resource(grid[0])
    if not _is_factorized_gaussian(probe.matrix):
        flags.append("not-factorized-gaussian")

    one_minus_f = []
    survival = []
    for nu in grid:
        block, weight = apply(profile.to_resource(nu), replace(noise, t=float(t_of_nu(nu))))
        one_minus_f.append(1.0 - fidelity_closed(block, N))
        survival.append(weight)
    one_minus_f = np.array(one_minus_f)
    xs = np.array([profile.alpha(nu) * N / nu for nu in grid])
    return convergence_report(
        grid, one_minus_f, xs, flags, {"survival_weight": survival},
        converges=_convergence_flags(one_minus_f) and one_minus_f[-1] < 0.5,
    )
