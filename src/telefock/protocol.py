"""Mode-teleportation protocol: measurement basis, conditional outcomes,
average teleported state, and closed-form performance functionals.

Conventions.  The input is a pure N-particle state on modes 1,2 and a
nu-particle resource on modes 3,4 with nu >= N.  A measurement outcome is a
pair (l, lam) with l in [-N, nu] the particle-transfer sector and
lam in [0, C_l - 1] a phase label; C_l is the sector multiplicity.  Sector l
involves input components k in [max(0, -l), min(N, nu - l)].

Every closed-form quantity here has an independent brute-force counterpart
(`teleport_outcome_dense`, the Monte-Carlo estimators) used by the test and
selftest suites; the closed forms are the fast production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import NumericalError, StateValidationError, UnsupportedRegimeError
from .fock import (
    Diagonals,
    PureTwoModeState,
    ResourceState,
    TwoModeDensityMatrix,
    _check_normalized,
    _haar_forms,
    _reader,
    sample_haar,
)

PROBABILITY_SUM_TOL = 1e-10
_DOT_BLOCK = 1 << 16  # pairs per BLAS dot in `_shifted_dots`, entries per Gram chunk
# Widths W = min(N, nu) whose lags of a float64 vector `_gram_lags` reads: from
# the measured crossover with the per-lag dots up to the cap that keeps its
# W x 2W block at 1 MB
_GRAM_WIDTHS = range(32, 257)


def multiplicity(N: int, nu: int, l: int) -> int:
    """Number of phase labels C_l in sector l (requires nu >= N)."""
    _check_regime(N, nu)
    if l < -N or l > nu:
        raise StateValidationError(f"sector l={l} outside [-{N}, {nu}]")
    if l <= 0:
        return N + l + 1
    if l <= nu - N:
        return N + 1
    return nu - l + 1


def sector_component_range(N: int, nu: int, l: int) -> tuple[int, int]:
    """Inclusive range [k_lo, k_hi] of input components entering sector l."""
    return max(0, -l), min(N, nu - l)


def _check_regime(N: int, nu: int) -> None:
    if N < 1:
        raise UnsupportedRegimeError(f"need at least one input particle, got N={N}")
    if nu < N:
        raise UnsupportedRegimeError(
            f"resource with nu={nu} < N={N} particles is not supported: "
            "the sector multiplicity table assumes nu >= N"
        )


@dataclass(frozen=True)
class MeasurementBasis:
    """Complete projective measurement on modes 2,3 indexed by (l, lam)."""

    N: int
    nu: int

    @property
    def outcomes(self) -> list[tuple[int, int]]:
        return [
            (l, lam)
            for l in range(-self.N, self.nu + 1)
            for lam in range(multiplicity(self.N, self.nu, l))
        ]

    def amplitudes(self, l: int, lam: int) -> tuple[int, np.ndarray]:
        """(k_lo, phases) with phases[i] the <N-(k_lo+i)|_2 <k_lo+i+l|_3 component."""
        c_l = multiplicity(self.N, self.nu, l)
        if not 0 <= lam < c_l:
            raise StateValidationError(f"phase label lam={lam} outside [0, {c_l - 1}]")
        k_lo, k_hi = sector_component_range(self.N, self.nu, l)
        k = np.arange(k_lo, k_hi + 1)
        return k_lo, np.exp(2j * np.pi * lam * k / c_l) / np.sqrt(c_l)

    def vector(self, l: int, lam: int) -> np.ndarray:
        """Basis vector flattened over (mode-2 occupation) x (mode-3 occupation)."""
        k_lo, phases = self.amplitudes(l, lam)
        k = k_lo + np.arange(phases.size)
        v = np.zeros((self.N + 1) * (self.nu + 1), dtype=complex)
        v[(self.N - k) * (self.nu + 1) + (k + l)] = phases
        return v

    def completeness_operator(self) -> np.ndarray:
        """Sum of all projectors on the joint mode-2,3 space."""
        d = (self.N + 1) * (self.nu + 1)
        acc = np.zeros((d, d), dtype=complex)
        for l, lam in self.outcomes:
            v = self.vector(l, lam)
            acc += np.outer(v, v.conj())
        return acc


def build_basis(N: int, nu: int) -> MeasurementBasis:
    _check_regime(N, nu)
    return MeasurementBasis(N, nu)


def bob_isometry(l: int, lam: int, N: int, nu: int) -> np.ndarray:
    """Receiver's conditional operation on mode 4 for outcome (l, lam).

    Maps |nu-k-l> to exp(2 pi i lam k / C_l) |N-k> for k in the sector range;
    an isometry on its support, represented on the full (nu+1)-dimensional
    mode-4 occupation space.
    """
    c_l = multiplicity(N, nu, l)
    if not 0 <= lam < c_l:
        raise StateValidationError(f"phase label lam={lam} outside [0, {c_l - 1}]")
    k_lo, k_hi = sector_component_range(N, nu, l)
    v = np.zeros((nu + 1, nu + 1), dtype=complex)
    for k in range(k_lo, k_hi + 1):
        v[N - k, nu - k - l] = np.exp(2j * np.pi * lam * k / c_l)
    return v


@dataclass(frozen=True)
class TeleportOutcome:
    """One measurement record: labels, probability, and the conditional state.

    `state` is None for outcomes of exactly zero probability, where the
    normalized conditional state is undefined.
    """

    l: int
    lam: int
    probability: float
    state: TwoModeDensityMatrix | None


def teleport_outcome(
    psi: PureTwoModeState, rho: ResourceState | Diagonals | np.ndarray, l: int, lam: int
) -> TeleportOutcome:
    """Conditional teleported state on modes 1,4 for outcome (l, lam).

    Closed form: the unnormalized state is
    sum_{k,j} rho[k+l, j+l] c_k conj(c_j) / C_l |k><j| (x) |N-k><N-j|
    over the sector's component range, and the probability is its trace.
    Neither depends on lam.  `rho` is a state, `Diagonals` or a normalized
    amplitude vector; only the sector's block is read.
    """
    nu, _, block = _reader(rho, psi.n_particles)
    c_l = multiplicity(psi.n_particles, nu, l)
    if not 0 <= lam < c_l:
        raise StateValidationError(f"phase label lam={lam} outside [0, {c_l - 1}]")
    return TeleportOutcome(l, lam, *_sector_outcome(psi, block, nu, l))


def _sector_outcome(psi: PureTwoModeState, block, nu: int, l: int):
    """(probability, certified state or None) of every outcome of sector l."""
    N = psi.n_particles
    c_l = multiplicity(N, nu, l)
    k_lo, k_hi = sector_component_range(N, nu, l)
    c = psi.amplitudes[k_lo : k_hi + 1]
    unnorm = np.outer(c, c.conj()) * block(k_lo + l, k_hi + l) / c_l
    p = max(float(np.trace(unnorm).real), 0.0)
    if p == 0.0:
        return 0.0, None
    full = np.zeros((N + 1, N + 1), dtype=complex)
    full[k_lo : k_hi + 1, k_lo : k_hi + 1] = unnorm / p
    return p, TwoModeDensityMatrix(N, full)


def iter_outcomes(psi: PureTwoModeState, rho: ResourceState | Diagonals | np.ndarray):
    """All teleport outcomes, ordered by (l, lam), of any form `teleport_outcome`
    reads.  The C_l outcomes of sector l share one state, certified once."""
    N = psi.n_particles
    nu, _, block = _reader(rho, N)
    for l in range(-N, nu + 1):
        p, state = _sector_outcome(psi, block, nu, l)
        for lam in range(multiplicity(N, nu, l)):
            yield TeleportOutcome(l, lam, p, state)


def average_teleported(
    psi: PureTwoModeState, rho: ResourceState | Diagonals | np.ndarray, method: str = "closed"
) -> TwoModeDensityMatrix:
    """Outcome-averaged teleported state on modes 1,4.

    `rho` is any form `iter_outcomes` reads.  method="closed" evaluates the
    double sum directly: entry (k, j) is c_k conj(c_j) times the full trace
    of the resource's (k-j)-offset diagonal.  method="outcomes" accumulates
    p * state over all measurement records.  The two agree to 1e-12 and the
    agreement is a standing regression test.
    """
    N = psi.n_particles
    nu, diagonals, _ = _reader(rho, N)
    _check_regime(N, nu)
    if method == "closed":
        c = psi.amplitudes
        upper = np.zeros(N + 1, dtype=complex)
        for d, u in enumerate(diagonals()):
            upper[d] = np.sum(u)
        # offset k - j = -N..N: the upper diagonals above, their conjugates below
        traces = np.concatenate((upper[:0:-1], upper[:1], upper[1:].conj()))
        k = np.arange(N + 1)
        return TwoModeDensityMatrix(N, np.outer(c, c.conj()) * traces[k[:, None] - k + N])
    if method == "outcomes":
        acc = np.zeros((N + 1, N + 1), dtype=complex)
        for outcome in iter_outcomes(psi, rho):
            if outcome.state is not None:
                acc += outcome.probability * outcome.state.matrix
        return TwoModeDensityMatrix(N, acc)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class Band:
    """What the functionals read of a resource's band 0 < |k-j| <= N.

    `weight` is the trace; for d = 1..min(N, nu), sums[d-1] is
    sum_k (rho_{k,k+d} + rho_{k+d,k}) and moduli[d-1] the same sum over
    |rho_{k,j}|.  `band` makes one from any resource form.  A channel that
    scales diagonal d by a positive factor scales both entries the same
    way, so the band noise path (`noise.band_scan`) can act on these 2N
    numbers.
    """

    n_particles: int
    weight: float
    sums: np.ndarray
    moduli: np.ndarray


def band(rho, N: int) -> Band:
    """The `Band` (width N) of a resource, read in one pass; all functionals read it.

    An amplitude vector x (rho_{k,j} = x_k conj(x_j), weight 1, checked
    normalized to `fock.NORM_TOL`) takes N shifted dot products of x for the
    sums and N of |x| for the moduli: O(nu N) time, O(nu) memory, real
    arithmetic for real amplitudes.  When x is real and nonnegative, |x| is
    x, so the moduli are the sums and the second N products are skipped.  A
    `Band` is cut to width N once it is checked to hold that many
    diagonals.  A state, a raw coefficient matrix (Hermitian to
    `fock.NORM_TOL`, checked where it enters) or `Diagonals` goes diagonal
    by diagonal through `band_of_diagonals`.
    """
    if isinstance(rho, Band):
        nu = rho.n_particles
        _check_regime(N, nu)
        width = min(N, nu)
        if len(rho.sums) < width:
            raise StateValidationError(f"band holds {len(rho.sums)} diagonals, N={N} reads {width}")
        return Band(nu, rho.weight, rho.sums[:width], rho.moduli[:width])
    if isinstance(rho, (Diagonals, TwoModeDensityMatrix)) or np.ndim(rho) != 1:
        nu, diagonals, _ = _reader(rho, N)
        return band_of_diagonals(nu, diagonals(), N)
    x = _check_normalized(rho)
    sums = np.array(_shifted_dots(x, N))
    nonnegative = np.isrealobj(x) and x.min() >= 0
    moduli = sums if nonnegative else np.array(_shifted_dots(np.abs(x), N))
    return Band(x.shape[0] - 1, 1.0, sums, moduli)


def band_of_diagonals(nu: int, upper, N: int) -> Band:
    """The `Band` (width N) of the Hermitian matrix whose upper diagonals
    d = 0, 1, ... are the arrays `upper` yields; the rest are zero.

    Reads them in one pass and stops after d = min(N, nu), so a caller can
    make them one at a time.  The lower diagonal is the conjugate: each
    pair sums to twice the real part.
    """
    _check_regime(N, nu)
    width = min(N, nu)
    weight, sums, moduli = 0.0, np.zeros(width), np.zeros(width)
    for d, u in enumerate(upper):
        # np.add.reduce is the reduction np.sum runs, without its dispatch
        if d == 0:
            weight = float(np.add.reduce(u).real)
        else:
            sums[d - 1] = 2.0 * float(np.add.reduce(u).real)
            moduli[d - 1] = 2.0 * float(np.add.reduce(np.abs(u)))
        if d == width:
            break
    return Band(nu, weight, sums, moduli)


def phased_band(x, c: float, N: int) -> Band:
    """The `Band` (width N) of the amplitudes x_k e^{i c k}, read from the
    real vector x, or from the `Band` of one, without forming them.

    The phase is a local unitary on one mode: it multiplies rho_{k,k+d} by
    e^{-i c d}, so it scales the band sum of diagonal d by cos(c d) and
    leaves the moduli as they are.  This is `band(x, N)` with its sums
    replaced by a new array (for a nonnegative x the sums are the moduli).
    c = pi, the alternating sign (-1)^k, scales by exactly +-1.  A complex
    x would need the imaginary parts of its sums, which `Band` does not
    hold, so it is rejected: form its phased vector and read that instead.
    """
    if not isinstance(x, Band) and (np.iscomplexobj(x) or np.ndim(x) != 1):
        raise StateValidationError("a phase goes on the band of a real amplitude vector only")
    b = band(x, N)
    return replace(b, sums=b.sums * np.cos(c * np.arange(1, b.sums.size + 1)))


def _shifted_dots(x: np.ndarray, N: int) -> list[float]:
    """2 Re sum_k conj(x_k) x_{k+d} for d = 1..min(N, nu): the band sums of
    the pure state with amplitudes x (its moduli when x is |x|).

    A float64 x whose width min(N, nu) lies in _GRAM_WIDTHS reads all lags
    at once (`_gram_lags`).  Otherwise a lag of at most _DOT_BLOCK pairs is
    one BLAS dot, and a longer one is one dot per block of _DOT_BLOCK pairs.
    Either way a lag's block sums are added exactly (`math.fsum`), so its
    rounding error does not grow with nu.  The path depends on (nu, N) and
    the dtype alone.
    """
    nu = x.shape[0] - 1
    _check_regime(N, nu)
    width = min(N, nu)
    if x.dtype == np.float64 and width in _GRAM_WIDTHS:
        return _gram_lags(x, width)
    dots = []
    for d in range(1, width + 1):
        head, tail = x[:-d], x[d:]
        if head.shape[0] <= _DOT_BLOCK:
            dots.append(2.0 * float(np.vdot(head, tail).real))
        else:
            dots.append(2.0 * math.fsum(
                np.vdot(head[i : i + _DOT_BLOCK], tail[i : i + _DOT_BLOCK]).real
                for i in range(0, head.shape[0], _DOT_BLOCK)))
    return dots


def _gram_lags(x: np.ndarray, L: int) -> list[float]:
    """2 sum_k x_k x_{k+d} for d = 1..L of a real vector x, from two Gram
    products per block: BLAS-3, reading x once.

    Viewed as rows of L entries, a chunk of C = _DOT_BLOCK // L rows A and
    the same rows one later, B, give H = [A^T A | A^T B] (L x 2L), and the
    chunk's lag d is sum_a H[a, a+d]: a pair (k, k+d) lies in one row or in
    a row and the next.  Chunks are views of x; only the ragged tail (fewer
    than C L + L entries) is copied, zero-padded so that pairs past the end
    add 0.  The chunks of a lag are added exactly (`math.fsum`), as the
    per-lag dots add their blocks.
    """
    C = _DOT_BLOCK // L
    rows = x.shape[0] // L
    grid = x[: rows * L].reshape(rows, L)
    h = np.empty((L, 2 * L))
    # lag d of the chunk: the diagonal H[a, a+d], a = 0..L-1, as row d-1
    lags = as_strided(h[0, 1:], shape=(L, L), strides=(h.itemsize, (2 * L + 1) * h.itemsize),
                      writeable=False)

    def chunk(a: np.ndarray, b: np.ndarray) -> list[float]:
        np.matmul(a.T, a, out=h[:, :L])
        np.matmul(a.T, b, out=h[:, L:])
        return np.add.reduce(lags, axis=1).tolist()

    full = (rows - 1) // C  # chunks whose rows and the row after them are in x
    parts = [chunk(grid[i : i + C], grid[i + 1 : i + C + 1]) for i in range(0, full * C, C)]
    start = full * C * L
    tail_rows = -(-(x.shape[0] - start) // L)
    tail = np.zeros((tail_rows + 1, L))
    tail.reshape(-1)[: x.shape[0] - start] = x[start:]
    parts.append(chunk(tail[:-1], tail[1:]))
    return [2.0 * math.fsum(lag) for lag in zip(*parts)]


def _band_total(values, N: int) -> float:
    """sum_{d=1..} (N+1-d) values[d-1], added in order of d."""
    total = 0.0
    for d, v in enumerate(values, 1):
        total += (N + 1 - d) * v
    return float(total)


def fidelity_closed(rho: ResourceState | np.ndarray | Diagonals | Band, N: int) -> float:
    """Haar-averaged teleportation fidelity of the resource state.

    f = 2/(N+2) + sum_{k != j} max(0, N+1-|k-j|) rho_{k,j} / ((N+1)(N+2)),
    evaluated on the resource's `band` only, so the cost is O(nu N), plus
    the O(nu^2) Hermiticity check of a raw matrix.  A raw (possibly
    subnormalized, but Hermitian) coefficient matrix, `Diagonals` or a
    `Band` weights the constant term by its trace.
    """
    b = band(rho, N)
    f = 2.0 * b.weight / (N + 2) + _band_total(b.sums, N) / ((N + 1) * (N + 2))
    if not -1e-10 <= f <= b.weight + 1e-10:
        raise StateValidationError(f"fidelity {f!r} outside [0, {b.weight}]")
    return float(min(max(f, 0.0), b.weight))


def avg_entanglement_closed(rho: ResourceState | np.ndarray | Diagonals | Band, N: int) -> float:
    """Haar- and outcome-averaged negativity of the teleported state.

    E = (pi/8) sum_{k != j} max(0, N+1-|k-j|) |rho_{k,j}| / (N+1),
    bounded by pi N / 8, evaluated on the resource's `band`.
    """
    e = (np.pi / 8.0) * _band_total(band(rho, N).moduli, N) / (N + 1)
    upper = np.pi * N / 8.0
    if not -1e-10 <= e <= upper + 1e-8:
        raise StateValidationError(f"entanglement {e!r} outside [0, {upper}]")
    return float(min(max(e, 0.0), upper))


# the names sweep rows and continuum profiles call; `performance_report` looks
# `fidelity_closed_pure` up at each call, so rebinding it shifts every sweep row
fidelity_closed_pure = fidelity_closed
avg_entanglement_closed_pure = avg_entanglement_closed


def separable_fidelity(N: int) -> float:
    """Baseline fidelity 2/(N+2) achieved by every separable resource."""
    return 2.0 / (N + 2)


def max_avg_entanglement(N: int) -> float:
    """Upper bound pi N / 8 on the average final entanglement."""
    return np.pi * N / 8.0


@dataclass(frozen=True)
class PerformanceReport:
    """Closed-form performance summary for one (resource, N) pair.

    `triangle_slack` is 8E/pi - (N+2)f + 2, nonnegative for every valid
    resource, as `performance_report` reads it from the band; the report
    checks the difference itself, so a fidelity or entanglement that breaks
    the inequality raises.
    """

    N: int
    fidelity: float
    avg_entanglement: float
    f_sep: float
    e_max: float
    triangle_slack: float

    def __post_init__(self):
        slack = 8.0 * self.avg_entanglement / np.pi - (self.N + 2) * self.fidelity + 2.0
        if slack < -PROBABILITY_SUM_TOL:
            raise NumericalError(f"triangle inequality violated: slack = {slack:g}")


def performance_report(rho: ResourceState | np.ndarray | Diagonals, N: int) -> PerformanceReport:
    """Fidelity, averaged final entanglement, their baselines and the
    triangle slack.

    Every form is read once: its `band` goes to `fidelity_closed_pure` and
    `avg_entanglement_closed`, which give bit for bit what each closed
    functional gives on the form itself.  The slack is read from the band
    as sum_d (N+1-d)(moduli_d - sums_d)/(N+1) + 2(1 - weight): each term is
    nonnegative, and it is exactly 0 where the moduli are the sums.
    """
    b = band(rho, N)
    return PerformanceReport(
        N=N,
        fidelity=fidelity_closed_pure(b, N),
        avg_entanglement=avg_entanglement_closed(b, N),
        f_sep=separable_fidelity(N),
        e_max=max_avg_entanglement(N),
        triangle_slack=_band_total(b.moduli - b.sums, N) / (N + 1) + 2.0 * (1.0 - b.weight),
    )


def success_probability_perfect(
    rho: ResourceState | Diagonals | np.ndarray, N: int, psi: PureTwoModeState | None = None,
    rng_seed: int = 0,
) -> float:
    """Total probability of the perfectly-teleporting sectors 0 <= l <= nu-N.

    Outcome probabilities do not depend on the phase label, so each sector
    contributes sum_k |c_k|^2 rho_{k+l,k+l}, and the total is
    sum_k |c_k|^2 sum_{l=0}^{nu-N} rho_{k+l,k+l}: O(nu N), read from the
    populations of a state, `Diagonals` or amplitudes.  For the
    uniform-superposition (maximally entangled) resource this equals
    (nu - N + 1)/(nu + 1) independently of the input state; `psi` defaults to
    a Haar sample so the independence is exercised by varying the seed.
    """
    nu, diagonals, _ = _reader(rho, 0)
    _check_regime(N, nu)
    if psi is None:
        psi = sample_haar(N, rng_seed)
    windows = sliding_window_view(next(diagonals()).real, nu - N + 1)
    return float(np.abs(psi.amplitudes) ** 2 @ windows.sum(axis=1))


# ---------------------------------------------------------------------------
# Brute-force oracle: explicit four-mode tensor contraction
# ---------------------------------------------------------------------------

def _four_mode_factors(psi: PureTwoModeState, rho: ResourceState) -> tuple[np.ndarray, np.ndarray]:
    """The factors of |psi><psi| (x) rho over modes (1,2,3,4): psi as the
    (N+1) x (N+1) matrix psi[n1, n2] of modes 1,2, and rho as the
    (nu+1)^4 tensor rho[n3, n4, n3', n4'] of modes 3,4."""
    N, nu = psi.n_particles, rho.n_particles
    k, m = np.arange(N + 1), np.arange(nu + 1)
    psi12 = np.zeros((N + 1, N + 1), dtype=complex)
    psi12[k, N - k] = psi.amplitudes
    rho34 = np.zeros((nu + 1,) * 4, dtype=complex)
    rho34[m[:, None], nu - m[:, None], m, nu - m] = rho.matrix
    return psi12, rho34


def teleport_outcome_dense(
    psi: PureTwoModeState,
    rho: ResourceState,
    l: int,
    lam: int,
    apply_correction: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Outcome (l, lam) by projecting |psi><psi| (x) rho with
    1 (x) P_23 (x) V_4 (V_4 = identity when `apply_correction` is False) and
    tracing out modes 2,3, without the Kronecker product: <phi| goes into
    psi's mode 2, that into the (nu+1)^4 rho tensor, then V_4.  Returns
    (probability, normalized matrix over the joint mode-1 x mode-4
    occupation space), the matrix None at zero probability.  It reads no
    band sum or sector block: the independent check of `teleport_outcome`.
    """
    N, nu = psi.n_particles, rho.n_particles
    d1, d4 = N + 1, nu + 1
    phi = build_basis(N, nu).vector(l, lam).reshape(N + 1, nu + 1)
    v4 = bob_isometry(l, lam, N, nu) if apply_correction else np.eye(d4, dtype=complex)

    psi12, rho34 = _four_mode_factors(psi, rho)
    x = psi12 @ phi.conj()  # x[n1, n3] = sum_n2 psi[n1, n2] conj(phi[n2, n3])
    # rows contract with x, columns with conj(x), then V_4 on both sides
    a = np.einsum("ac,cdef,be->adbf", x, rho34, x.conj(), optimize=True)
    r = np.einsum("pd,adbf,qf->apbq", v4, a, v4.conj(), optimize=True)
    mat = r.reshape(d1 * d4, d1 * d4)
    p = float(np.trace(mat).real)
    if p <= 0.0:
        return max(p, 0.0), None
    return p, mat / p


def two_mode_sector(joint: np.ndarray, N: int, nu: int) -> tuple[np.ndarray, float]:
    """Project a joint mode-1,4 matrix onto the N-particle sector |k, N-k>.

    Returns the (N+1) x (N+1) sector matrix and the Frobenius norm of
    everything outside the sector (zero for corrected teleport outcomes).
    """
    d4 = nu + 1
    idx = np.array([k * d4 + (N - k) for k in range(N + 1)])
    sector = joint[np.ix_(idx, idx)]
    rest = joint.copy()
    rest[np.ix_(idx, idx)] = 0.0
    return sector, float(np.linalg.norm(rest))


# ---------------------------------------------------------------------------
# Monte-Carlo estimators over Haar-random inputs
# ---------------------------------------------------------------------------

def _sector_kernel(rho: ResourceState, N: int, moduli: bool) -> np.ndarray:
    """Sum of the sector blocks of rho, each placed at its input components:
    the real parts, or the moduli off the diagonal.  The per-input outcome
    sum over sectors is then one quadratic form in this kernel."""
    nu, _, block = _reader(rho, N)
    _check_regime(N, nu)
    kernel = np.zeros((N + 1, N + 1))
    for l in range(-N, nu + 1):
        k_lo, k_hi = sector_component_range(N, nu, l)
        b = block(k_lo + l, k_hi + l)
        kernel[k_lo : k_hi + 1, k_lo : k_hi + 1] += np.abs(b) if moduli else b.real
    if moduli:
        np.fill_diagonal(kernel, 0.0)
    return kernel


def _estimate(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(values.size))


def fidelity_monte_carlo(
    rho: ResourceState, N: int, samples: int = 100_000, rng_seed: int = 0
) -> tuple[float, float]:
    """(mean, standard error) of the per-input teleportation overlap.

    Averages <psi| T[|psi><psi|] |psi> over Haar samples: a quadratic form in
    the populations |c_k|^2 with the kernel summed over sector blocks;
    independent of the closed-form band sum.
    """
    kernel = _sector_kernel(rho, N, moduli=False)
    return _estimate(_haar_forms(N, samples, rng_seed, kernel, moduli=False))


def entanglement_monte_carlo(
    rho: ResourceState, N: int, samples: int = 100_000, rng_seed: int = 0
) -> tuple[float, float]:
    """(mean, standard error) of the outcome-averaged conditional negativity."""
    kernel = _sector_kernel(rho, N, moduli=True)
    return _estimate(0.5 * _haar_forms(N, samples, rng_seed, kernel, moduli=True))


def pure_negativity_monte_carlo(
    N: int, samples: int = 100_000, rng_seed: int = 0
) -> tuple[float, float]:
    """(mean, standard error) of the negativity of Haar-random pure states,
    ((sum_k |c_k|)^2 - 1) / 2.

    The Haar integral of the pure-state negativity equals pi N / 8.
    """
    squared_sums = _haar_forms(N, samples, rng_seed, np.ones((N + 1, N + 1)), moduli=True)
    return _estimate((squared_sums - 1.0) / 2.0)
