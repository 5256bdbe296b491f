"""Shared test utilities: random state generators and small oracles."""

import numpy as np

from telefock.errors import StateValidationError
from telefock.fock import (
    Diagonals, PureTwoModeState, ResourceState, TwoModeDensityMatrix, haar_amplitude_batch,
)
from telefock.protocol import (
    Band, TeleportOutcome, _check_regime, bob_isometry, build_basis, multiplicity,
    sector_component_range,
)

# one spec per resource name `cli.resolve_resource` knows, and both phase kinds
CLI_RESOURCES = [
    {"name": "max_entangled"},
    {"name": "max_entangled", "phases": {"kind": "alternating"}},
    {"name": "max_entangled", "phases": {"kind": "linear", "coefficient": 0.7}},
    {"name": "noon"},
    {"name": "fock_separable", "k": 2},
    {"name": "gaussian", "beta": 0.5},
    {"name": "su2_coherent", "theta": 1.1, "phi": 0.4},
    {"name": "double_well", "gamma": 3.0},
    {"name": "four_coherence", "a": 0.35, "b": 0.15, "c": 0.15, "d": 0.35, "x": -0.1, "y": 0.3},
]


def resource_id(spec: dict) -> str:
    phases = spec.get("phases")
    return spec["name"] + (f"-{phases['kind']}" if phases else "")


def random_resource(nu: int, rng: np.random.Generator) -> ResourceState:
    """Random full-rank density matrix from a Ginibre draw."""
    g = rng.standard_normal((nu + 1, nu + 1)) + 1j * rng.standard_normal((nu + 1, nu + 1))
    m = g @ g.conj().T
    return ResourceState(nu, m / np.trace(m))


def random_pure_resource(nu: int, rng: np.random.Generator) -> ResourceState:
    return ResourceState.from_amplitudes(haar_amplitude_batch(nu, 1, rng)[0])


def random_input(N: int, rng: np.random.Generator) -> PureTwoModeState:
    return PureTwoModeState(N, haar_amplitude_batch(N, 1, rng)[0])


def reference_teleport_outcome(psi, rho: ResourceState, l: int, lam: int) -> TeleportOutcome:
    """Outcome (l, lam) from a dense resource, one outcome at a time: the
    conditional state sliced from rho.matrix and certified per outcome."""
    N, nu = psi.n_particles, rho.n_particles
    c_l = multiplicity(N, nu, l)
    assert 0 <= lam < c_l
    k_lo, k_hi = sector_component_range(N, nu, l)
    c = psi.amplitudes[k_lo : k_hi + 1]
    block = rho.matrix[k_lo + l : k_hi + l + 1, k_lo + l : k_hi + l + 1]
    unnorm = np.outer(c, c.conj()) * block / c_l
    p = max(float(np.trace(unnorm).real), 0.0)
    if p == 0.0:
        return TeleportOutcome(l, lam, 0.0, None)
    full = np.zeros((N + 1, N + 1), dtype=complex)
    full[k_lo : k_hi + 1, k_lo : k_hi + 1] = unnorm / p
    return TeleportOutcome(l, lam, p, TwoModeDensityMatrix(N, full))


def reference_occupation_peaks(w: np.ndarray, z: np.ndarray) -> list:
    """Local maxima of the populations w at or above a fifth of their maximum,
    level by level, as imbalances z in increasing order.  A run of equal
    levels above both its neighbours is one peak, at the mean of its first
    and last z (z itself for a run of one level)."""
    floor = 0.2 * np.max(w)
    nu = w.size - 1
    peaks = []
    i = 0
    while i < w.size:
        j = i
        while j + 1 < w.size and w[j + 1] == w[i]:
            j += 1
        left = w[i - 1] if i > 0 else -np.inf
        right = w[j + 1] if j < nu else -np.inf
        if w[i] > left and w[i] > right and w[i] >= floor:
            peaks.append(float((z[i] + z[j]) / 2.0))
        i = j + 1
    return sorted(peaks)


def reference_outcome_dense(psi, rho: ResourceState, l: int, lam: int,
                            apply_correction: bool = True):
    """`teleport_outcome_dense` the way it first was: |psi><psi| (x) rho built
    as one dense matrix over modes (1,2,3,4) with `np.kron`, its mode-3,4
    factor filled entry by entry, then sandwiched with 1 (x) P_23 (x) V_4 and
    traced over modes 2,3.  (probability, normalized joint mode-1,4 matrix or
    None); memory grows as (N+1)^4 (nu+1)^4, so nu <= 3 or so."""
    N, nu = psi.n_particles, rho.n_particles
    d1 = d2 = N + 1
    d3 = d4 = nu + 1
    phi = build_basis(N, nu).vector(l, lam)
    v4 = bob_isometry(l, lam, N, nu) if apply_correction else np.eye(d4, dtype=complex)
    vec12 = np.zeros(d1 * d2, dtype=complex)
    for k in range(N + 1):
        vec12[k * d2 + (N - k)] = psi.amplitudes[k]
    rho34 = np.zeros((d3 * d4, d3 * d4), dtype=complex)
    for m in range(nu + 1):
        for mp in range(nu + 1):
            rho34[m * d4 + (nu - m), mp * d4 + (nu - mp)] = rho.matrix[m, mp]
    t = np.kron(np.outer(vec12, vec12.conj()), rho34).reshape(d1, d2 * d3, d4, d1, d2 * d3, d4)
    a = np.einsum("m,amcbnd,n->acbd", phi.conj(), t, phi, optimize=True)
    r = np.einsum("pc,acbd,qd->apbq", v4, a, v4.conj(), optimize=True)
    mat = r.reshape(d1 * d4, d1 * d4)
    p = float(np.trace(mat).real)
    if p <= 0.0:
        return max(p, 0.0), None
    return p, mat / p


def reference_monte_carlo(kind: str, rho, N: int, samples: int, rng_seed: int):
    """Per-sector estimator over complex Haar amplitudes: for each sector l,
    one 3-operand contraction of the sample's |c_k|^2 (fidelity) or |c_k|
    (entanglement, off-diagonal moduli) with the block rho[k+l, j+l];
    `kind` "negativity" gives the pure-state negativity of the samples."""
    amps = haar_amplitude_batch(N, samples, np.random.default_rng(rng_seed))
    if kind == "negativity":
        values = (np.sum(np.abs(amps), axis=1) ** 2 - 1.0) / 2.0
    else:
        nu = rho.n_particles
        p = np.abs(amps) ** 2 if kind == "fidelity" else np.abs(amps)
        values = np.zeros(samples)
        for l in range(-N, nu + 1):
            k_lo, k_hi = max(0, -l), min(N, nu - l)
            block = rho.matrix[k_lo + l : k_hi + l + 1, k_lo + l : k_hi + l + 1]
            sub = p[:, k_lo : k_hi + 1]
            if kind == "fidelity":
                values += np.einsum("sk,kj,sj->s", sub, block.real, sub)
            else:
                absb = np.abs(block)
                np.fill_diagonal(absb, 0.0)
                values += 0.5 * np.einsum("sk,kj,sj->s", sub, absb, sub)
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(samples))


def _falling(x: np.ndarray, m: int) -> np.ndarray:
    out = np.ones(x.shape)
    for i in range(m):
        out *= np.maximum(x - i, 0)
    return out


def reference_loss_rhs(spec, nu: int, blocks: list) -> list:
    """The loss master equation's right-hand side block by block: each
    b-particle block damps at eta_k + eta_j, and each channel a_3^m a_4^n
    feeds block b - m - n from block b."""
    block_eta = [
        sum(0.5 * ch.rate * _falling(np.arange(b + 1), ch.m) * _falling(b - np.arange(b + 1), ch.n)
            for ch in spec.channels)
        for b in range(nu + 1)
    ]
    out = [-(eta[:, None] + eta[None, :]) * blk for eta, blk in zip(block_eta, blocks)]
    for ch in spec.channels:
        drop = ch.m + ch.n
        for src in range(drop, nu + 1):
            k = np.arange(ch.m, src - ch.n + 1)
            amp = np.sqrt(_falling(k, ch.m) * _falling(src - k, ch.n))
            sub = blocks[src][ch.m : ch.m + amp.size, ch.m : ch.m + amp.size]
            out[src - drop][: amp.size, : amp.size] += ch.rate * np.outer(amp, amp) * sub
    return out


def reference_band_of_diagonals(nu: int, upper, N: int) -> Band:
    """The `Band` of the upper diagonals `upper`, summed with np.sum."""
    _check_regime(N, nu)
    width = min(N, nu)
    weight, sums, moduli = 0.0, np.zeros(width), np.zeros(width)
    for d, u in enumerate(upper):
        if d == 0:
            weight = float(np.sum(u).real)
        else:
            sums[d - 1] = 2.0 * float(np.sum(u).real)
            moduli[d - 1] = 2.0 * float(np.sum(np.abs(u)))
        if d == width:
            break
    return Band(nu, weight, sums, moduli)


def reference_diagonal_sums(rho, N: int, moduli: bool) -> tuple[int, float, list]:
    """(nu, weight, sums), read once per flag from a state, a raw matrix, an
    amplitude vector, `Diagonals` or a `Band`.  Vectors take N shifted dot
    products; a matrix keeps each diagonal pair's complex sum (upper plus
    lower), so `reference_band_total` can check the imaginary residue."""
    if isinstance(rho, Diagonals):
        rho = reference_band_of_diagonals(rho.n_particles, rho.upper, N)
    if isinstance(rho, Band):
        nu = rho.n_particles
    else:
        rho = np.asarray(getattr(rho, "matrix", rho))
        nu = rho.shape[0] - 1
    _check_regime(N, nu)
    width = min(N, nu)
    if isinstance(rho, Band):
        sums = rho.moduli if moduli else rho.sums
        if len(sums) < width:
            raise StateValidationError(f"band holds {len(sums)} diagonals, N={N} reads {width}")
        return nu, rho.weight, list(sums[:width])
    if rho.ndim == 1:
        x = np.abs(rho) if moduli else rho
        return nu, 1.0, [2.0 * float(np.vdot(x[:-d], x[d:]).real) for d in range(1, width + 1)]
    sums = []
    for d in range(1, width + 1):
        upper = np.diagonal(rho, offset=d)
        lower = np.diagonal(rho, offset=-d)
        if moduli:
            upper, lower = np.abs(upper), np.abs(lower)
        sums.append(np.sum(upper) + np.sum(lower))
    return nu, float(np.trace(rho).real), sums


def reference_band_total(rho, N: int, moduli: bool) -> tuple[float, float]:
    """(weight, sum_{0 < |k-j| <= N} (N+1-|k-j|) rho_{k,j}), of |rho_{k,j}|
    with `moduli`; a matrix's complex total must be real to 1e-10."""
    _, weight, sums = reference_diagonal_sums(rho, N, moduli)
    total = 0.0
    for d, s in enumerate(sums, 1):
        total += (N + 1 - d) * s
    if isinstance(total, complex):
        if abs(total.imag) > 1e-10:
            raise StateValidationError(f"band sum has imaginary residue {total.imag:g}")
        total = total.real
    return weight, float(total)


def reference_band(rho, N: int) -> Band:
    nu, weight, sums = reference_diagonal_sums(rho, N, moduli=False)
    _, _, moduli = reference_diagonal_sums(rho, N, moduli=True)
    return Band(nu, weight, np.array(sums), np.array(moduli))


def reference_fidelity(rho, N: int) -> float:
    weight, total = reference_band_total(rho, N, moduli=False)
    f = 2.0 * weight / (N + 2) + total / ((N + 1) * (N + 2))
    if not -1e-10 <= f <= weight + 1e-10:
        raise StateValidationError(f"fidelity {f!r} outside [0, {weight}]")
    return float(min(max(f, 0.0), weight))


def reference_entanglement(rho, N: int) -> float:
    _, total = reference_band_total(rho, N, moduli=True)
    e = (np.pi / 8.0) * total / (N + 1)
    upper = np.pi * N / 8.0
    if not -1e-10 <= e <= upper + 1e-8:
        raise StateValidationError(f"entanglement {e!r} outside [0, {upper}]")
    return float(min(max(e, 0.0), upper))
