"""Shared test utilities: random state generators and small oracles."""

import numpy as np
from scipy import integrate

from telefock import continuum
from telefock.errors import QuadratureError, StateValidationError
from telefock.fock import (
    Diagonals, PureTwoModeState, ResourceState, TwoModeDensityMatrix, haar_amplitude_batch,
)
from telefock.protocol import (
    Band, TeleportOutcome, _check_regime, multiplicity, sector_component_range,
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
    """Strict local maxima of the populations w at or above a fifth of
    their maximum, level by level, as their imbalances z in increasing order."""
    floor = 0.2 * np.max(w)
    peaks = []
    for i in range(w.size):
        left = w[i - 1] if i > 0 else -np.inf
        right = w[i + 1] if i < w.size - 1 else -np.inf
        if w[i] > left and w[i] > right and w[i] >= floor:
            peaks.append(float(z[i]))
    return sorted(peaks)


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


def reference_accept(out) -> tuple[float, float]:
    """(value, error estimate) of `scipy.integrate.quad(..., full_output=1)`'s
    output `out`, or the QuadratureError it stands for under the continuum
    layer's acceptance rule: a non-finite value or estimate raises, and so
    does a failure message with an estimate above max(1e-9, 1e-7 |value|)."""
    val, err = out[:2]
    if not (np.isfinite(val) and np.isfinite(err)):
        raise QuadratureError(f"quadrature gave a non-finite result: {val!r} +/- {err!r}")
    if len(out) > 3 and err > max(1e-9, 1e-7 * abs(val)):
        raise QuadratureError(f"quadrature failed to converge: {out[3]}")
    return val, err


def reference_band_integral(omega, nu: float, N: int, features, fallbacks: list) -> float:
    """`continuum._band_integral` with its strips composed the older way:
    each batch of outer u-nodes gets QUADPACK's first qagp step on [-b, 0]
    and [0, b] from one call on a (42, U) array, and a u whose step fails
    its error test falls back to scalar `scipy.integrate.quad` on its strip
    [-b, b], which is appended to `fallbacks`."""
    w = 2.0 * (N + 1.0) / nu
    sides = np.array([[-1.0], [1.0]])

    def g(u, v):
        return np.real((N + 1.0 - np.abs(v) * nu / 2.0) * omega(u + v / 2.0, u - v / 2.0))

    def inner(nodes: np.ndarray) -> np.ndarray:
        u = nodes.ravel()
        b = np.minimum(w, 2.0 - 2.0 * np.abs(u))
        out = np.zeros(u.shape)
        live = np.flatnonzero(b > 0.0)
        u, b = u[live], b[live]
        h = 0.5 * b  # also the panel centers' distance from 0
        v = (sides * h[:, None, None] + h[:, None, None] * continuum._GK21_T).T  # (21, 2, U)
        fv = np.reshape(g(u, v.reshape((42,) + h.shape)), v.shape)
        val, err, _, _ = continuum._gk21(fv, h)
        val, err = val[0] + val[1], err[0] + err[1]
        out[live] = val
        for i in np.flatnonzero(~(err <= np.maximum(continuum.QUAD_EPSABS,
                                                     continuum.QUAD_EPSREL * np.abs(val)))):
            ui, bi = float(u[i]), float(b[i])
            fallbacks.append((-bi, bi))
            out[live[i]], _ = reference_accept(integrate.quad(
                lambda x: float(g(ui, x)), -bi, bi, points=[0.0],
                epsabs=continuum.QUAD_EPSABS, epsrel=continuum.QUAD_EPSREL,
                limit=continuum.QUAD_LIMIT, full_output=1))
        return out.reshape(nodes.shape)

    val, _ = continuum._qagp(inner, -1.0, 1.0, (-1.0 + w / 2.0, 1.0 - w / 2.0, *features))
    return val
