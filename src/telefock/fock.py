"""Two-mode Fock-basis states, entanglement measures, and Haar sampling.

All states live on the fixed-particle-number sector spanned by
|k> (x) |M-k>, k = 0..M, of two bosonic modes.  A pure state is a complex
amplitude vector over that basis; a mixed state is the (M+1) x (M+1)
coefficient matrix of the same sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StateValidationError, UnsupportedRegimeError

# Construction tolerances (norm, trace, hermiticity) and the eigenvalue
# floor admitted for positive semidefiniteness.  The looser spectral floor
# absorbs round-off from noise channels and factorizations.
NORM_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10
PRODUCT_AMPLITUDE_TOL = 1e-10
_NORM_BLOCK = 8192  # entries per BLAS dot in `_check_normalized`
# rows per block in `_haar_forms`: its block buffers (~150 KB at N = 3) stay
# in cache, where 8192-row blocks slowed the small oracle calls run next
_HAAR_BLOCK = 2048


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureTwoModeState:
    """Pure state sum_k c_k |k> (x) |N-k> of N particles in two modes."""

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_particles < 0:
            raise StateValidationError("particle number must be nonnegative")
        amps = _readonly(np.asarray(self.amplitudes).reshape(-1))
        if amps.shape != (self.n_particles + 1,):
            raise StateValidationError(
                f"expected {self.n_particles + 1} amplitudes, got {amps.shape[0]}"
            )
        if not np.isfinite(amps).all():
            raise StateValidationError("amplitudes have non-finite entries")
        _check_normalized(amps)
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "TwoModeDensityMatrix":
        c = self.amplitudes
        return TwoModeDensityMatrix(self.n_particles, np.outer(c, c.conj()))


@dataclass(frozen=True)
class TwoModeDensityMatrix:
    """Density matrix over the basis |k> (x) |M-k|, k = 0..M.

    Finite entries, hermiticity and unit trace are always enforced.
    Positive semidefiniteness is certified by one Cholesky factorization of
    m - PSD_EIG_FLOOR * 1 (see `_psd_certified`); only when that fails is
    the spectrum computed, to decide against the floor and name the minimum
    eigenvalue.  Constructors whose output is PSD by construction (amplitude
    outer products in `ResourceState.from_amplitudes`, and `Diagonals.state`
    of a diagonal matrix whose entries clear the floor, such as
    `resources.fock_separable_diagonals`) pass validate_spectrum=False;
    every other dense state, the outputs of the dense noise channels
    (`noise.mix`, `noise.dephase`) included, is certified.

    Only the oracles (four-mode contraction, Lindblad integration, the dense
    channels) read a resource's matrix, built by `ResourceState.from_amplitudes`,
    `Diagonals.state` or `dense_state`; every other reader takes any form
    through `_reader`.  `teleport` certifies each sector's conditional state.
    The noise channels keep a positive resource positive (a Schur product
    with a positive-definite Gaussian kernel, a congruence E rho E, a convex
    mix), so no certificate is lost.
    """

    total_particles: int
    matrix: np.ndarray
    validate_spectrum: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        if self.total_particles < 0:
            raise StateValidationError("particle number must be nonnegative")
        m = _readonly(np.asarray(self.matrix))
        dim = self.total_particles + 1
        if m.shape != (dim, dim):
            raise StateValidationError(f"expected shape {(dim, dim)}, got {m.shape}")
        if not np.isfinite(m).all():
            raise StateValidationError("matrix has non-finite entries")
        _check_hermitian(m)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise StateValidationError(f"matrix trace {tr!r} != 1")
        if self.validate_spectrum and not _psd_certified(m):
            min_eig = float(np.min(np.linalg.eigvalsh(m)))
            if min_eig < PSD_EIG_FLOOR:
                raise StateValidationError(f"matrix not PSD: min eigenvalue {min_eig:g}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.total_particles + 1


def _check_hermitian(m: np.ndarray) -> None:
    """Raise unless the nonempty square matrix m is Hermitian to NORM_TOL."""
    # max |m^+ - m| with one temporary of m's size, overwritten in place
    diff = np.conjugate(m.T, order="C")
    diff -= m
    herm = float(np.max(np.abs(diff, out=diff).real))
    if herm > NORM_TOL:
        raise StateValidationError(f"matrix not Hermitian: max |m - m^+| = {herm:g}")


def _psd_certified(m: np.ndarray) -> bool:
    """True if Cholesky certifies that every eigenvalue of m is >= PSD_EIG_FLOOR.

    Factors m - PSD_EIG_FLOOR * 1 with `numpy.linalg.cholesky` (LAPACK
    potrf); success proves the shifted matrix positive definite up to
    Cholesky's backward error (~dim * eps * ||m||; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10).  It reads the lower
    triangle of m, the one eigvalsh reads, so both test the same Hermitian
    matrix.  A False result proves nothing; the caller then decides with the
    spectrum.
    """
    a = m.copy()
    a.flat[:: a.shape[0] + 1] -= PSD_EIG_FLOOR  # the diagonal
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class ResourceState(TwoModeDensityMatrix):
    """Shared two-mode resource state of nu particles consumed by teleportation."""

    @property
    def n_particles(self) -> int:
        return self.total_particles

    @classmethod
    def from_amplitudes(cls, x) -> "ResourceState":
        """Pure resource state from an amplitude vector (renormalized defensively).

        The vector is cast to complex before it is normalized, so a real and
        a complex copy of the same amplitudes give the same matrix.
        """
        x = normalized_amplitudes(np.asarray(x, dtype=complex))
        return cls(len(x) - 1, np.outer(x, x.conj()), validate_spectrum=False)


@dataclass(frozen=True)
class Diagonals:
    """A Hermitian coefficient matrix of M particles by its upper diagonals.

    upper[d][k] = rho_{k,k+d} for k = 0..M-d and d = 0..D; rho_{k+d,k} is
    the conjugate and every diagonal beyond D is zero.  Every reader takes
    this form (`_reader`) in O(M D) memory.  It certifies nothing: the
    constructors that make one from parameters
    (`noise.four_coherence_diagonals`, `resources.fock_separable_diagonals`)
    check those instead.
    """

    n_particles: int
    upper: tuple[np.ndarray, ...]

    def __post_init__(self):
        nu = self.n_particles
        upper = tuple(np.asarray(u) for u in self.upper)
        if nu < 0 or not 1 <= len(upper) <= nu + 1:
            raise StateValidationError(f"need 1..{nu + 1} diagonals for {nu} particles")
        for d, u in enumerate(upper):
            if u.shape != (nu + 1 - d,):
                raise StateValidationError(
                    f"diagonal {d} needs {nu + 1 - d} entries, got {u.shape}")
            if not np.isfinite(u).all():
                raise StateValidationError(f"diagonal {d} has non-finite entries")
        object.__setattr__(self, "upper", upper)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The block rho[lo:hi+1, lo:hi+1], from its first hi - lo + 1 diagonals."""
        n = hi - lo + 1
        i = np.arange(n)
        m = np.zeros((n, n), dtype=complex)
        for d, u in enumerate(self.upper[:n]):
            m[i[d:], i[: n - d]] = np.conj(u[lo : lo + n - d])
            m[i[: n - d], i[d:]] = u[lo : lo + n - d]
        return m

    def state(self) -> ResourceState:
        """The dense state, certified like any other.

        A diagonal matrix's eigenvalues are its entries, so one diagonal
        at or above PSD_EIG_FLOOR needs no factorization.
        """
        nu = self.n_particles
        diagonal = len(self.upper) == 1 and bool(np.all(self.upper[0].real >= PSD_EIG_FLOOR))
        return ResourceState(nu, self.block(0, nu), validate_spectrum=not diagonal)


def dense_state(resource) -> ResourceState:
    """The dense state of a normalized amplitude vector, `Diagonals` or a state."""
    if isinstance(resource, Diagonals):
        return resource.state()
    if isinstance(resource, TwoModeDensityMatrix):
        return resource
    return ResourceState.from_amplitudes(resource)


def normalized_amplitudes(x) -> np.ndarray:
    """Flatten an amplitude vector and normalize it to unit norm.

    A real input stays real (float64) and a complex one complex (complex128),
    so real resource families keep real arithmetic downstream.  The input is
    left as it is: the result is a new array.
    """
    x = np.asarray(x)
    return _normalize(x.astype(complex if np.iscomplexobj(x) else float, order="C").reshape(-1))


def _normalize(x: np.ndarray) -> np.ndarray:
    """x divided by its norm in place, and returned: x must be a float64 or
    complex128 vector that the caller owns."""
    nrm = float(np.linalg.norm(x))
    if not 0.0 < nrm < np.inf:
        raise StateValidationError(f"amplitude vector norm must be finite and nonzero, got {nrm!r}")
    x /= nrm
    return x


def _check_normalized(x) -> np.ndarray:
    """The amplitudes x, flattened, once sum |x_k|^2 = 1 is checked to NORM_TOL:
    one BLAS dot per block errs by at most _NORM_BLOCK * 2^-53 = 9.1e-13 of
    the block's sum (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 3) and math.fsum adds the blocks exactly, at any length."""
    x = np.asarray(x).reshape(-1)
    try:  # fsum raises where the exact sum of finite block sums overflows
        norm_sq = math.fsum(np.vdot(x[i : i + _NORM_BLOCK], x[i : i + _NORM_BLOCK]).real
                            for i in range(0, x.shape[0], _NORM_BLOCK))
    except OverflowError:
        norm_sq = math.inf
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails too
        raise StateValidationError(f"state not normalized: sum |c_k|^2 = {norm_sq!r}")
    return x


def _reader(resource, width: int):
    """(nu, diagonals, block) of a state, `Diagonals`, a raw square matrix
    (checked Hermitian to NORM_TOL) or amplitudes (checked normalized, cast to
    complex and renormalized as `ResourceState.from_amplitudes` does, so each
    entry is the dense state's bit for bit): the one place a form is decided.
    diagonals() yields rho_{k,k+d} for d = 0..min(width, nu) one at a time
    (of `Diagonals`, those it holds) and block(lo, hi) is rho[lo:hi+1, lo:hi+1]."""
    if isinstance(resource, Diagonals):
        return resource.n_particles, lambda: iter(resource.upper[: width + 1]), resource.block
    if isinstance(resource, TwoModeDensityMatrix):
        m = resource.matrix
    else:
        m = np.asarray(resource)
        if m.ndim == 1:
            x = _normalize(_check_normalized(m.astype(complex)))
            nu = x.shape[0] - 1
            return (nu,
                    lambda: (x[: nu + 1 - d] * x[d:].conj() for d in range(min(width, nu) + 1)),
                    lambda lo, hi: np.outer(x[lo : hi + 1], x[lo : hi + 1].conj()))
        if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
            raise UnsupportedRegimeError(
                f"a {type(resource).__name__} of shape {m.shape} holds no entries")
        _check_hermitian(m)
    nu = m.shape[0] - 1
    return (nu, lambda: (m.diagonal(d) for d in range(min(width, nu) + 1)),
            lambda lo, hi: m[lo : hi + 1, lo : hi + 1])


def negativity(state: TwoModeDensityMatrix) -> float:
    """Entanglement negativity of a two-mode fixed-particle-number state.

    For these states the partial-transpose definition reduces to half the sum
    of the off-diagonal moduli of the coefficient matrix, which is what this
    computes.  `negativity_partial_transpose` evaluates the generic
    definition; the two must agree.
    """
    moduli = np.abs(state.matrix)
    np.fill_diagonal(moduli, 0.0)
    return float(np.sum(moduli) / 2.0)


def negativity_partial_transpose(state: TwoModeDensityMatrix) -> float:
    """Negativity via explicit embedding, partial transpose, and eigenvalues.

    Embeds the state into the full (M+1)^2-dimensional two-mode tensor
    product, transposes the second mode, and returns
    (sum |eig| - 1)/2.  Cost grows as (M+1)^6; intended as the slow
    cross-check of `negativity`, not for production sweeps.
    """
    m = state.matrix
    dim = state.dim
    full = np.zeros((dim * dim, dim * dim), dtype=complex)
    idx = np.array([k * dim + (state.total_particles - k) for k in range(dim)])
    full[np.ix_(idx, idx)] = m
    pt = full.reshape(dim, dim, dim, dim).transpose(0, 3, 2, 1).reshape(dim * dim, dim * dim)
    eigs = np.linalg.eigvalsh(pt)
    return float((np.sum(np.abs(eigs)) - 1.0) / 2.0)


def sample_haar(N: int, rng_seed: int) -> PureTwoModeState:
    """Haar-uniform pure two-mode state of N particles, deterministic in the seed.

    Draws N+1 independent standard complex Gaussians and normalizes, which
    realizes the unitarily invariant measure on the sector.
    """
    c = haar_amplitude_batch(N, 1, np.random.default_rng(rng_seed))[0]
    return PureTwoModeState(N, c)


def haar_amplitude_batch(N: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` Haar-uniform amplitude vectors, one per row: the real parts of
    every row are drawn first, then the imaginary parts."""
    if N < 0:
        raise StateValidationError("particle number must be nonnegative")
    a = rng.standard_normal((size, N + 1)) + 1j * rng.standard_normal((size, N + 1))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a


def _haar_forms(N: int, samples: int, rng_seed: int, kernel: np.ndarray,
                moduli: bool) -> np.ndarray:
    """q^T kernel q for each row of `haar_amplitude_batch(N, samples,
    default_rng(rng_seed))`, q its populations |c_k|^2, or its moduli |c_k|
    when `moduli` is set.

    Reads the same stream without forming the amplitudes: the squared real
    parts fill one samples x (N+1) buffer, and the imaginary parts are drawn
    _HAAR_BLOCK rows at a time into a small one and folded in; each block's
    forms are summed in buffers of that many rows.  With u = |z_k|^2 of the
    unnormalized draws and s = sum_k u_k, the form is u^T K u / s^2, or
    sqrt(u)^T K sqrt(u) / s.
    """
    if N < 0:
        raise StateValidationError("particle number must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    u = rng.standard_normal((samples, N + 1))
    u *= u
    rows = min(samples, _HAAR_BLOCK)
    buffers = np.empty((rows, N + 1)), np.empty((rows, N + 1)), np.empty(rows)
    ones = np.ones(N + 1)
    forms = np.empty(samples)
    for i in range(0, samples, _HAAR_BLOCK):
        ub = u[i : i + _HAAR_BLOCK]
        im, qk, s = (b[: ub.shape[0]] for b in buffers)
        form = forms[i : i + ub.shape[0]]
        rng.standard_normal(out=im)
        im *= im
        ub += im
        q = np.sqrt(ub, out=im) if moduli else ub
        # a matrix-vector product sums a few columns per row ~10x faster than axis=1
        np.matmul(ub, ones, out=s)
        np.matmul(q, kernel, out=qk)
        qk *= q
        np.matmul(qk, ones, out=form)
        if not moduli:
            s *= s
        form /= s
    return forms


def is_product_pure(state: PureTwoModeState) -> bool:
    """True iff the state is a single Fock component, i.e. mode-separable."""
    return int(np.count_nonzero(np.abs(state.amplitudes) > PRODUCT_AMPLITUDE_TOL)) == 1
