"""Constructors for the resource-state zoo.

Separable Fock states, N00N, uniform (maximally entangled) superpositions,
discrete Gaussians, SU(2) coherent states and double-well ground states from
exact diagonalization.

Every pure family has one constructor, `*_amplitudes`, returning the
normalized coefficient vector; the separable Fock state is its one diagonal
(`fock_separable_diagonals`).  The functionals and noise scans read these
forms directly; an oracle that needs the dense state builds it with
`ResourceState.from_amplitudes` or `Diagonals.state`.  Real families
(uniform, N00N, Gaussian, double well) return float64 vectors; SU(2)
coherent amplitudes are complex, and their moduli (`su2_coherent_moduli`)
are the real vector that the CLI reads with a phase slope.  Those moduli are
ratio products outward from the binomial mode, in numpy alone (no log-gamma),
and hold no subnormal entry: a modulus below 1e-300 of the peak is 0, and so
is a real or imaginary part of a phased vector below 1e-300 of its peak
(`_flush_tiny_parts`), which a component of the phase near 1e-16 (phi = pi/2)
would otherwise leave subnormal.  Only the double well's eigensolver loads
scipy (`scipy.linalg`), inside its constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StateValidationError
from .fock import Diagonals, ResourceState, _normalize, _reader

_SU2_BLOCK = 4096  # levels per cumulative product in `_su2_moduli`
_SU2_FLOOR = 1e-300  # moduli, and parts of phased vectors, below this fraction of the peak are 0
_FLUSH_BLOCK = 1 << 16  # float parts per mask in `_flush_tiny_parts`
_WINDOW_MIN = 1025  # double-well sectors up to this size are solved whole
_WINDOW_PAD = 32  # rows a window reaches past the WKB estimate of its tail
_TAIL = 1e-25  # a window's Perron vector must end below this fraction of its peak
_TAIL_ACTION = math.log(1.0 / _TAIL)


def max_entangled_amplitudes(nu: int) -> np.ndarray:
    if nu < 0:
        raise StateValidationError("nu must be nonnegative")
    return np.full(nu + 1, 1.0 / np.sqrt(nu + 1))


def max_entangled(nu: int) -> ResourceState:
    """Uniform superposition over all splittings; the maximally entangled state."""
    return ResourceState.from_amplitudes(max_entangled_amplitudes(nu))


def fock_separable_diagonals(nu: int, k: int) -> Diagonals:
    """Product Fock state |k> (x) |nu-k>, the separable baseline, as its one diagonal."""
    if not 0 <= k <= nu:
        raise StateValidationError(f"occupation k={k} outside [0, {nu}]")
    populations = np.zeros(nu + 1)
    populations[k] = 1.0
    return Diagonals(nu, (populations,))


def noon_amplitudes(nu: int) -> np.ndarray:
    """(|nu, 0> + |0, nu>)/sqrt(2)."""
    if nu < 1:
        raise StateValidationError("N00N state needs nu >= 1")
    x = np.zeros(nu + 1)
    x[0] = x[nu] = 1.0 / np.sqrt(2.0)
    return x


@dataclass(frozen=True)
class GaussianSpec:
    """Discrete Gaussian amplitude profile exp(-(k-center)^2 / (4 sigma^2))."""

    nu: int
    center: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise StateValidationError("sigma must be positive")
        # gaussian_amplitudes divides (k - center)^2, k = 0..nu, by 4 sigma^2;
        # Python floats overflow to inf here without a numpy warning
        sigma, center = float(self.sigma), float(self.center)
        reach = max(abs(center), abs(float(self.nu) - center))
        width = 4.0 * sigma * sigma
        if not (0.0 < width < math.inf and reach * reach / width < math.inf):
            raise StateValidationError(
                f"sigma = {self.sigma!r} and center = {self.center!r} put the exponent "
                f"(k - center)^2 / (4 sigma^2) beyond the floats for nu = {self.nu}")

    @classmethod
    def from_beta(cls, nu: int, beta: float, center: float | None = None) -> "GaussianSpec":
        try:
            sigma = float(nu) ** float(beta)
        except (OverflowError, ZeroDivisionError):  # nu^beta beyond the floats, or 0^-|beta|
            sigma = math.inf
        try:
            return cls(nu=nu, center=nu / 2.0 if center is None else center, sigma=sigma)
        except StateValidationError as exc:
            raise StateValidationError(f"beta = {beta!r}: {exc}") from exc


def gaussian_amplitudes(spec: GaussianSpec) -> np.ndarray:
    """Normalized Gaussian amplitude vector.

    Normalization is computed numerically so that sum x_k^2 = 1; sigma^2 is
    the variance of the occupation distribution x_k^2.
    """
    # -((k - center)^2) / (4 sigma^2), formed in one buffer in that order
    x = np.arange(spec.nu + 1, dtype=float)
    np.subtract(x, spec.center, out=x)
    np.square(x, out=x)
    np.negative(x, out=x)
    np.divide(x, 4.0 * spec.sigma ** 2, out=x)
    # exponent shifted by its maximum before exponentiation so narrow
    # off-center profiles do not underflow to the zero vector
    np.subtract(x, np.max(x), out=x)
    return _normalize(np.exp(x, out=x))


def su2_coherent_amplitudes(nu: int, theta: float, phi: float) -> np.ndarray:
    """Spin (atomic) coherent state with binomial amplitudes.

    x_k = sqrt(binom(nu, k)) sin^k(theta/2) cos^(nu-k)(theta/2) e^(i k phi),
    so theta = 0 gives |0> (x) |nu> and theta = pi gives |nu> (x) |0>.
    """
    _check_su2_angles(theta, phi)
    moduli = _su2_moduli(nu, theta)
    phase = linear_phase(phi, nu + 1)
    return _normalize(_flush_tiny_parts(np.multiply(moduli, phase, out=phase), 1.0))


def su2_coherent_moduli(nu: int, theta: float) -> np.ndarray:
    """The normalized moduli |x_k| of `su2_coherent_amplitudes`: a real vector
    whose phases e^(i k phi) act on its band (`protocol.phased_band`)."""
    _check_su2_angles(theta)
    return _normalize(_su2_moduli(nu, theta))


def _flush_tiny_parts(z: np.ndarray, peak: float) -> np.ndarray:
    """z, a complex vector whose moduli peak at `peak`, with every real and
    imaginary part below `_SU2_FLOOR` of the peak made a zero of its sign,
    in place.  Where a component of a phase e^(i c k) is ~1e-16 (c = pi/2 or
    pi), a modulus near the floor times it would be subnormal and slow every
    later pass; such a part moves no digit of any sum.  Blocks of
    `_FLUSH_BLOCK` parts keep the mask small."""
    parts = z.view(np.float64)
    tiny = _SU2_FLOOR * peak
    for start in range(0, parts.size, _FLUSH_BLOCK):
        block = parts[start:start + _FLUSH_BLOCK]
        np.multiply(block, 0.0, out=block, where=np.abs(block) < tiny)
    return z


def _check_su2_angles(theta: float, phi: float = 0.0) -> None:
    if not 0.0 <= theta <= np.pi:
        raise StateValidationError("theta must lie in [0, pi]")
    if not 0.0 <= phi < 2.0 * np.pi:
        raise StateValidationError("phi must lie in [0, 2 pi)")


def _su2_moduli(nu: int, theta: float) -> np.ndarray:
    """sqrt(binom(nu, k)) sin^k(theta/2) cos^(nu-k)(theta/2) over its value at
    the binomial mode, by ratio products outward from the mode.

    x_top = 1 at top = min(int((nu+1) s^2), nu), s = sin(theta/2), and
    x_j / x_{j-1} = sqrt((nu-j+1)/j) q with q = tan(theta/2) = s/c: each side
    is one cumulative product, run in blocks of `_SU2_BLOCK` levels.  Past
    the mode the ratios are below 1, so a side stops at the first block that
    ends below `_SU2_FLOOR` (of the peak), and moduli below it stay 0: they
    move no digit of any lag sum.  Run to the end, the product would stick
    at 2^-1074 once the ratios pass 1/2 and fill the tail with subnormals,
    which slow every later pass over the vector.  theta = 0 gives q = 0 and
    top = 0, so one Fock level.  A modulus m levels from the mode carries m
    roundings, ~6e-14 relative at nu = 4096 (tests/test_resources.py checks
    it against exact binomials).
    """
    s, q = np.sin(theta / 2.0), np.tan(theta / 2.0)
    top = min(int((nu + 1) * s * s), nu)
    x = np.zeros(nu + 1)
    x[top] = 1.0
    for side in (1, -1):
        k = top
        while 0 <= k + side <= nu and x[k] >= _SU2_FLOOR:
            # ratios from x_k to the next block of levels outward: j runs over
            # the new levels (right) or the levels above them (left)
            if side > 0:
                j = np.arange(k + 1, min(k + _SU2_BLOCK, nu) + 1, dtype=float)
                r = np.sqrt((nu + 1 - j) / j) * q
            else:
                j = np.arange(k, max(k - _SU2_BLOCK, 0), -1, dtype=float)
                r = np.sqrt(j / (nu + 1 - j)) / q
            r[0] *= x[k]
            np.multiply.accumulate(r, out=r)
            if r[-1] < _SU2_FLOOR:  # the side's last block
                r[r < _SU2_FLOOR] = 0.0
            if side > 0:
                x[k + 1:k + 1 + r.size] = r
            else:
                x[k - r.size:k] = r[::-1]
            k += side * r.size
    return x


@dataclass(frozen=True)
class BoseHubbardParams:
    """Two-well Hamiltonian parameters; gamma = nu U / tau is the control knob."""

    nu: int
    tau: float
    U: float

    def __post_init__(self):
        if self.tau <= 0.0:
            raise StateValidationError("tunnelling amplitude tau must be positive")
        if not np.isfinite(self.gamma):
            raise StateValidationError("gamma = nu U / tau must be finite")
        # the solve builds H / tau: a bound on its row sums |d_k| + |e_{k-1}| + |e_k|,
        # and on 4 times that, the tolerance of a window's Sturm count (`_windowed_ground`)
        nu = int(self.nu)
        norm = abs(float(self.U) / float(self.tau)) * nu * (nu - 1) + 2 * (nu + 1)
        if not math.isfinite(norm * (4.0 if nu // 2 + 1 > _WINDOW_MIN else 1.0)):
            raise StateValidationError(
                f"gamma = {self.gamma!r} (U = {self.U!r}, tau = {self.tau!r}) puts the "
                f"Hamiltonian's entries beyond the floats for nu = {self.nu}")

    @property
    def gamma(self) -> float:
        return self.nu * self.U / self.tau

    @classmethod
    def from_gamma(cls, nu: int, gamma: float, tau: float = 1.0) -> "BoseHubbardParams":
        if nu < 1:
            raise StateValidationError("need at least one particle")
        return cls(nu=nu, tau=tau, U=gamma * tau / nu)


def double_well_ground_amplitudes(params: BoseHubbardParams) -> np.ndarray:
    """Ground state of the two-well Hamiltonian by exact diagonalization of
    its even sector.

    In the Fock basis |k, nu-k> the Hamiltonian is tridiagonal with diagonal
    U [k(k-1) + (nu-k)(nu-k-1)] and hopping -tau sqrt((k+1)(nu-k)), and it
    commutes with the mirror k -> nu-k.  Its hopping is negative, so its
    ground state is unique, even and positive (Perron-Frobenius).  The solve
    runs on the even states (|k> + |nu-k>)/sqrt(2), k < nu/2, and |nu/2> for
    even nu: a tridiagonal matrix of size nu//2 + 1 whose last hop is sqrt(2)
    times the full one (even nu), or whose last diagonal entry takes the
    middle hop (odd nu).  The result is |v| mirrored, so x_k = x_{nu-k}
    exactly and every x_k > 0.  For gamma < -1 the full solve would return
    an arbitrary mix of this state and its odd partner, degenerate with it
    to round-off, weighted toward one well.  At nu = 2, where gamma^2
    overflows, the 2 x 2 sector is solved in closed form.  A sector of more
    than `_WINDOW_MIN` levels takes its ground energy from a window around
    its well (`_windowed_ground`).
    """
    nu = params.nu
    if nu < 1:
        raise StateValidationError("need at least one particle")
    half = nu // 2
    k = np.arange(half + 1, dtype=float)
    # H / tau: its entries depend on gamma alone, so a large tau or U cannot
    # overflow the eigensolver, which squares the hops
    diag = (params.U / params.tau) * (k * (k - 1.0) + (nu - k) * (nu - k - 1.0))
    hop = -np.sqrt((k + 1.0) * (nu - k))  # hop[k] joins k and k+1
    bound = None
    if half + 1 > _WINDOW_MIN and math.isfinite(diag[0]):  # the largest |entry|
        # Gershgorin bounds d_k - |h_{k-1}| - |h_k| of the full Hamiltonian's
        # rows k <= nu/2, in the buffer of k: hop[half] is the hop past the
        # centre, the mirror of hop[half-1] (even nu) or the middle hop (odd)
        bound = np.add(diag, hop, out=k)
        bound[1:] += hop[:-1]
    if nu % 2:
        diag[-1] += hop[-1]  # k = half and k+1 = nu-half are mirror images
    else:
        hop[-2] *= np.sqrt(2.0)  # the pair next to the unpaired |nu/2>
    if nu == 2 and not math.isfinite(float(diag[0]) * float(diag[0])):
        v = _even_pair_ground(float(diag[0]))
    else:
        from scipy.linalg import eigh_tridiagonal

        window = None if bound is None else _ground_window(diag, hop[:-1], bound)
        del k, bound  # before the eigensolver's workspace
        try:
            v = None if window is None else _windowed_ground(diag, hop[:-1], *window)
            if v is None:
                _, vec = eigh_tridiagonal(diag, hop[:-1], select="i", select_range=(0, 0))
                v = vec[:, 0]
        except Exception as exc:  # pragma: no cover - backend failure path
            raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
        v = np.abs(v, out=v)
    if nu % 2 == 0:
        v[-1] *= np.sqrt(2.0)  # |nu/2> against the paired entries' 1/sqrt(2)
    return _normalize(np.concatenate((v, v[nu - half - 1::-1])))


def _ground_window(d: np.ndarray, e: np.ndarray, bound: np.ndarray):
    """(lo, hi, floor, norm) for `_windowed_ground`, or None where the window
    spans more than two thirds of the sector and saves too little.

    The window [lo, hi] of sector rows is centred on the well, the row c of
    least Gershgorin bound floor = bound[c], and reaches `_WINDOW_PAD` rows
    past where the WKB action from c passes ln(1/_TAIL) on each side
    (`_reach`).  norm is the sector's ||T||_inf, summed in the buffer of
    bound.
    """
    n = bound.size
    c = int(np.argmin(bound))
    lo = max(_reach(bound, e, c, -1) - _WINDOW_PAD, 0)
    hi = min(_reach(bound, e, c, 1) + _WINDOW_PAD, n - 1)
    if 3 * (hi - lo + 1) > 2 * n:
        return None
    floor = float(bound[c])
    rows = np.abs(d, out=bound)
    hops = np.abs(e)
    rows[:-1] += hops
    rows[1:] += hops
    return lo, hi, floor, float(rows.max())


def _windowed_ground(d: np.ndarray, e: np.ndarray, lo: int, hi: int, floor: float,
                     norm: float):
    """The sector's ground vector from the window [lo, hi], or None where the
    whole sector must be solved as `eigh_tridiagonal` does.

    The ground energy theta is the window's lowest eigenvalue (`dstebz`).
    It stands only if the window's Perron vector is below `_TAIL` of its
    peak at each edge inside the sector, and if one Sturm count of the whole
    sector (`dstebz` by value, with a tolerance so wide that it only counts)
    finds no eigenvalue in (gl, theta - delta], delta = 64 eps ||T||_inf and
    gl below floor, the full Hamiltonian's least Gershgorin bound, which is
    below the sector's spectrum.  So theta is then its ground energy to
    within delta (theta cannot be below it: the window's eigenvalues
    interlace the sector's).  The vector is one `dstein` on the whole sector
    at theta, in the block of the splitting that holds the window's peak:
    the call that `eigh_tridiagonal` makes after its bisection of the whole
    sector.
    """
    from scipy.linalg import lapack

    n = d.size
    dw, ew = d[lo:hi + 1], e[lo:hi]
    m, w, iblock, isplit, info = lapack.dstebz(dw, ew, 2, 0.0, 0.0, 1, 1, 0.0, b"B")
    if info or m != 1:
        return None
    z, info = lapack.dstein(dw, ew, w[:1], iblock, isplit)
    z = np.abs(z[:, 0])
    tail = _TAIL * float(z.max())
    if info or (lo > 0 and z[0] > tail) or (hi < n - 1 and z[-1] > tail):
        return None
    theta, row = float(w[0]), lo + int(np.argmax(z))
    delta = 64.0 * np.finfo(float).eps * norm
    gl = min(floor, theta - delta) - delta  # below both: (gl, theta - delta] is not empty
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 1, gl, theta - delta, 0, 0, 4.0 * norm, b"B")
    del w  # n floats that `dstein` does not read
    if info or m:
        return None
    nsplit = int(np.argmax(isplit == n)) + 1  # isplit[:nsplit] ends the blocks
    iblock[0] = np.searchsorted(isplit[:nsplit], row + 1) + 1
    z, info = lapack.dstein(d, e, np.array([theta]), iblock, isplit)
    return None if info else z[:, 0]


def _reach(bound: np.ndarray, e: np.ndarray, c: int, step: int) -> int:
    """The first row from c, stepping by +1 or -1, at which the WKB action
    from c passes ln(1/_TAIL); the sector's end, or the row two thirds of
    the sector away from c (too wide a window), if it never does.

    With the ground energy taken as bound[c], the Perron vector decays by
    e^(-kappa_j) over row j, cosh kappa_j = 1 + (bound[j] - bound[c]) / s_j,
    s_j = |e_{j-1}| + |e_j| (one hop at a sector end).  For a harmonic well
    this is the Gaussian's width sqrt(2 ln(1/_TAIL)) (2|e_c| / V'')^(1/4),
    and it follows an anharmonic well and a barrier too.  It sums blocks of
    rows, each four times the last, so it reads the window and not the
    sector.
    """
    n = bound.size
    end = min(c + 2 * n // 3, n - 1) if step > 0 else max(c - 2 * n // 3, 0)
    action, k, size = 0.0, c, 1024
    while k != end:
        stop = min(k + size, end) if step > 0 else max(k - size, end)
        j = np.arange(k + step, stop + step, step)
        s = np.abs(e[np.maximum(j - 1, 0)]) + np.abs(e[np.minimum(j, n - 2)])
        s[(j == 0) | (j == n - 1)] *= 0.5
        kappa = np.arccosh(1.0 + (bound[j] - bound[c]) / s)
        total = action + np.cumsum(kappa)
        i = int(np.searchsorted(total, _TAIL_ACTION))
        if i < j.size:
            return int(j[i])
        action, k, size = float(total[-1]), stop, 4 * size
    return end


def _even_pair_ground(gamma: float) -> np.ndarray:
    """Ground state of the nu = 2 even sector [[gamma, -2], [-2, 0]] in closed
    form, scaled to a largest entry of 1; `eigh_tridiagonal` returns NaN there
    once gamma^2 overflows.

    With a = gamma/2 and h = hypot(a, 2), the ground energy is a - h and the
    state is (2, a + h), or (h - a, 2): the form without cancellation.
    """
    a = gamma / 2.0
    h = math.hypot(a, 2.0)
    v = np.array([2.0, a + h] if a >= 0.0 else [h - a, 2.0])
    return v / v.max()


def linear_phase(coeff: float, n: int) -> np.ndarray:
    """The phase vector e^{i coeff k}, k = 0..n-1, from O(sqrt(n)) exponentials.

    With k = q B + r and B a power of two near sqrt(n), e^{i c k} is the
    product e^{i (c B) q} e^{i c r} of two short tables.  c B is exact, so
    the argument of each factor is rounded once, as in np.exp(1j * c * k),
    and the product adds a few ulp.  numpy's complex exp is not vectorized,
    so this is an order of magnitude faster than the direct form at large n.
    """
    n = int(n)
    _check_linear_phase(coeff, n)
    B = 1 << ((max(n - 1, 0).bit_length() + 1) // 2)
    high = np.exp(1j * (coeff * B) * np.arange(-(-n // B)))
    low = np.exp(1j * coeff * np.arange(B))
    return np.multiply.outer(high, low).reshape(-1)[:n]


def _check_linear_phase(coeff: float, n: int) -> None:
    """Raise unless coeff * k, k < n, stays within the floats."""
    if not math.isfinite(float(coeff) * n):  # bounds coeff * k and coeff * B, as B <= max(n, 1)
        raise StateValidationError(
            f"linear phase coefficient {coeff!r} puts e^(i coefficient k) beyond the "
            f"floats for k < {n}")


def _imbalance_populations(rho) -> tuple[np.ndarray, np.ndarray]:
    """(z, w): the imbalance 1 - 2k/nu and the populations of any resource form."""
    nu, diagonals, _ = _reader(rho, 0)
    return 1.0 - 2.0 * np.arange(nu + 1) / nu, next(diagonals()).real


def imbalance_moments(rho) -> tuple[float, float]:
    """(mean, variance) of the occupation imbalance z = 1 - 2k/nu.

    The mean is summed over mirror pairs, sum_{k<nu/2} z_k (w_k - w_{nu-k})
    (z_{nu-k} = -z_k, and z = 0 at k = nu/2), so it is exactly 0 for a
    mirror-symmetric state.
    """
    z, weights = _imbalance_populations(rho)
    pairs = weights.size // 2
    mean = float(np.dot(z[:pairs], weights[:pairs] - weights[::-1][:pairs]))
    var = float(np.dot(z ** 2, weights) - mean ** 2)
    return mean, var


def occupation_peaks(rho) -> list[float]:
    """Imbalance locations of local maxima of the occupation density: a run
    of equal populations above both neighbouring levels is one peak, at its
    mean z (the tied central pair of a repulsive ground state at odd nu).
    Only peaks of at least a fifth of the global maximum are reported,
    ordered by increasing z.
    """
    z, w = _imbalance_populations(rho)
    start = np.flatnonzero(np.diff(w, prepend=np.nan))  # each run's first level
    end = np.append(start[1:], w.size) - 1
    run = np.pad(w[start], 1, constant_values=-np.inf)
    peak = (run[1:-1] > np.maximum(run[:-2], run[2:])) & (run[1:-1] >= 0.2 * np.max(w))
    # z is affine in k: the mean over a run is that of its ends, z itself for one level
    return sorted(((z[start] + z[end]) / 2.0)[peak].tolist())
