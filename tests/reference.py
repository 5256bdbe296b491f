"""High-precision references for the continuum functionals, for tests only.

A continuum profile here is a mixture of equal-width Gaussians,
chi(z) = sum_i a_i exp(-(z - c_i)^2 / (4 s^2)) on [-1, 1], given as the
`(weights, centers, width)` a `ContinuumProfile.mixture_of_nu` returns.
Everything is evaluated in `mpmath` at `DPS` digits, by a reduction other
than the package's: in u = (z+y)/2, v = z-y the pair (i, j) of the mixture
contributes a_i a_j exp(-(u-m)^2/(2s^2)) exp(-(v-d)^2/(8s^2)), with
m = (c_i+c_j)/2 and d = c_i-c_j.  Its u-integral over |u| <= 1 - |v|/2 is a
sum of two erfs, and the remaining v-integral over the band runs on
`mp.quad` (Gauss-Legendre, to the working precision) with breakpoints at the
kernel's kink and around the Gaussian's center and the erfs' transitions,
between which the integrand is analytic.

The flat profile (width inf) has exact rational functionals, for nu >= N+1.
The discrete SU(2) coherent state's functionals come from its exact binomial
moduli (`su2_functionals`); `su2_moduli` gives those moduli themselves, from
binomials and powers rather than ratios.
"""

from fractions import Fraction
from functools import cache

from mpmath import mp

DPS = 40
# breakpoints around each feature of the v-integrand, in units of 2s
_SPREAD = (-32, -16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 32)


def _pairs(mixture):
    """(a_i a_j, m, d, s) over i <= j, a pair i < j counted twice: (j, i)
    has the same m and the opposite d, and v -> -v maps its integral onto
    that of (i, j)."""
    weights, centers, width = mixture
    a = [mp.mpf(float(x)) for x in weights]
    c = [mp.mpf(float(x)) for x in centers]
    s = mp.mpf(float(width))
    for i in range(len(a)):
        for j in range(i, len(a)):
            yield a[i] * a[j] * (1 if i == j else 2), (c[i] + c[j]) / 2, c[i] - c[j], s


def _erf_pair(lo, m, s):
    """Int_{-lo}^{lo} exp(-(u-m)^2/(2s^2)) du."""
    r = s * mp.sqrt(2)
    return s * mp.sqrt(mp.pi / 2) * (mp.erf((lo - m) / r) + mp.erf((lo + m) / r))


def diagonal_norm(mixture):
    """Int_{-1}^{1} chi(z)^2 dz, as a closed erf sum."""
    with mp.workdps(DPS):
        return +sum(a * mp.exp(-d ** 2 / (8 * s ** 2)) * _erf_pair(mp.one, m, s)
                    for a, m, d, s in _pairs(mixture))


def band_integral(mixture, nu, N):
    """Int max(0, N+1 - |z-y| nu/2) chi(z) chi(y) over [-1, 1]^2."""
    with mp.workdps(DPS):
        nu, K0 = mp.mpf(nu), mp.mpf(N + 1)
        w = min(2 * K0 / nu, mp.mpf(2))
        total = mp.zero
        for a, m, d, s in _pairs(mixture):
            def g(v):
                kernel = K0 - abs(v) * nu / 2
                return (kernel * mp.exp(-(v - d) ** 2 / (8 * s ** 2))
                        * _erf_pair(1 - abs(v) / 2, m, s))

            # the erfs turn where 1 - |v|/2 = |m|
            turn = 2 * (1 - abs(m))
            points = {-w, mp.zero, w}
            for center in (d, turn, -turn):
                points.update(center + 2 * s * k for k in _SPREAD)
            total += a * mp.quad(g, sorted(p for p in points if -w <= p <= w),
                                 method="gauss-legendre")
        return +total


@cache
def functionals(mixture, nu, N):
    """(f, E) of the normalized mixture, each an mpf at `DPS` digits.

    Cached: the tests ask for some cases twice, and a mixture is a tuple."""
    with mp.workdps(DPS):
        band = band_integral(mixture, nu, N) / diagonal_norm(mixture)
        f = 1 / mp.mpf(N + 2) + (mp.mpf(nu) / 2) * band / ((N + 1) * (N + 2))
        e = -mp.pi / 8 + (mp.pi * mp.mpf(nu) / 16) * band / (N + 1)
        return f, e


def flat_functionals(N, nu):
    """(f, E) of the flat profile, each an mpf at `DPS` digits, from the
    exact f = 1 - (N+1)^2 / (3 nu (N+2)) and E / pi = N/8 - (N+1)^2 / (24 nu),
    which hold for nu >= N+1."""
    f = 1 - Fraction((N + 1) ** 2, 3 * (N + 2)) / Fraction(nu)
    e = Fraction(N, 8) - Fraction((N + 1) ** 2, 24) / Fraction(nu)
    with mp.workdps(DPS):
        return mp.mpf(f.numerator) / f.denominator, mp.pi * e.numerator / e.denominator


def erf_difference(x, y):
    """erf(y) - erf(x) at `DPS` digits."""
    with mp.workdps(DPS):
        return mp.erf(mp.mpf(y)) - mp.erf(mp.mpf(x))


def su2_moduli(nu, theta):
    """The exact moduli sqrt(binom(nu, k)) s^k c^(nu-k), k = 0..nu, of the SU(2)
    coherent state at the float theta, s = sin(theta/2) and c = cos(theta/2),
    each an mpf at `DPS` digits.  Each one is `mp.binomial` times two powers,
    with no ratio between levels, so it shares no recurrence with the
    package.  Their squares sum to (s^2 + c^2)^nu = 1."""
    with mp.workdps(DPS):
        s, c = mp.sin(mp.mpf(theta) / 2), mp.cos(mp.mpf(theta) / 2)
        return [mp.sqrt(mp.binomial(nu, k)) * s ** k * c ** (nu - k) for k in range(nu + 1)]


def su2_functionals(nu, theta, phi, N):
    """(f, E) of the SU(2) coherent state, each an mpf at `DPS` digits.

    Its moduli are the exact sqrt(binom(nu, k)) s^k c^(nu-k), s = sin(theta/2)
    and c = cos(theta/2) of the float theta in (0, pi), by their ratios from
    the largest one; moduli below 10^-(2 DPS) of it are dropped, as their
    products move no digit of a lag.  The phase e^(i phi k) scales the band
    sum of lag d by cos(phi d)."""
    with mp.workdps(DPS):
        s, c = mp.sin(mp.mpf(theta) / 2), mp.cos(mp.mpf(theta) / 2)
        top = min(int(round(nu * float(s) ** 2)), nu)
        floor = mp.mpf(10) ** (-2 * DPS)
        moduli = {top: mp.one}
        for step in (1, -1):
            k, m = top, mp.one
            while 0 <= k + step <= nu and m >= floor:
                j = max(k, k + step)  # x_j / x_{j-1} = sqrt((nu - j + 1) / j) s / c
                ratio = mp.sqrt(mp.mpf(nu - j + 1) / j) * s / c
                m = m * ratio if step == 1 else m / ratio
                k += step
                moduli[k] = m
        x = [moduli[k] for k in range(min(moduli), max(moduli) + 1)]
        norm = mp.fdot(x, x)
        lags = [mp.fdot(x[:-d], x[d:]) / norm for d in range(1, N + 1)]
        f = 2 / mp.mpf(N + 2) + mp.fsum(
            2 * (N + 1 - d) * mp.cos(mp.mpf(phi) * d) * lag
            for d, lag in enumerate(lags, 1)) / ((N + 1) * (N + 2))
        e = mp.pi / 8 * mp.fsum(2 * (N + 1 - d) * lag for d, lag in enumerate(lags, 1)) / (N + 1)
        return f, e
