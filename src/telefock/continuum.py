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
QUAD_LIMIT = 400
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

    The `chi` and `omega` callables must accept numpy arrays of any shape
    and broadcast over them (every stock profile does; a constant omega is
    fine): the band integral evaluates omega once per batch of outer nodes,
    on an array that holds QUADPACK's first GK21 step across the strip at
    every node, and once per bisection step of a node whose step fails its
    error test.
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
        # a constant omega gives a scalar
        val, _ = _qagp(lambda z: np.broadcast_to(np.real(om(z, z)), z.shape), -1.0, 1.0,
                       self._features(nu))
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
# the 21 nodes of one panel, from its left end to its right end
_GK21_T = np.concatenate((-_GK21_X, _GK21_X[-2::-1]))
# dqk21's sums run over the center, then over the pairs f(c - h x_j) +
# f(c + h x_j): for resk, resg and resabs those of the Gauss abscissae
# j = 1, 3, .., 9 first, for resasc in the order j = 0..9.  Gathering the
# node rows by `_GK21_PAIRS` (or `_GK21_PAIRS_ASC`) puts the left nodes in
# order in rows 0..10 and their right partners in rows 11..21: the center
# comes twice, as f(c) + f(c), whose halved weight makes the same product.
_GK21_LEFT = np.array([10, 1, 3, 5, 7, 9, 0, 2, 4, 6, 8])
_GK21_LEFT_ASC = np.array([10, *range(10)])
_GK21_PAIRS, _GK21_PAIRS_ASC = (np.concatenate((j, np.where(j == 10, 10, 20 - j)))
                                for j in (_GK21_LEFT, _GK21_LEFT_ASC))
_GK21_HALVED = np.array([1.0] * 10 + [0.5])
_GK21_W3 = (np.stack((_GK21_WK, _GK21_WG, _GK21_WK)) * _GK21_HALVED)[:, _GK21_LEFT]
_GK21_WK_ASC = (_GK21_WK * _GK21_HALVED)[_GK21_LEFT_ASC]
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
_OFLOW = float(np.finfo(float).max)


def _gk21(node: np.ndarray, hlgth) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK dqk21 on a batch of panels.

    `node[k]` holds f at `center + hlgth * _GK21_T[k]` for every panel, its
    trailing shape the batch's, which `hlgth` broadcasts against.  Returns
    dqk21's (result, abserr, resabs, resasc) per panel, each sum added in
    dqk21's order (`np.add.accumulate` adds in order).
    """
    batch = (..., *[None] * (node.ndim - 1))  # weights broadcast over the batch
    with np.errstate(all="ignore"):  # IEEE arithmetic, as QUADPACK's: inf - inf is NaN
        paired = node[_GK21_PAIRS]
        absp = np.abs(paired)
        terms = np.concatenate((paired[:11] + paired[11:],) * 2 + (absp[:11] + absp[11:],))
        terms = terms.reshape((3, 11) + node.shape[1:]) * _GK21_W3[batch]
        resk, resg, resabs = np.add.accumulate(terms, axis=1)[:, -1]
        dev = np.abs(node[_GK21_PAIRS_ASC] - 0.5 * resk)
        resasc = np.add.accumulate((dev[:11] + dev[11:]) * _GK21_WK_ASC[batch])[-1]
        dh = np.abs(hlgth)
        resabs, resasc = resabs * dh, resasc * dh
        abserr = np.abs((resk - resg) * hlgth)
        # resasc min(1, r**1.5) as min(1, r)**1.5, which cannot overflow;
        # fmin and fmax drop a NaN argument, as QUADPACK's C translation does
        scaled = resasc * np.fmin(200.0 * abserr / resasc, 1.0) ** 1.5
        abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                          np.fmax(50.0 * _EPMACH * resabs, abserr), abserr)
        return resk * hlgth, abserr, resabs, resasc


def _panels(f, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """dqk21's (result, abserr, resabs, resasc) on the panels [lo, hi], of
    any broadcast shape, from one call of f on all their nodes (shape
    `(21,) + ` the panels' shape)."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    return _gk21(f(centr + np.multiply.outer(_GK21_T, hlgth)), hlgth)


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """QUADPACK dqpsrt: keep `iord` (interval indices, position p at iord[p-1])
    in descending order of `elist` after interval `maxerr` was bisected into
    itself and interval `last - 1`.  Returns the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        errmax = elist[maxerr]
        # only after subdivision increased the error: move maxerr up
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 2]
            if errmax <= elist[isucc]:
                break
            iord[nrmax - 1] = isucc
            nrmax -= 1
        # the number of entries kept ordered shrinks as the limit nears
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last - 1]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i - 1]
            if errmax >= elist[isucc]:
                iord[i - 2] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # insert errmin bottom-up
                    isucc = iord[k - 1]
                    if errmin < elist[isucc]:
                        iord[k] = last - 1
                        break
                    iord[k] = isucc
                    k -= 1
                else:
                    iord[i - 1] = last - 1
                break
            iord[i - 2] = isucc
        else:
            iord[jbnd - 1] = maxerr
            iord[jupbn - 1] = last - 1
    maxerr = iord[nrmax - 1]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int):
    """QUADPACK dqelg: the epsilon algorithm on epstab[1..n].

    Both lists are 1-based and updated in place: epstab (with room to index
    52) and res3la[1..3], the last three results.  Returns (n, result,
    abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2, k3 = k1 - 1, k1 - 2
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k3], epstab[k2], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 equal to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements, or irregular behaviour: drop part of the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):  # shift the table
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1:4] = [res3la[2], res3la[3], result]
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagpe(f, a: float, b: float, points) -> tuple[float, float, dict]:
    """QUADPACK dqagpe (Piessens et al., 1983) for a < b, with f evaluated
    on arrays: one call on the 21 nodes of every panel between the
    breakpoints, then one call on the 42 nodes of each bisection step.

    The breakpoints are `points` strictly inside (a, b), deduplicated, as
    `scipy.integrate.quad` passes them.  It keeps qagp's GK21 panels, its
    error ordering (dqpsrt), epsilon extrapolation (dqelg), roundoff, limit
    and divergence flags, with `QUAD_EPSABS`, `QUAD_EPSREL` and
    `QUAD_LIMIT`.  Returns (result, abserr, info): info holds `ier` (0 on
    success, else QUADPACK's code), `neval`, `last` and the first `last`
    entries of alist, blist, rlist, elist and level.
    """
    epsabs, epsrel, limit = QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT
    inner = np.unique(np.asarray(points, dtype=float))
    edges = np.concatenate(([a], inner[(a < inner) & (inner < b)], [b]))
    nint = len(edges) - 1
    rlist, elist, defabs, resa = (r.tolist() for r in _panels(f, edges[:-1], edges[1:]))
    ier = 0
    result = abserr = resabs = 0.0
    for i in range(nint):
        abserr += elist[i]
        result += rlist[i]
        resabs += defabs[i]
    errsum = 0.0
    for i in range(nint):
        if elist[i] == resa[i] and elist[i] != 0.0:
            elist[i] = abserr
        errsum += elist[i]
    pad = [0.0] * (limit - nint)
    alist, blist = edges[:-1].tolist() + pad, edges[1:].tolist() + pad
    rlist, elist = rlist + pad, elist + pad
    level = [0] * limit
    iord = list(range(nint)) + [0] * (limit - nint)
    last, neval = nint, 21 * nint
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
        ier = 2
    for i in range(nint - 1):  # order iord by decreasing error
        ind1, k = iord[i], i
        for j in range(i + 1, nint):
            ind2 = iord[j]
            if not elist[ind1] > elist[ind2]:
                ind1, k = ind2, j
        if ind1 != iord[i]:
            iord[k], iord[i] = iord[i], ind1
    if limit < nint + 1:
        ier = 1

    if ier == 0 and not abserr <= errbnd:
        rlist2 = [0.0] * 53  # dqelg's 1-based table
        rlist2[1] = result
        res3la = [0.0] * 4
        maxerr = iord[0]
        errmax = elist[maxerr]
        area = result
        nrmax, nres, numrl2, ktmin = 1, 0, 1, 0
        extrap = noext = False
        erlarg, ertest, correc = errsum, errbnd, 0.0
        levmax = 1
        iroff1 = iroff2 = iroff3 = ierro = 0
        abserr = _OFLOW
        ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1
        converged = False
        for last in range(nint + 1, limit + 1):
            # bisect the interval with the nrmax-th largest error estimate
            levcur = level[maxerr] + 1
            a1, b2 = alist[maxerr], blist[maxerr]
            a2 = b1 = 0.5 * (a1 + b2)
            erlast = errmax
            (area1, area2), (error1, error2), _, (defab1, defab2) = (
                r.tolist() for r in _panels(f, np.array([a1, a2]), np.array([b1, b2])))
            neval += 42
            area12 = area1 + area2
            erro12 = error1 + error2
            errsum = errsum + erro12 - errmax
            area = area + area12 - rlist[maxerr]
            if defab1 != error1 and defab2 != error2:
                if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                        or erro12 < 0.99 * errmax):
                    if extrap:
                        iroff2 += 1
                    else:
                        iroff1 += 1
                if last > 10 and erro12 > errmax:
                    iroff3 += 1
            level[maxerr] = level[last - 1] = levcur
            rlist[maxerr], rlist[last - 1] = area1, area2
            errbnd = max(epsabs, epsrel * abs(area))
            if iroff1 + iroff2 >= 10 or iroff3 >= 20:
                ier = 2
            if iroff2 >= 5:
                ierro = 3
            if last == limit:
                ier = 1
            # bad integrand behaviour at a point of the range
            if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
                ier = 4
            if error2 > error1:
                alist[maxerr], alist[last - 1], blist[last - 1] = a2, a1, b1
                rlist[maxerr], rlist[last - 1] = area2, area1
                elist[maxerr], elist[last - 1] = error2, error1
            else:
                alist[last - 1], blist[maxerr], blist[last - 1] = a2, b1, b2
                elist[maxerr], elist[last - 1] = error1, error2
            maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
            if errsum <= errbnd:
                converged = True
                break
            if ier != 0:
                break
            if noext:
                continue
            erlarg -= erlast
            if levcur + 1 <= levmax:
                erlarg += erro12
            if not extrap:
                # extrapolate only once the next interval is a smallest one
                if level[maxerr] + 1 <= levmax:
                    continue
                extrap = True
                nrmax = 2
            if ierro != 3 and erlarg > ertest:
                # the smallest interval has the largest error: bisect the
                # larger intervals first, while erlarg exceeds ertest
                jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
                larger = False
                for _ in range(nrmax, jupbnd + 1):
                    maxerr = iord[nrmax - 1]
                    errmax = elist[maxerr]
                    larger = level[maxerr] + 1 <= levmax
                    if larger:
                        break
                    nrmax += 1
                if larger:
                    continue
            numrl2 += 1
            rlist2[numrl2] = area
            if numrl2 > 2:
                numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
                ktmin += 1
                if ktmin > 5 and abserr < 1e-3 * errsum:
                    ier = 5
                if abseps < abserr:
                    ktmin = 0
                    abserr, result, correc = abseps, reseps, erlarg
                    ertest = max(epsabs, epsrel * abs(reseps))
                    if abserr < ertest:
                        break
                if numrl2 == 1:
                    noext = True
                if ier >= 5:
                    break
            # prepare bisection of the smallest interval
            maxerr = iord[0]
            errmax = elist[maxerr]
            nrmax = 1
            extrap = False
            levmax += 1
            erlarg = errsum

        # the result: the extrapolated one, unless the sum over the intervals
        # is better, then the divergence test
        summed = converged or abserr == _OFLOW
        tested = not summed
        if tested and ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
            tested = not summed and area != 0.0
        if tested and not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = float(np.float64(result) / area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
        if summed:
            result = 0.0
            for r in rlist[:last]:
                result += r
            abserr = errsum
    if ier > 2:
        ier -= 1
    info = dict(ier=ier, neval=neval, last=last, alist=alist[:last], blist=blist[:last],
                rlist=rlist[:last], elist=elist[:last], level=level[:last])
    return result, abserr, info


_IER_MESSAGES = {
    1: f"the maximum number of subdivisions ({QUAD_LIMIT}) has been achieved",
    2: "the occurrence of roundoff error is detected",
    3: "extremely bad integrand behavior occurs at some points of the integration interval",
    4: "the algorithm does not converge: roundoff error in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def _qagp(f, a: float, b: float, points) -> tuple[float, float]:
    """(value, error estimate) of `_qagpe`, or the QuadratureError it stands for.

    A flagged result (roundoff, say) with a tiny error estimate is accepted;
    one with a substantial residual error raises, and so does a non-finite
    value or estimate.
    """
    val, err, info = _qagpe(f, a, b, points)
    if not (np.isfinite(val) and np.isfinite(err)):
        raise QuadratureError(f"quadrature gave a non-finite result: {val!r} +/- {err!r}")
    if info["ier"] != 0 and err > max(1e-9, 1e-7 * abs(val)):
        raise QuadratureError(f"quadrature failed to converge: {_IER_MESSAGES[info['ier']]}")
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
    val, _ = _qagp(lambda x: (a - np.abs(x)) * x ** j, -b, b, [0.0])
    return val


def _band_integral(omega, nu: float, N: int, features) -> float:
    """Integral of max(0, N+1 - |z-y| nu/2) g(z, y) over the square.

    Rotated coordinates u = (z+y)/2, v = z - y confine the kernel to
    |v| <= w = 2(N+1)/nu, which the inner integral resolves explicitly; a
    naive quadrature over (z, y) misses the band entirely once nu is large.
    The outer integral is `_qagp`; each batch of its u-nodes gets its inner
    integrals from one vectorized first qagp step (`_panels` on [-b, 0] and
    [0, b]: one omega call on every u and v), and a u whose step fails its
    error test falls back to `_qagp` on its strip.
    """
    w = 2.0 * (N + 1.0) / nu

    def g(u, v):
        return np.real((N + 1.0 - np.abs(v) * nu / 2.0) * omega(u + v / 2.0, u - v / 2.0))

    def inner(u: np.ndarray) -> np.ndarray:
        b = np.minimum(w, 2.0 - 2.0 * np.abs(u))
        out = np.zeros(u.shape)
        live = b > 0.0
        u, b = u[live], b[live]
        edges = np.multiply.outer([-1.0, 0.0, 1.0], b)
        val, err, _, _ = _panels(lambda v: g(u, v), edges[:-1], edges[1:])
        val, err = val[0] + val[1], err[0] + err[1]
        # NaN fails the test too
        for i in np.flatnonzero(~(err <= np.maximum(QUAD_EPSABS, QUAD_EPSREL * np.abs(val)))):
            ui, bi = float(u[i]), float(b[i])
            val[i], _ = _qagp(lambda v: g(ui, v), -bi, bi, [0.0])
        out[live] = val
        return out

    val, _ = _qagp(inner, -1.0, 1.0, (-1.0 + w / 2.0, 1.0 - w / 2.0, *features))
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
