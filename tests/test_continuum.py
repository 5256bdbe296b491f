"""Band quadrature, discrete/continuum consistency, convergence checks."""

import numpy as np
import pytest
from scipy import integrate

from telefock import continuum, resources
from telefock.errors import HypothesisViolationError, QuadratureError, StateValidationError

from helpers import reference_accept, reference_band_integral


# Exact values of the continuum integrals for the flat profile chi = 1/sqrt(2),
# derived by direct evaluation of the band integral:
#   f_cont = 1 - (N+1)^2 / (3 nu (N+2))
#   E_cont = pi N / 8 - pi (N+1)^2 / (24 nu)
def flat_fidelity_exact(N, nu):
    return 1.0 - (N + 1) ** 2 / (3.0 * nu * (N + 2))


def flat_entanglement_exact(N, nu):
    return np.pi * N / 8.0 - np.pi * (N + 1) ** 2 / (24.0 * nu)


def test_kernel_moment_closed_form():
    rng = np.random.default_rng(50)
    for _ in range(25):
        b = rng.uniform(0.0, 3.0)
        a = b + rng.uniform(0.0, 3.0)
        for j in (0, 1, 2):
            quad = continuum.triangle_kernel_moment(a, b, j, "quad")
            closed = continuum.triangle_kernel_moment(a, b, j, "closed")
            assert abs(quad - closed) < 1e-10


def test_flat_profile_quadrature_matches_exact_integral():
    prof = continuum.flat_family()
    for N, nu in [(1, 100), (2, 250), (3, 400)]:
        assert continuum.fidelity_continuum(prof, N, nu) == pytest.approx(
            flat_fidelity_exact(N, nu), abs=1e-8
        )
        assert continuum.entanglement_continuum(prof, N, nu) == pytest.approx(
            flat_entanglement_exact(N, nu), abs=1e-8
        )


def test_flat_profile_approaches_discrete_closed_forms():
    # the continuum and exact discrete values differ by O(1/nu); at nu = 400
    # both functionals agree with the closed forms to better than 1e-3
    prof = continuum.flat_family()
    N, nu = 1, 400
    f_exact = 1.0 - N / (3.0 * (nu + 1.0))
    e_exact = np.pi * N * (3 * nu - N + 1) / (24.0 * (nu + 1.0))
    assert abs(continuum.fidelity_continuum(prof, N, nu) - f_exact) < 1e-3
    assert abs(continuum.entanglement_continuum(prof, N, nu) - e_exact) < 1e-3


def test_double_well_profile_matches_discrete_ground_state():
    nu, N, gamma = 400, 2, 10.0
    prof = continuum.double_well_profile(lambda _nu: gamma)
    f_cont = continuum.fidelity_continuum(prof, N, nu)
    f_disc = 1.0 - prof.one_minus_fidelity(nu, N)
    assert abs(f_cont - f_disc) / f_disc < 0.01


def test_factorized_profile_matches_pure_form():
    # the factorized sum/difference form of a Gaussian equals the pure form
    sigma_z = 0.05
    pure = continuum.gaussian_bump_family(0.0, lambda nu: sigma_z)
    factorized = continuum.factorized_gaussian_profile(sigma_z)
    for N, nu in [(1, 200), (2, 400)]:
        f_pure = continuum.fidelity_continuum(pure, N, nu)
        f_fact = continuum.fidelity_continuum(factorized, N, nu)
        assert abs(f_pure - f_fact) < 1e-8
        e_pure = continuum.entanglement_continuum(pure, N, nu)
        e_fact = continuum.entanglement_continuum(factorized, N, nu)
        assert abs(e_pure - e_fact) < 1e-8


def test_density_profile_kind():
    flat = continuum.flat_family()
    density = continuum.ContinuumProfile(
        smoothness="twice",
        omega_of_nu=lambda nu: flat.omega(nu),
    )
    f_flat = continuum.fidelity_continuum(flat, 1, 100)
    f_density = continuum.fidelity_continuum(density, 1, 100)
    assert abs(f_flat - f_density) < 1e-12


def test_spike_profile_returns_baseline():
    prof = continuum.spike_profile(width=1e-4)
    assert prof.smoothness == "none"
    f = continuum.fidelity_continuum(prof, 2, 100)
    assert abs(f - 1.0 / 4.0) < 0.01


def test_profile_normalization_guard():
    bad = continuum.ContinuumProfile(
        smoothness="twice",
        chi_of_nu=lambda nu: (lambda z: np.full_like(np.asarray(z, float), 1.0)),
    )
    with pytest.raises(StateValidationError):
        continuum.fidelity_continuum(bad, 1, 100)


def test_center_shift_invariance():
    # moving the bump center leaves both functionals unchanged as long as the
    # support stays inside the imbalance interval
    sigma = lambda nu: 0.05
    centered = continuum.gaussian_bump_family(0.0, sigma)
    shifted = continuum.gaussian_bump_family(0.3, sigma)
    for N, nu in [(1, 200), (2, 400)]:
        f0 = continuum.fidelity_continuum(centered, N, nu)
        f1 = continuum.fidelity_continuum(shifted, N, nu)
        assert abs(f0 - f1) < 1e-8


def test_discrete_continuum_envelope():
    # |f_closed(discretized) - f_continuum| < 10/nu for smooth profiles
    for prof in (continuum.flat_family(), continuum.gaussian_beta_family(0.8)):
        for nu in (200, 400, 800):
            N = 2
            f_disc = 1.0 - prof.one_minus_fidelity(nu, N)
            f_cont = continuum.fidelity_continuum(prof, N, nu)
            assert abs(f_disc - f_cont) < 10.0 / nu


def test_proposition2_flat_family_slope():
    report = continuum.check_proposition2(
        continuum.flat_family(), 1, [50, 100, 200, 400, 800, 1600, 3200]
    )
    assert report.converges
    assert report.hypothesis_flags == []
    # tail of 1 - f against 1/nu has slope N/3
    half = len(report.nu_grid) // 2
    inv_nu = 1.0 / np.array(report.nu_grid[half:])
    slope = np.polyfit(inv_nu, np.array(report.one_minus_f[half:]), 1)[0]
    assert abs(slope - 1.0 / 3.0) / (1.0 / 3.0) < 0.05
    assert report.fitted_exponent == pytest.approx(1.0, abs=0.05)


def test_proposition2_gaussian_family_converges_to_zero_rate():
    report = continuum.check_proposition2(
        continuum.gaussian_beta_family(0.75), 2, [250, 500, 1000, 2000, 4000]
    )
    assert report.converges
    assert report.hypothesis_flags == []
    scaled = np.array(report.one_minus_f) * np.array(report.nu_grid) / 2.0
    assert np.all(np.diff(scaled) < 0.0)
    assert scaled[-1] < 0.2


def test_proposition2_flags_noon_family():
    report = continuum.check_proposition2(
        continuum.discrete_only_family(resources.noon_amplitudes),
        1,
        [10, 20, 40, 80],
    )
    assert "profile-not-continuous" in report.hypothesis_flags
    assert "no-convergence" in report.hypothesis_flags
    assert not report.converges
    # fidelity pinned at the separable baseline: 1 - f stays at 1/3 for N=1
    assert np.allclose(report.one_minus_f, 1.0 / 3.0, atol=1e-12)


def test_proposition2_grid_validation():
    with pytest.raises(StateValidationError):
        continuum.check_proposition2(continuum.flat_family(), 1, [10, 20, 30])
    with pytest.raises(StateValidationError):
        continuum.check_proposition2(continuum.flat_family(), 1, [10, 20, 20, 40])


def test_proposition3_two_bumps():
    z0 = np.sqrt(3.0) / 2.0
    width = lambda nu: float(nu) ** -0.5
    a = continuum.gaussian_bump_family(-z0, width)
    b = continuum.gaussian_bump_family(z0, width)
    c = 1.0 / np.sqrt(2.0)
    report = continuum.check_proposition3(a, b, c, c, 2, [100, 200, 400, 800])
    assert report.converges
    assert report.hypothesis_flags == []
    assert abs(report.diagnostics["overlaps"][-1]) < 1e-12


def test_proposition3_single_component_reduces_to_proposition2():
    prof = continuum.gaussian_beta_family(0.75)
    grid = [100, 200, 400, 800]
    sup = continuum.check_proposition3(prof, continuum.flat_family(), 1.0, 0.0, 2, grid)
    solo = continuum.check_proposition2(prof, 2, grid)
    assert np.allclose(sup.one_minus_f, solo.one_minus_f, atol=1e-14)


def test_proposition3_flags_overlapping_components():
    prof = continuum.gaussian_bump_family(0.0, lambda nu: 0.1)
    c = 1.0 / np.sqrt(2.0)
    report = continuum.check_proposition3(prof, prof, c, c, 2, [100, 200, 400, 800])
    assert "components-not-asymptotically-orthogonal" in report.hypothesis_flags


def test_proposition3_rejects_negative_coefficients():
    prof = continuum.gaussian_beta_family(0.75)
    with pytest.raises(HypothesisViolationError):
        continuum.check_proposition3(prof, prof, -0.5, 1.0, 2, [100, 200, 400, 800])


def test_report_json_round_trip():
    import dataclasses
    import json

    report = continuum.check_proposition2(
        continuum.flat_family(), 1, [50, 100, 200, 400]
    )
    payload = json.loads(json.dumps(dataclasses.asdict(report)))
    assert payload["nu_grid"] == [50, 100, 200, 400]
    assert len(payload["one_minus_f"]) == 4
    assert set(payload) >= {
        "nu_grid", "one_minus_f", "fitted_exponent", "converges", "hypothesis_flags"
    }


# ---------------------------------------------------------------------------
# The strip integral: vectorized first qagp step with a qagp fallback
# ---------------------------------------------------------------------------

def scalar_band_integral(omega, nu, N, features):
    """The band integral by nested scalar `quad`, independent of the GK21 path."""
    tol = dict(epsabs=continuum.QUAD_EPSABS, epsrel=continuum.QUAD_EPSREL, limit=400)
    w = 2.0 * (N + 1.0) / nu

    def inner(u):
        b = min(w, 2.0 - 2.0 * abs(u))
        if b <= 0.0:
            return 0.0
        g = lambda v: float(np.real(
            (N + 1.0 - abs(v) * nu / 2.0) * omega(u + v / 2.0, u - v / 2.0)))
        return integrate.quad(g, -b, b, points=[0.0], **tol)[0]

    pts = sorted({-1.0 + w / 2.0, 1.0 - w / 2.0, *features})
    return integrate.quad(inner, -1.0, 1.0, points=[p for p in pts if -1.0 < p < 1.0],
                          **tol)[0]


def scalar_reference(profile, N, nu):
    """(f, E) from the scalar band integral, for profiles with omega >= 0."""
    om = continuum._checked_omega(profile, nu)
    band = scalar_band_integral(om, nu, N, profile._features(nu))
    f = 1.0 / (N + 2.0) + (nu / 2.0) * band / ((N + 1.0) * (N + 2.0))
    e = -np.pi / 8.0 + (np.pi * nu / 16.0) * band / (N + 1.0)
    return f, e


@pytest.fixture
def strip_quad_calls(monkeypatch):
    """Counts `_qagpe` runs on a strip [-b, b] split at 0 (the adaptive fallback)."""
    calls = []
    qagpe = continuum._qagpe

    def counting(f, a, b, points):
        if points == [0.0] and a == -b:
            calls.append((a, b))
        return qagpe(f, a, b, points)

    monkeypatch.setattr(continuum, "_qagpe", counting)
    return calls


@pytest.mark.parametrize("profile", [
    continuum.flat_family(),
    continuum.gaussian_beta_family(0.8),
    continuum.double_well_profile(lambda nu: 10.0),
    continuum.double_well_bimodal_profile(-2.0),
], ids=["flat", "gaussian", "double_well", "bimodal"])
def test_strip_integral_agrees_with_scalar_quad(profile):
    # every stock profile is real and nonnegative, so one band integral
    # serves both functionals
    for nu in (100, 1000, 10000):
        for N in (1, 2, 3):
            f_ref, e_ref = scalar_reference(profile, N, nu)
            f = continuum.fidelity_continuum(profile, N, nu)
            e = continuum.entanglement_continuum(profile, N, nu)
            assert abs(f - f_ref) <= 1e-14 * abs(f_ref)
            assert abs(e - e_ref) <= 1e-14 * abs(e_ref)


def test_smooth_profile_needs_no_fallback(strip_quad_calls):
    continuum.fidelity_continuum(continuum.flat_family(), 2, 100)
    assert strip_quad_calls == []


def test_spike_profile_falls_back_to_adaptive_quad(strip_quad_calls):
    prof = continuum.spike_profile(width=1e-4)
    f = continuum.fidelity_continuum(prof, 2, 100)
    assert len(strip_quad_calls) > 0
    f_ref, _ = scalar_reference(prof, 2, 100)
    assert abs(f - f_ref) <= 1e-14 * abs(f_ref)


# spikes narrow against the strip width 2(N+1)/nu, so some strips fail the
# first step's error test
FALLBACK_CASES = [(1e-5, 0.0, 10000, 3), (1e-5, -0.55, 10000, 1), (1e-5, 0.8, 1000, 2),
                  (1e-4, 0.3, 1000, 2), (1e-4, -0.55, 50, 1), (1e-3, 0.8, 50, 3),
                  (3e-3, -0.55, 50, 1)]


@pytest.mark.parametrize("width, center, nu, N", FALLBACK_CASES)
def test_strip_fallback_matches_scalar_quad_composition(width, center, nu, N,
                                                        strip_quad_calls):
    prof = continuum.spike_profile(width, center)
    om = continuum._checked_omega(prof, nu)
    features = prof._features(nu)
    band = continuum._band_integral(om, nu, N, features)
    fallbacks = []
    assert band == reference_band_integral(om, nu, N, features, fallbacks)
    # the same strips fall back, each split at 0
    assert strip_quad_calls == fallbacks != []


def test_gk21_pair_is_quadpack_first_step():
    # same nodes as `quad` on [-b, 0] + [0, b]; where `quad` stops after its
    # first step (42 evaluations) value and error estimate agree, elsewhere
    # the error estimate fails the acceptance test
    for b in (2e-4, 0.3, 1.5):
        for s in np.geomspace(b / 3.0, 30.0 * b, 7):
            f = lambda v: np.exp(-(np.asarray(v) / s) ** 2) * np.cos(3.0 * np.asarray(v)) - 0.2
            seen = []
            val, err, info = integrate.quad(
                lambda v: seen.append(v) or float(f(v)), -b, b, points=[0.0],
                epsabs=continuum.QUAD_EPSABS, epsrel=continuum.QUAD_EPSREL,
                limit=400, full_output=1,
            )
            nodes = []
            got, got_err, _, _ = continuum._panels(lambda v: nodes.append(v) or f(v),
                                                   np.array([-b, 0.0]), np.array([0.0, b]))
            got, got_err = got[0] + got[1], got_err[0] + got_err[1]
            assert set(np.concatenate(nodes).ravel().tolist()) == set(seen[:42])
            tol = max(continuum.QUAD_EPSABS, continuum.QUAD_EPSREL * abs(got))
            if info["neval"] == 42:
                assert abs(got - val) <= 1e-15 * abs(val)
                assert abs(got_err - err) <= 1e-13 * err
                assert got_err <= tol
            else:
                assert got_err > tol


def test_constant_density_broadcasts():
    const = continuum.ContinuumProfile(
        smoothness="twice", omega_of_nu=lambda nu: (lambda z, y: 0.5),
    )
    flat = continuum.flat_family()
    for N, nu in [(1, 100), (3, 1000)]:
        assert continuum.fidelity_continuum(const, N, nu) == pytest.approx(
            continuum.fidelity_continuum(flat, N, nu), rel=1e-14)
        assert continuum.entanglement_continuum(const, N, nu) == pytest.approx(
            continuum.entanglement_continuum(flat, N, nu), rel=1e-14)


def test_nan_pure_profile_raises():
    def chi(z):
        z = np.asarray(z, dtype=float)
        return np.where(z > 0.5, np.nan, 1.0 / np.sqrt(2.0))

    prof = continuum.ContinuumProfile(smoothness="twice", chi_of_nu=lambda nu: chi)
    with pytest.raises(QuadratureError, match="non-finite"):
        continuum.fidelity_continuum(prof, 1, 100)
    with pytest.raises(QuadratureError, match="non-finite"):
        continuum.entanglement_continuum(prof, 1, 100)


def test_nan_density_profile_raises():
    # finite on the diagonal, so the norm check passes; the NaN above it
    # reaches the strip integral, whose quadrature must raise
    def omega(z, y):
        return np.where(np.asarray(z) > np.asarray(y), np.nan, 0.5)

    prof = continuum.ContinuumProfile(smoothness="twice", omega_of_nu=lambda nu: omega)
    assert prof.diagonal_norm(100) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(QuadratureError, match="non-finite"):
        continuum.fidelity_continuum(prof, 1, 100)


def test_non_finite_diagonal_norm_rejected(monkeypatch):
    monkeypatch.setattr(continuum.ContinuumProfile, "diagonal_norm",
                        lambda self, nu: float("nan"))
    with pytest.raises(StateValidationError, match="nan"):
        continuum.fidelity_continuum(continuum.flat_family(), 1, 100)


def test_double_well_family_chooses_the_shape():
    assert continuum.double_well_family(10.0).features_of_nu(100) == (0.0,)
    z0 = np.sqrt(1.0 - 1.0 / 4.0)
    assert continuum.double_well_family(-2.0).features_of_nu(100) == (-z0, z0)
    with pytest.raises(HypothesisViolationError, match="gamma > -1"):
        continuum.fidelity_continuum(continuum.double_well_family(-1.0), 1, 100)


def test_factorized_gaussian_is_a_density():
    prof = continuum.factorized_gaussian_profile(0.05)
    assert prof.kind == "density"
    with pytest.raises(StateValidationError):
        prof.chi(100)


def test_convergence_report_verdict_flags_and_fit():
    grid = [10, 20, 40, 80]
    falling = np.array([0.4, 0.2, 0.1, 0.05])
    report = continuum.convergence_report(grid, falling, 1.0 / np.array(grid), ["a"], {})
    assert report.converges and report.hypothesis_flags == ["a"]
    assert report.fitted_exponent == pytest.approx(1.0, abs=1e-12)
    # a stricter verdict is passed in; a nonpositive scale leaves no fit
    report = continuum.convergence_report(grid, falling, np.zeros(4), ["a"], {},
                                          converges=False)
    assert not report.converges and report.hypothesis_flags == ["a", "no-convergence"]
    assert report.fitted_exponent is None


# ---------------------------------------------------------------------------
# The array-driven QUADPACK qagp port, against scipy's on scalar wrappers
# ---------------------------------------------------------------------------

QAGP_CASES = {
    "smooth": (lambda x: np.exp(-x ** 2) * np.cos(3.0 * x), -2.0, 3.0, [1.1, -0.7, 0.2]),
    "no_breakpoints": (lambda x: np.exp(-(x / 0.01) ** 2), -1.0, 1.0, []),
    "kink_at_breakpoint": (lambda x: np.abs(x - 0.3) * np.exp(x), -1.0, 1.0, [0.3, 0.3, 2.0]),
    "kink_between_breakpoints": (lambda x: np.abs(x - 1.0 / 3.0), -1.0, 1.0, [0.0]),
    # the epsilon extrapolation, after 9 intervals and 336 evaluations
    "endpoint_log_singularity": (lambda x: x ** -0.5 * np.log(x), 0.0, 1.0, [0.5]),
    "oscillating": (lambda x: np.sin(1.0 / x), 1e-3, 1.0, [0.5]),
    # roundoff flag, with an error estimate small enough to accept
    "single_precision": (lambda x: np.exp(x).astype(np.float32).astype(float), 0.0, 1.0, [0.5]),
    # divergence flag, accepted
    "barely_divergent": (lambda x: x ** -1.0001, 0.0, 1.0, [0.5]),
    # subdivision limit, which raises
    "divergent": (lambda x: 1.0 / x, 0.0, 1.0, [0.5]),
    # an infinite value at the center node of [0.25, 1], which raises
    "infinite_at_a_node": (lambda x: np.where(x == 0.625, np.inf, x), 0.0, 1.0, [0.25]),
}


def scalar_qagp(f, a, b, points):
    """scipy's qagp on a scalar wrapper of the array integrand f."""
    return integrate.quad(
        lambda x: float(f(np.array([x]))[0]), a, b, points=points,
        epsabs=continuum.QUAD_EPSABS, epsrel=continuum.QUAD_EPSREL,
        limit=continuum.QUAD_LIMIT, full_output=1,
    )


def outcome(quadrature, *args):
    """The value of a checked quadrature, or the QuadratureError it raised."""
    try:
        return quadrature(*args)[0]
    except QuadratureError as exc:
        return exc


@pytest.mark.parametrize("case", QAGP_CASES.values(), ids=QAGP_CASES.keys())
def test_qagp_port_follows_scipy_qagp(case):
    f, a, b, points = case
    val, err, info = continuum._qagpe(f, a, b, points)
    out = scalar_qagp(f, a, b, points)
    ref_val, ref_err, ref = out[:3]
    last = ref["last"]
    assert (info["last"], info["neval"]) == (last, ref["neval"])
    assert info["alist"] == ref["alist"][:last].tolist()
    assert info["blist"] == ref["blist"][:last].tolist()
    for got, want in ((info["rlist"], ref["rlist"][:last]), (info["elist"], ref["elist"][:last]),
                      ([val, err], [ref_val, ref_err])):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # the same verdict under the same acceptance rule
    checked = outcome(continuum._qagp, f, a, b, points)
    ref_checked = outcome(reference_accept, out)
    if isinstance(ref_checked, QuadratureError):
        assert str(checked).split(":")[0] == str(ref_checked).split(":")[0]
    else:
        assert checked == val


def test_qagp_port_cases_reach_each_path():
    assert continuum._qagpe(*QAGP_CASES["endpoint_log_singularity"])[2]["last"] == 9
    assert [continuum._qagpe(*QAGP_CASES[name])[2]["ier"]
            for name in ("single_precision", "barely_divergent", "divergent")] == [2, 5, 1]
    with pytest.raises(QuadratureError, match="failed to converge"):
        continuum._qagp(*QAGP_CASES["divergent"])


def test_band_integral_calls_omega_once_per_qagp_batch(monkeypatch):
    # one call on the u-nodes of the first pass, then one per bisection step:
    # 8 calls here, for 399 u-nodes
    prof = continuum.double_well_bimodal_profile(-2.0)
    nu, N = 300, 2
    om = continuum._checked_omega(prof, nu)
    calls = []

    def counted(z, y):
        calls.append(np.shape(z))
        return om(z, y)

    runs = []
    qagpe = continuum._qagpe

    def recorded(*args):
        runs.append(qagpe(*args))
        return runs[-1]

    monkeypatch.setattr(continuum, "_qagpe", recorded)
    band = continuum._band_integral(counted, nu, N, prof._features(nu))
    [(_, _, info)] = runs
    steps = info["neval"] // 21 - info["last"]  # neval = 21 (last - steps) + 42 steps
    assert 0 < len(calls) <= steps + 1
    assert band == continuum._band_integral(om, nu, N, prof._features(nu))
