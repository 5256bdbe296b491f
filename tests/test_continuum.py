"""Closed-form band integrals, discrete/continuum consistency, convergence checks."""

import math

import numpy as np
import pytest

from telefock import continuum, resources
from telefock.errors import HypothesisViolationError, NumericalError, StateValidationError

import reference


# Exact values of the continuum integrals for the flat profile chi = 1/sqrt(2),
# derived by direct evaluation of the band integral:
#   f_cont = 1 - (N+1)^2 / (3 nu (N+2))
#   E_cont = pi N / 8 - pi (N+1)^2 / (24 nu)
def flat_fidelity_exact(N, nu):
    return 1.0 - (N + 1) ** 2 / (3.0 * nu * (N + 2))


def flat_entanglement_exact(N, nu):
    return np.pi * N / 8.0 - np.pi * (N + 1) ** 2 / (24.0 * nu)


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


def test_spike_profile_returns_baseline():
    prof = continuum.spike_profile(width=1e-4)
    assert prof.smoothness == "none"
    f = continuum.fidelity_continuum(prof, 2, 100)
    assert abs(f - 1.0 / 4.0) < 0.01


def test_profile_normalization_guard():
    bad = continuum.ContinuumProfile(
        smoothness="twice",
        mixture_of_nu=lambda nu: ((1.0,), (0.0,), math.inf),
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


def test_non_finite_diagonal_norm_rejected(monkeypatch):
    monkeypatch.setattr(continuum.ContinuumProfile, "diagonal_norm",
                        lambda self, nu: float("nan"))
    with pytest.raises(StateValidationError, match="nan"):
        continuum.fidelity_continuum(continuum.flat_family(), 1, 100)


def test_double_well_family_chooses_the_shape():
    assert continuum.double_well_family(10.0).mixture_of_nu(100)[1] == (0.0,)
    z0 = np.sqrt(1.0 - 1.0 / 4.0)
    assert continuum.double_well_family(-2.0).mixture_of_nu(100)[1] == (-z0, z0)
    with pytest.raises(HypothesisViolationError, match="gamma > -1"):
        continuum.fidelity_continuum(continuum.double_well_family(-1.0), 1, 100)


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




def test_discrete_only_family_has_no_continuum_functionals():
    prof = continuum.discrete_only_family(resources.noon_amplitudes)
    with pytest.raises(StateValidationError, match="no continuum amplitude"):
        continuum.fidelity_continuum(prof, 1, 100)


@pytest.mark.parametrize("mixture, match", [
    (((1.0, 1.0), (0.0,), 0.1), "one weight per center"),
    (((), (), 0.1), "one weight per center"),
    (((-0.5, 1.0), (0.0, 0.3), 0.1), "nonnegative"),
    (((1.0,), (0.0,), 0.0), "width > 0"),
    (((1.0,), (0.0,), math.nan), "width > 0"),
    (((1.0,), (math.nan,), 0.1), "finite"),
], ids=["too-many-weights", "empty", "negative-weight", "zero-width", "nan-width",
        "nan-center"])
def test_malformed_mixtures_are_rejected(mixture, match):
    prof = continuum.ContinuumProfile(smoothness="twice", mixture_of_nu=lambda nu: mixture)
    with pytest.raises(StateValidationError, match=match):
        continuum.fidelity_continuum(prof, 1, 100)


@pytest.mark.parametrize("profile", [
    continuum.flat_family(), continuum.gaussian_bump_family(0.2, lambda nu: 0.1),
], ids=["flat", "bump"])
def test_non_finite_functionals_raise_numerical_error(profile):
    for nu in (math.inf, math.nan):
        with pytest.raises(NumericalError, match="non-finite"):
            continuum.fidelity_continuum(profile, 1, nu)
        with pytest.raises(NumericalError, match="non-finite"):
            continuum.entanglement_continuum(profile, 1, nu)


def test_chi_is_the_mixture():
    prof = continuum.double_well_family(-2.0)
    weights, centers, s = prof.mixture_of_nu(1000)
    z = np.linspace(-1.0, 1.0, 9)
    want = sum(a * np.exp(-(z - c) ** 2 / (4.0 * s * s)) for a, c in zip(weights, centers))
    np.testing.assert_allclose(prof.chi(1000)(z), want, rtol=1e-15, atol=0.0)
    # the bumps are normalized on the line, and lie well inside [-1, 1] here
    assert prof.diagonal_norm(1000) == pytest.approx(1.0, abs=1e-14)
    assert np.all(continuum.flat_family().chi(50)(z) == np.sqrt(0.5))


# ---------------------------------------------------------------------------
# The closed form against the 40-digit reference of `reference.py`
# ---------------------------------------------------------------------------

def test_gauss_legendre_rule_matches_numpy():
    x, w = continuum._gauss_legendre(continuum._GL_NODES)
    want_x, want_w = np.polynomial.legendre.leggauss(continuum._GL_NODES)
    order = np.argsort(x)
    np.testing.assert_allclose(x[order], want_x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w[order], want_w, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("x, y", [(5.0, 6.0), (-6.0, -5.0), (0.7, 30.0), (-30.0, -0.7),
                                  (1e-3, 2e-3), (-0.3, 0.2), (-4.0, 3.0), (2.0, 2.0)])
def test_erf_difference_keeps_its_digits(x, y):
    want = reference.erf_difference(x, y)
    assert abs(continuum._erf_diff(x, y) - want) <= 1e-15 * abs(want)


def relative_errors(profile, N, nu):
    """|f - f_ref| / f_ref and |E - E_ref| / E_ref against the reference."""
    if profile.mixture(nu)[2] == math.inf:
        want = reference.flat_functionals(N, nu)
    else:
        want = reference.functionals(profile.mixture_of_nu(nu), nu, N)
    got = (continuum.fidelity_continuum(profile, N, nu),
           continuum.entanglement_continuum(profile, N, nu))
    return tuple(float(abs((g - r) / r)) for g, r in zip(got, want))


STOCK = {
    "flat": continuum.flat_family(),
    "gaussian beta=0.5": continuum.gaussian_beta_family(0.5),
    "gaussian beta=0.85": continuum.gaussian_beta_family(0.85),
    "double well gamma=0": continuum.double_well_family(0.0),
    "double well gamma=12": continuum.double_well_family(12.0),
    "bimodal gamma=-1.95": continuum.double_well_family(-1.95),
    "bimodal gamma=-3": continuum.double_well_family(-3.0),
}
STOCK_NU = (50, 80, 130, 200, 350, 600, 1000, 2000, 5000, 10_000, 30_000, 100_000)


@pytest.mark.parametrize("name", STOCK)
def test_stock_profiles_match_the_reference(name):
    # 7 profiles x 12 nu x 3 N = 252 cases, each f and E to 1e-14 relative
    errors = {(nu, N): relative_errors(STOCK[name], N, nu)
              for nu in STOCK_NU for N in (1, 2, 4)}
    assert {case: err for case, err in errors.items() if max(err) > 1e-14} == {}


def bump(center, s):
    return continuum.gaussian_bump_family(center, lambda nu: s)


# (profile, [(nu, N), ...]) where an integrator can go wrong: bumps cut by
# the edge of the square, spikes far narrower than the band, a band that
# covers the whole square (nu <= N+1) around a narrow bump, and bimodal
# bumps from heavily overlapping to one width from the edge
ADVERSARIAL = {
    "bump -0.995, s=0.003": (bump(-0.995, 0.003), [(200, 4), (200, 1), (1000, 2)]),
    "bump 0.999, s=0.001": (bump(0.999, 0.001), [(200, 4), (200, 1), (1000, 2)]),
    **{f"spike at {c}": (continuum.spike_profile(1e-5, c), [(10_000, 3), (1000, 2), (50, 1)])
       for c in (0.0, -0.55, 0.8)},
    **{f"double well gamma={g:g}": (continuum.double_well_family(g),
                                    [(nu, N) for nu in (1, 2, 3) for N in (1, 4)])
       for g in (0.0, 1e3, 1e6)},
    **{f"bimodal gamma={g:g}": (continuum.double_well_family(g),
                                [(1000, 2), (200, 1), (10_000, 4)])
       for g in (-1.0001, -50.0, -70.0, -1e4)},
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_profiles_match_the_reference(name):
    profile, cases = ADVERSARIAL[name]
    errors = {(nu, N): relative_errors(profile, N, nu) for nu, N in cases}
    assert {case: err for case, err in errors.items() if max(err) > 1e-13} == {}


def test_proposition2_flags_a_twice_profile_outside_its_envelope():
    # a "twice" label on amplitudes that do not converge: 1 - f stays put
    # while alpha N / nu halves at each step, so the ratio doubles
    profile = continuum.ContinuumProfile(smoothness="twice",
                                         amplitudes_of_nu=resources.noon_amplitudes)
    report = continuum.check_proposition2(profile, 1, [10, 20, 40, 80])
    assert "envelope-exceeded" in report.hypothesis_flags
    assert "profile-not-continuous" not in report.hypothesis_flags
    ratios = report.diagnostics["envelope_ratios"]
    assert all(b > 1.2 * a for a, b in zip(ratios, ratios[1:]))


def test_proposition3_rejects_a_negative_component():
    alternating = continuum.discrete_only_family(lambda nu: (-1.0) ** np.arange(nu + 1))
    with pytest.raises(HypothesisViolationError, match="component amplitudes"):
        continuum.check_proposition3(continuum.flat_family(), alternating, 1.0, 1.0, 2,
                                     [100, 200, 400, 800])


@pytest.mark.parametrize("gamma", [-1.0, -0.5, 3.0])
def test_bimodal_profile_needs_gamma_below_minus_one(gamma):
    with pytest.raises(HypothesisViolationError, match="gamma < -1"):
        continuum.double_well_bimodal_profile(gamma)


@pytest.mark.parametrize("label", ["once", "continuous", "thrice", ""])
def test_unknown_smoothness_label_is_rejected(label):
    # no family makes "once" or "continuous", and the checks read neither
    with pytest.raises(StateValidationError, match="unknown smoothness class"):
        continuum.ContinuumProfile(smoothness=label)
