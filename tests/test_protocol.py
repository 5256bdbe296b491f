"""Measurement basis, conditional outcomes vs the dense oracle, closed-form
performance functionals vs Monte-Carlo estimates."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefock import cli, fock, noise, protocol, resources
from telefock.errors import StateValidationError, TelefockError, UnsupportedRegimeError
from telefock.fock import PureTwoModeState, negativity
from telefock.protocol import (
    Band,
    average_teleported,
    avg_entanglement_closed,
    avg_entanglement_closed_pure,
    band,
    bob_isometry,
    build_basis,
    entanglement_monte_carlo,
    fidelity_closed,
    fidelity_closed_pure,
    fidelity_monte_carlo,
    iter_outcomes,
    multiplicity,
    performance_report,
    phased_band,
    pure_negativity_monte_carlo,
    sector_component_range,
    success_probability_perfect,
    teleport_outcome,
    teleport_outcome_dense,
    two_mode_sector,
)

from helpers import (
    CLI_RESOURCES, random_input, random_resource, reference_band, reference_entanglement,
    reference_fidelity, reference_monte_carlo, reference_outcome_dense,
    reference_teleport_outcome, resource_id,
)


# ---------------------------------------------------------------------------
# Measurement basis
# ---------------------------------------------------------------------------

def test_multiplicity_table_small_case():
    # N=1, nu=2: sectors -1..2 carry 1, 2, 2, 1 labels
    got = [multiplicity(1, 2, l) for l in range(-1, 3)]
    assert got == [1, 2, 2, 1]
    assert sum(got) == (1 + 1) * (2 + 1)


def test_multiplicity_branches_agree_on_overlaps():
    for N in range(1, 4):
        for nu in range(N, 8):
            assert multiplicity(N, nu, 0) == N + 1
            assert multiplicity(N, nu, nu - N) == N + 1
            total = sum(multiplicity(N, nu, l) for l in range(-N, nu + 1))
            assert total == (N + 1) * (nu + 1)


def test_multiplicity_equals_component_count():
    for N in range(1, 4):
        for nu in range(N, 8):
            for l in range(-N, nu + 1):
                k_lo, k_hi = sector_component_range(N, nu, l)
                assert multiplicity(N, nu, l) == k_hi - k_lo + 1


def test_basis_rejects_small_resource():
    with pytest.raises(UnsupportedRegimeError):
        build_basis(3, 2)
    with pytest.raises(UnsupportedRegimeError):
        build_basis(0, 4)


def test_basis_orthonormal():
    for N, nu in [(1, 2), (2, 4), (3, 5)]:
        basis = build_basis(N, nu)
        vecs = [basis.vector(l, lam) for l, lam in basis.outcomes]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-12


def test_basis_completeness():
    basis = build_basis(2, 4)
    acc = basis.completeness_operator()
    assert acc.shape == (15, 15)
    assert np.max(np.abs(acc - np.eye(15))) < 1e-12


# ---------------------------------------------------------------------------
# Receiver correction
# ---------------------------------------------------------------------------

def test_isometry_trivial_phase_label():
    v = bob_isometry(0, 0, 2, 5)
    nonzero = v[np.nonzero(v)]
    assert np.allclose(nonzero, 1.0)


def test_isometry_support_projector():
    N, nu = 2, 5
    for l in range(-N, nu + 1):
        for lam in range(multiplicity(N, nu, l)):
            v = bob_isometry(l, lam, N, nu)
            proj = v.conj().T @ v
            k_lo, k_hi = sector_component_range(N, nu, l)
            expected = np.zeros((nu + 1, nu + 1), dtype=complex)
            for k in range(k_lo, k_hi + 1):
                expected[nu - k - l, nu - k - l] = 1.0
            assert np.max(np.abs(proj - expected)) < 1e-12


def test_isometry_phases_half_turn():
    # N=1, nu=3, l=1 has two labels; lam=1 alternates phase by e^{i pi}
    v = bob_isometry(1, 1, 1, 3)
    assert multiplicity(1, 3, 1) == 2
    assert v[1, 2] == pytest.approx(1.0)               # k=0 component
    assert v[0, 1] == pytest.approx(np.exp(1j * np.pi))  # k=1 component


def test_isometry_rejects_bad_labels():
    with pytest.raises(StateValidationError):
        bob_isometry(0, 5, 1, 3)
    with pytest.raises(StateValidationError):
        multiplicity(1, 3, 7)


# ---------------------------------------------------------------------------
# Conditional outcomes
# ---------------------------------------------------------------------------

def test_outcomes_match_dense_contraction():
    rng = np.random.default_rng(21)
    for N, nu in [(1, 2), (2, 4), (3, 5)]:
        psi = random_input(N, rng)
        rho = random_resource(nu, rng)
        for outcome in iter_outcomes(psi, rho):
            p, joint = teleport_outcome_dense(psi, rho, outcome.l, outcome.lam)
            assert abs(p - outcome.probability) < 1e-12
            if outcome.state is not None:
                sector, residual = two_mode_sector(joint, N, nu)
                assert residual < 1e-12
                assert np.max(np.abs(sector - outcome.state.matrix)) < 1e-12


def test_dense_oracle_matches_the_kronecker_reference():
    rng = np.random.default_rng(29)
    for N, nu in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]:
        psi, rho = random_input(N, rng), random_resource(nu, rng)
        for l, lam in build_basis(N, nu).outcomes:
            for correct in (True, False):
                p, joint = teleport_outcome_dense(psi, rho, l, lam, apply_correction=correct)
                p_ref, joint_ref = reference_outcome_dense(psi, rho, l, lam, apply_correction=correct)
                assert abs(p - p_ref) <= 1e-14
                assert (joint is None) == (joint_ref is None)
                if joint is not None:
                    assert np.max(np.abs(joint - joint_ref)) <= 1e-14


def test_dense_oracle_reaches_nu_20():
    # the Kronecker form would hold a 7056 x 7056 complex matrix (~800 MB) here
    rng = np.random.default_rng(30)
    N, nu = 3, 20
    psi, rho = random_input(N, rng), random_resource(nu, rng)
    outcomes = list(iter_outcomes(psi, rho))
    assert len(outcomes) == (N + 1) * (nu + 1)
    for outcome in outcomes:
        p, joint = teleport_outcome_dense(psi, rho, outcome.l, outcome.lam)
        assert abs(p - outcome.probability) <= 1e-14
        if outcome.state is not None:
            sector, residual = two_mode_sector(joint, N, nu)
            assert residual <= 1e-14
            assert np.max(np.abs(sector - outcome.state.matrix)) <= 1e-14


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(22)
    for N, nu in [(2, 4), (3, 6)]:
        psi = random_input(N, rng)
        rho = random_resource(nu, rng)
        total = sum(o.probability for o in iter_outcomes(psi, rho))
        assert abs(total - 1.0) < 1e-10


def test_perfect_sectors_with_max_entangled_resource():
    rng = np.random.default_rng(23)
    N, nu = 2, 6
    rho = resources.max_entangled(nu)
    psi = random_input(N, rng)
    target = psi.density().matrix
    for l in range(0, nu - N + 1):
        for lam in range(multiplicity(N, nu, l)):
            outcome = teleport_outcome(psi, rho, l, lam)
            assert np.max(np.abs(outcome.state.matrix - target)) < 1e-12


def test_zero_probability_outcome_is_null():
    psi = PureTwoModeState(1, np.array([1.0, 0.0]))
    rho = resources.fock_separable_diagonals(3, 0).state()
    # sector l=3 needs resource occupation >= 3 on the k=0 component
    outcome = teleport_outcome(psi, rho, 3, 0)
    assert outcome.probability == 0.0
    assert outcome.state is None


def test_outcome_entanglement_unchanged_by_correction():
    rng = np.random.default_rng(24)
    psi = random_input(2, rng)
    rho = random_resource(4, rng)
    for outcome in iter_outcomes(psi, rho):
        if outcome.state is None:
            continue
        p_raw, joint_raw = teleport_outcome_dense(
            psi, rho, outcome.l, outcome.lam, apply_correction=False
        )
        # negativity of the uncorrected joint state via full partial transpose
        d1, d4 = psi.n_particles + 1, rho.n_particles + 1
        pt = (joint_raw.reshape(d1, d4, d1, d4)
              .transpose(0, 3, 2, 1).reshape(d1 * d4, d1 * d4))
        eigs = np.linalg.eigvalsh(pt)
        neg_raw = (np.sum(np.abs(eigs)) - 1.0) / 2.0
        assert abs(p_raw - outcome.probability) < 1e-12
        assert abs(neg_raw - negativity(outcome.state)) < 1e-10


# ---------------------------------------------------------------------------
# Average teleported state
# ---------------------------------------------------------------------------

def test_average_teleported_paths_agree():
    rng = np.random.default_rng(25)
    for N, nu in [(1, 3), (2, 4), (3, 6)]:
        psi = random_input(N, rng)
        rho = random_resource(nu, rng)
        closed = average_teleported(psi, rho, method="closed")
        summed = average_teleported(psi, rho, method="outcomes")
        assert np.max(np.abs(closed.matrix - summed.matrix)) < 1e-12


def test_average_teleported_separable_resource_is_diagonal():
    rng = np.random.default_rng(26)
    psi = random_input(2, rng)
    rho = resources.fock_separable_diagonals(4, 4).state()
    avg = average_teleported(psi, rho)
    expected = np.diag(np.abs(psi.amplitudes) ** 2)
    assert np.max(np.abs(avg.matrix - expected)) < 1e-14


def test_average_teleported_unit_trace():
    rng = np.random.default_rng(27)
    psi = random_input(3, rng)
    rho = random_resource(5, rng)
    assert abs(np.trace(average_teleported(psi, rho).matrix) - 1.0) < 1e-12


def test_average_teleported_overlap_approaches_one():
    # uniform resource, large nu: per-input overlap exceeds 1 - N/(nu+1)
    rng = np.random.default_rng(28)
    N, nu = 2, 2000
    psi = random_input(N, rng)
    avg = average_teleported(psi, resources.max_entangled(nu))
    overlap = float(np.real(np.conj(psi.amplitudes) @ avg.matrix @ psi.amplitudes))
    assert overlap > 1.0 - N / (nu + 1.0)
    assert overlap > 1.0 - 1e-3


# ---------------------------------------------------------------------------
# Closed-form functionals
# ---------------------------------------------------------------------------

def test_fidelity_separable_baseline():
    for N in range(1, 6):
        for k in range(7):
            f = fidelity_closed(resources.fock_separable_diagonals(6, k).state(), N)
            assert f == pytest.approx(2.0 / (N + 2), abs=1e-15)


def test_fidelity_max_entangled_closed_form():
    assert fidelity_closed(resources.max_entangled(3), 1) == pytest.approx(11.0 / 12.0, abs=1e-15)


def test_entanglement_closed_forms():
    assert avg_entanglement_closed(resources.fock_separable_diagonals(5, 2).state(), 2) == 0.0
    e = avg_entanglement_closed(resources.max_entangled(3), 1)
    assert e == pytest.approx(3.0 * np.pi / 32.0, abs=1e-15)


def test_pure_fast_paths_match_matrix_paths():
    rng = np.random.default_rng(29)
    for nu in (4, 9):
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, nu + 1)) * rng.random(nu + 1)
        x /= np.linalg.norm(x)
        state = resources.ResourceState.from_amplitudes(x)
        for N in (1, 2, 3):
            assert fidelity_closed_pure(x, N) == pytest.approx(
                fidelity_closed(state, N), abs=1e-12
            )
            assert avg_entanglement_closed_pure(x, N) == pytest.approx(
                avg_entanglement_closed(state, N), abs=1e-12
            )


@pytest.mark.parametrize("x", [
    resources.max_entangled_amplitudes(300),
    resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(500, 0.75)),
    resources.double_well_ground_amplitudes(resources.BoseHubbardParams.from_gamma(64, 3.0)),
    resources.noon_amplitudes(40),
])
def test_pure_functionals_real_and_complex_input_agree(x):
    assert x.dtype == np.float64
    z = x.astype(complex)
    for N in (1, 4, 16):
        assert fidelity_closed_pure(x, N) == pytest.approx(fidelity_closed_pure(z, N), rel=1e-15)
        assert avg_entanglement_closed_pure(x, N) == pytest.approx(
            avg_entanglement_closed_pure(z, N), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# The band reader: every form read once into a `Band`
# ---------------------------------------------------------------------------

BAND_FORMS = ("real_amplitudes", "complex_amplitudes", "diagonals", "band")


def _band_form(form: str, nu: int, rng: np.random.Generator):
    """A random resource of the given form; `Diagonals` and `Band`s are not
    states, so some fall outside the functionals' ranges and raise."""
    if form.endswith("amplitudes"):
        x = rng.standard_normal(nu + 1)
        if form == "complex_amplitudes":
            x = x + 1j * rng.standard_normal(nu + 1)
        return x / np.linalg.norm(x)
    if form == "diagonals":
        populations = rng.random(nu + 1)
        upper = [populations / populations.sum()]
        for d in range(1, int(rng.integers(1, nu + 2))):
            upper.append((rng.standard_normal(nu + 1 - d) + 1j * rng.standard_normal(nu + 1 - d))
                         / (4 * (nu + 1)))
        return fock.Diagonals(nu, tuple(upper))
    width = int(rng.integers(0, nu + 1))  # narrower than N is rejected
    sums = rng.uniform(-1.5, 1.5, width)
    return Band(nu, float(rng.uniform(0.5, 1.0)), sums, np.abs(sums) + rng.uniform(0.0, 0.1, width))


def _bits(fn, *args):
    """fn(*args) bit for bit, or the package error it raises."""
    try:
        out = fn(*args)
    except TelefockError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, Band):
        return (out.n_particles, float(out.weight).hex(), out.sums.dtype.str, out.sums.tobytes(),
                out.moduli.dtype.str, out.moduli.tobytes())
    return type(out).__name__, out.hex()


@settings(max_examples=300, deadline=None)
@given(
    form=st.sampled_from(BAND_FORMS),
    N=st.integers(1, 4),
    extra=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_reader_matches_the_reference_bitwise(form, N, extra, seed):
    nu = min(N + extra, 12)
    rho = _band_form(form, nu, np.random.default_rng(seed))
    for got, want in [(band, reference_band), (fidelity_closed, reference_fidelity),
                      (avg_entanglement_closed, reference_entanglement)]:
        assert _bits(got, rho, N) == _bits(want, rho, N), (got.__name__, form, N, nu)
    try:
        read = band(rho, N)
    except TelefockError:
        return
    # a functional of rho is the same functional of the band read from rho
    for functional in (fidelity_closed, avg_entanglement_closed):
        assert _bits(functional, read, N) == _bits(functional, rho, N)


def test_band_reader_matches_the_reference_on_dense_states():
    rng = np.random.default_rng(51)
    worst = 0.0
    for nu in (1, 2, 5, 12, 30):
        for _ in range(12):
            state = random_resource(nu, rng)
            for rho in (state, state.matrix):
                for N in range(1, min(nu, 4) + 1):
                    got, want = band(rho, N), reference_band(rho, N)
                    assert got.n_particles == want.n_particles
                    f, e = fidelity_closed(rho, N), avg_entanglement_closed(rho, N)
                    worst = max(worst, abs(got.weight - want.weight),
                                float(np.max(np.abs(got.sums - want.sums))),
                                float(np.max(np.abs(got.moduli - want.moduli))),
                                abs(f - reference_fidelity(rho, N)),
                                abs(e - reference_entanglement(rho, N)))
    assert worst <= 1e-15


def test_band_reads_diagonals_in_one_pass(monkeypatch):
    m = random_resource(6, np.random.default_rng(52)).matrix
    diagonals = fock.Diagonals(6, tuple(np.diagonal(m, d) for d in range(4)))
    calls = []
    read = protocol.band_of_diagonals
    monkeypatch.setattr(protocol, "band_of_diagonals",
                        lambda *args: calls.append(args) or read(*args))
    band(diagonals, 2)
    assert len(calls) == 1
    assert _bits(band, diagonals, 2) == _bits(reference_band, diagonals, 2)


NON_HERMITIAN_READERS = {
    "fidelity_closed": lambda rho, N: fidelity_closed(rho, N),
    "avg_entanglement_closed": lambda rho, N: avg_entanglement_closed(rho, N),
    "band": lambda rho, N: band(rho, N),
    "band_scan-dephasing": lambda rho, N: noise.band_scan(
        rho, noise.DephasingSpec(0.5, 0.5, 0.0), N, [0.1]),
    "band_scan-loss": lambda rho, N: noise.band_scan(
        rho, noise.LossSpec((noise.LossChannel(0.3, 1, 0),), t=0.0), N, [0.1]),
    "band_scan-mixing": lambda rho, N: noise.band_scan(
        rho, noise.MixingSpec(resources.max_entangled_amplitudes(6), 0.0), N, [0.5]),
    "band_scan-mixing-undesired": lambda rho, N: noise.band_scan(
        resources.max_entangled_amplitudes(6), noise.MixingSpec(rho, 0.0), N, [0.5]),
    "iter_outcomes": lambda rho, N: list(
        iter_outcomes(random_input(N, np.random.default_rng(53)), rho)),
}


@pytest.mark.parametrize("reader", NON_HERMITIAN_READERS)
def test_raw_non_hermitian_matrix_is_rejected_where_it_enters(reader):
    read = NON_HERMITIAN_READERS[reader]
    m = resources.max_entangled(6).matrix.copy()
    m[0, 1] = m[1, 0] = 0.01j
    with pytest.raises(StateValidationError, match="not Hermitian"):
        read(m, 2)
    # Hermitian to NORM_TOL is accepted, as for a state
    m = resources.max_entangled(6).matrix.copy()
    m[0, 1] += 1e-13
    read(m, 2)


def test_fidelity_requires_supported_regime():
    with pytest.raises(UnsupportedRegimeError):
        fidelity_closed(resources.max_entangled(2), 4)


def test_fidelity_monte_carlo_matches_closed_form():
    rng = np.random.default_rng(30)
    rho = random_resource(4, rng)
    N = 2
    mean, se = fidelity_monte_carlo(rho, N, samples=20_000, rng_seed=5)
    assert abs(mean - fidelity_closed(rho, N)) < 3.0 * se


def test_entanglement_monte_carlo_matches_closed_form():
    rng = np.random.default_rng(31)
    rho = random_resource(4, rng)
    N = 2
    mean, se = entanglement_monte_carlo(rho, N, samples=20_000, rng_seed=6)
    assert abs(mean - avg_entanglement_closed(rho, N)) < 3.0 * se


@pytest.mark.parametrize("N, nu", [(N, nu) for N in (1, 2, 3) for nu in range(N, 7)])
def test_monte_carlo_estimators_match_the_per_sector_reference(N, nu):
    # one summed kernel over real weights == one contraction per sector over
    # complex amplitudes, on the same Haar draws
    rho = random_resource(nu, np.random.default_rng(100 * N + nu))
    for kind, estimator in (("fidelity", fidelity_monte_carlo),
                            ("entanglement", entanglement_monte_carlo)):
        seed = 7 * nu + N
        got = estimator(rho, N, samples=20_000, rng_seed=seed)
        want = reference_monte_carlo(kind, rho, N, 20_000, seed)
        assert got == pytest.approx(want, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pure_negativity_monte_carlo_matches_the_reference(N):
    got = pure_negativity_monte_carlo(N, samples=20_000, rng_seed=N)
    assert got == pytest.approx(reference_monte_carlo("negativity", None, N, 20_000, N),
                                rel=0.0, abs=1e-13)


def test_triangle_bound_on_random_suite():
    rng = np.random.default_rng(32)
    for _ in range(50):
        nu = int(rng.integers(2, 8))
        N = int(rng.integers(1, nu + 1))
        report = performance_report(random_resource(nu, rng), N)
        assert report.triangle_slack >= -1e-10


def test_no_perfect_fidelity_property():
    rng = np.random.default_rng(33)
    for _ in range(50):
        nu = int(rng.integers(1, 10))
        N = int(rng.integers(1, nu + 1))
        assert fidelity_closed(random_resource(nu, rng), N) < 1.0
    for nu in (10, 50, 200):
        assert fidelity_closed(resources.max_entangled(nu), 1) < 1.0


# ---------------------------------------------------------------------------
# Probabilistic perfect teleportation
# ---------------------------------------------------------------------------

def test_success_probability_closed_form():
    p = success_probability_perfect(resources.max_entangled(3), 1)
    assert p == pytest.approx(0.75, abs=1e-12)


def test_success_probability_single_sector():
    for nu in (1, 2, 4):
        p = success_probability_perfect(resources.max_entangled(nu), nu)
        assert p == pytest.approx(1.0 / (nu + 1), abs=1e-12)


def test_success_probability_independent_of_input():
    rng = np.random.default_rng(34)
    N, nu = 2, 6
    rho = resources.max_entangled(nu)
    values = [
        success_probability_perfect(rho, N, psi=random_input(N, rng))
        for _ in range(25)
    ]
    assert np.max(values) - np.min(values) < 1e-12
    assert values[0] == pytest.approx((nu - N + 1) / (nu + 1), abs=1e-12)


def test_functionals_accept_amplitude_vectors():
    rng = np.random.default_rng(35)
    for nu in (4, 9, 40):
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, nu + 1)) * rng.random(nu + 1)
        x /= np.linalg.norm(x)
        state = resources.ResourceState.from_amplitudes(x)
        for amps in (x, np.abs(x)):
            for N in (1, 2, 3):
                assert fidelity_closed(amps, N) == fidelity_closed_pure(amps, N)
                assert avg_entanglement_closed(amps, N) == avg_entanglement_closed_pure(amps, N)
        for N in (1, 2, 3):
            assert fidelity_closed(x, N) == pytest.approx(fidelity_closed(state, N), abs=1e-12)
            assert avg_entanglement_closed(x, N) == pytest.approx(
                avg_entanglement_closed(state, N), abs=1e-12)
        report = performance_report(x, 2)
        assert report.fidelity == fidelity_closed_pure(x, 2)
        assert report.avg_entanglement == avg_entanglement_closed_pure(x, 2)


def four_kinds_of_vector(nu, rng):
    """Real nonnegative, real nonnegative with -0.0 entries, real with a
    negative entry, and complex amplitudes, each normalized."""
    x = rng.random(nu + 1)
    x /= np.linalg.norm(x)
    zeros = x.copy()
    zeros[::3] = -0.0
    zeros /= np.linalg.norm(zeros)
    signed = x.copy()
    signed[nu // 2] *= -1.0
    phased = x * np.exp(1j * rng.uniform(0, 2 * np.pi, nu + 1))
    return {"nonnegative": x, "negative zeros": zeros, "signed": signed, "complex": phased}


@pytest.mark.parametrize("kind, dot_calls", [
    ("nonnegative", 1), ("negative zeros", 1), ("signed", 2), ("complex", 2),
])
def test_performance_report_reads_a_vector_once(monkeypatch, kind, dot_calls):
    x = four_kinds_of_vector(40, np.random.default_rng(48))[kind]
    calls = {"_check_normalized": 0, "_shifted_dots": 0}

    def spy(name):
        original = getattr(protocol, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(protocol, name, counted)

    spy("_check_normalized")
    spy("_shifted_dots")
    performance_report(x, 3)
    assert calls == {"_check_normalized": 1, "_shifted_dots": dot_calls}


def test_performance_report_of_every_vector_kind_equals_the_pure_functionals():
    rng = np.random.default_rng(49)
    for nu in (1, 4, 40, 1001):
        for x in four_kinds_of_vector(nu, rng).values():
            for N in (1, 2, 16):
                if N > nu:
                    continue
                report = performance_report(x, N)
                assert report.fidelity == fidelity_closed_pure(x, N)
                assert report.avg_entanglement == avg_entanglement_closed_pure(x, N)
                assert fidelity_closed_pure(band(x, N), N) == fidelity_closed_pure(x, N)


@pytest.mark.parametrize("nu", [2 ** 20, 10 ** 7])
@pytest.mark.parametrize("N", [1, 32, 64, 256])
def test_uniform_fidelity_at_large_nu_matches_the_exact_rational(nu, N):
    # one BLAS dot over a whole lag drifted by up to 1.3e-12 at 1e7; blocked
    # dots (N = 1) and Gram blocks (N >= 32) with exact block sums keep f at
    # the rounding of its own terms
    f = fidelity_closed_pure(resources.max_entangled_amplitudes(nu), N)
    exact = 1 - Fraction(N, 3 * (nu + 1))
    assert abs(Fraction(f) - exact) <= (1e-15 if nu == 2 ** 20 else 2e-14)


VECTORS = {
    "gaussian": lambda nu: resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(nu, 0.75)),
    "noon": resources.noon_amplitudes,
    "uniform": resources.max_entangled_amplitudes,
}


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_vectors_at_2_24_enter_both_readers(name):
    # the norm checks of `band` and `fock._reader` add exact block sums, so
    # they admit these vectors at 16.8 million levels
    nu, N = 2 ** 24, 4
    x = VECTORS[name](nu)
    f = fidelity_closed(band(x, N), N)
    assert fock._reader(x, N)[0] == nu
    if name == "uniform":
        assert abs(Fraction(f) - (1 - Fraction(N, 3 * (nu + 1)))) <= 1e-14


def test_shifted_dots_keep_one_dot_per_lag_up_to_the_block():
    # a lag of at most 2^16 pairs is one plain dot, so smaller rows keep their
    # bits; a longer one adds its blocks' dots exactly
    block = protocol._DOT_BLOCK
    x = np.random.default_rng(50).standard_normal(block + 2)
    long_lag, short_lag = protocol._shifted_dots(x, 2)
    assert short_lag == 2.0 * float(np.vdot(x[:-2], x[2:]))  # 2^16 pairs
    assert long_lag == 2.0 * math.fsum([np.vdot(x[:block], x[1 : block + 1]),
                                        x[block] * x[block + 1]])


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(32, 256),
    unit=st.sampled_from(["row", "chunk", "block"]),
    multiple=st.integers(1, 3),
    offset=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
    signed=st.booleans(),
)
def test_gram_lags_match_the_dots(L, unit, multiple, offset, seed, signed):
    # lengths straddle a multiple of a row (L), of a chunk (C L) or of 2^16
    size = {"row": L, "chunk": protocol._DOT_BLOCK // L * L, "block": protocol._DOT_BLOCK}[unit]
    n = max(multiple * size + offset, L + 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) if signed else rng.uniform(0.0, 1.0, n)
    got = protocol._shifted_dots(x, L)
    with mock.patch.object(protocol, "_GRAM_WIDTHS", range(0)):
        want = protocol._shifted_dots(x, L)
    for d, (g, w) in enumerate(zip(got, want), 1):
        assert abs(g - w) <= 1e-13 * 2.0 * float(np.abs(x[:-d] * x[d:]).sum())
    assert len(got) == len(want) == L


def test_gram_lags_serve_real_vectors_from_the_crossover_to_the_cap():
    x = resources.max_entangled_amplitudes(600)
    calls = []
    original = protocol._gram_lags
    with mock.patch.object(protocol, "_gram_lags", lambda *a: calls.append(a[1]) or original(*a)):
        for N in (16, 31, 32, 64, 256, 257, 600):
            protocol._shifted_dots(x, N)
        protocol._shifted_dots(x.astype(complex), 64)
    assert calls == [32, 64, 256]


def uniform_phased_fidelity(N: int, nu: int, c: float) -> Fraction:
    """f of the uniform resource with phases e^{i c k}, exact but for cos(c d)."""
    band = sum(2 * (N + 1 - d) * (nu + 1 - d) * Fraction(math.cos(c * d))
               for d in range(1, N + 1))
    return Fraction(2, N + 2) + band / ((nu + 1) * (N + 1) * (N + 2))


@pytest.mark.parametrize("c", [-0.05, 0.03, math.pi])
@pytest.mark.parametrize("N", [1, 64])
def test_phased_uniform_band_at_2_20_matches_the_closed_form(N, c):
    nu = 2 ** 20
    report = performance_report(phased_band(resources.max_entangled_amplitudes(nu), c, N), N)
    assert abs(Fraction(report.fidelity) - uniform_phased_fidelity(N, nu, c)) <= 1e-15
    e = math.pi * N * (3 * nu - N + 1) / (24.0 * (nu + 1))
    assert abs(report.avg_entanglement - e) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    nu=st.integers(1, 80),
    N=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    signed=st.booleans(),
    c=st.one_of(st.just(math.pi), st.floats(-10.0, 10.0)),
)
def test_phased_band_matches_the_phased_vector(nu, N, seed, signed, c):
    N = min(N, nu)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nu + 1) if signed else rng.uniform(0.0, 1.0, nu + 1)
    x /= np.linalg.norm(x)
    got = performance_report(phased_band(x, c, N), N)
    if c == math.pi:
        # e^{i pi k} = (-1)^k: the real vector `alternating` makes, read bit for bit
        want = performance_report(x * (-1.0) ** np.arange(nu + 1), N)
        assert (got.fidelity, got.avg_entanglement) == (want.fidelity, want.avg_entanglement)
    else:
        want = performance_report(x * np.exp(1j * c * np.arange(nu + 1)), N)
        assert abs(got.fidelity - want.fidelity) <= 1e-13
        assert abs(got.avg_entanglement - want.avg_entanglement) <= 1e-13


def test_phased_band_scales_a_new_array_of_sums():
    x = resources.max_entangled_amplitudes(20)
    plain = band(x, 4)
    assert plain.sums is plain.moduli  # nonnegative: one array for both
    kept = plain.sums.copy()
    phased = phased_band(x, 0.3, 4)
    assert phased.sums is not plain.sums and np.array_equal(plain.sums, kept)
    np.testing.assert_array_equal(phased.moduli, kept)
    np.testing.assert_array_equal(phased.sums, kept * np.cos(0.3 * np.arange(1, 5)))
    assert (phased.n_particles, phased.weight) == (20, 1.0)


@pytest.mark.parametrize("rho", [
    resources.max_entangled_amplitudes(6).astype(complex),
    resources.max_entangled(6),
    resources.fock_separable_diagonals(6, 2),
], ids=["complex", "state", "diagonals"])
def test_phased_band_rejects_all_but_a_real_vector(rho):
    with pytest.raises(StateValidationError, match="real amplitude vector"):
        phased_band(rho, 0.3, 2)


def test_pure_fidelity_of_a_band_cuts_it_to_width_n():
    x = resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(60, 0.6))
    wide = band(x, 8)
    for N in (1, 3, 8):
        assert fidelity_closed_pure(wide, N) == fidelity_closed_pure(x, N)
    with pytest.raises(StateValidationError, match="band holds 8 diagonals"):
        fidelity_closed_pure(wide, 9)


def every_form(nu, rng):
    """The four kinds of vector, a dense state, its raw matrix, its
    `Diagonals` and its `Band`, keyed by name."""
    state = random_resource(nu, rng)
    m = state.matrix
    forms = four_kinds_of_vector(nu, rng)
    forms.update({"state": state, "raw matrix": m,
                  "Diagonals": fock.Diagonals(nu, tuple(m.diagonal(d) for d in range(nu + 1))),
                  "Band": band(state, nu)})
    return forms


@pytest.mark.parametrize("form", ["state", "raw matrix", "Diagonals"])
def test_performance_report_reads_every_form_once(monkeypatch, form):
    rho = every_form(6, np.random.default_rng(53))[form]
    calls = []
    read = protocol.band_of_diagonals
    monkeypatch.setattr(protocol, "band_of_diagonals",
                        lambda *args: calls.append(args) or read(*args))
    report = performance_report(rho, 3)
    assert len(calls) == 1
    assert report.fidelity == fidelity_closed(rho, 3)
    assert report.avg_entanglement == avg_entanglement_closed(rho, 3)


def test_pure_functionals_equal_their_twins_on_every_form():
    rng = np.random.default_rng(54)
    for nu in (1, 4, 9):
        for name, rho in every_form(nu, rng).items():
            for N in range(1, nu + 1):
                f, e = _bits(fidelity_closed, rho, N), _bits(avg_entanglement_closed, rho, N)
                assert _bits(fidelity_closed_pure, rho, N) == f, name
                assert _bits(avg_entanglement_closed_pure, rho, N) == e, name
                report = performance_report(rho, N)
                assert (_bits(float, report.fidelity), _bits(float, report.avg_entanglement)) \
                    == (f, e), name


def test_the_pure_functionals_are_aliases_of_the_closed_ones():
    # one implementation each: `performance_report` still looks its fidelity
    # up as `fidelity_closed_pure`, so rebinding that name shifts sweep rows
    assert protocol.fidelity_closed_pure is protocol.fidelity_closed
    assert protocol.avg_entanglement_closed_pure is protocol.avg_entanglement_closed


def test_success_probability_matches_outcome_sum():
    rng = np.random.default_rng(36)
    for nu, N in [(1, 1), (3, 1), (5, 2), (8, 3), (12, 12), (30, 4)]:
        rho, psi = random_resource(nu, rng), random_input(N, rng)
        by_outcome = sum(
            teleport_outcome(psi, rho, l, lam).probability
            for l in range(0, nu - N + 1) for lam in range(multiplicity(N, nu, l))
        )
        assert success_probability_perfect(rho, N, psi=psi) == pytest.approx(
            by_outcome, abs=1e-12)


def _assert_same_outcomes(got, want):
    assert [(o.l, o.lam) for o in got] == [(o.l, o.lam) for o in want]
    for g, w in zip(got, want):
        assert g.probability == w.probability
        assert (g.state is None) == (w.state is None)
        if g.state is not None:
            assert np.array_equal(g.state.matrix, w.state.matrix)
            assert negativity(g.state) == negativity(w.state)


@pytest.mark.parametrize("spec", CLI_RESOURCES, ids=resource_id)
@pytest.mark.parametrize("N", [1, 2, 3])
def test_outcomes_of_each_resolved_resource_match_the_dense_reference(spec, N):
    # amplitudes and Diagonals give the outcome table of their dense state bit for bit
    psi = random_input(N, np.random.default_rng(40 + N))
    for nu in sorted({max(N, 3), 7, 12}):
        resource = cli.resolve_resource(spec, nu)
        dense = fock.dense_state(resource)
        labels = build_basis(N, nu).outcomes
        want = [reference_teleport_outcome(psi, dense, l, lam) for l, lam in labels]
        _assert_same_outcomes(list(iter_outcomes(psi, resource)), want)
        _assert_same_outcomes([teleport_outcome(psi, resource, l, lam) for l, lam in labels], want)


def test_outcomes_of_a_dense_state_match_the_reference():
    rng = np.random.default_rng(41)
    for N, nu in [(1, 1), (1, 4), (2, 4), (3, 5), (3, 9)]:
        psi, rho = random_input(N, rng), random_resource(nu, rng)
        labels = build_basis(N, nu).outcomes
        want = [reference_teleport_outcome(psi, rho, l, lam) for l, lam in labels]
        _assert_same_outcomes([teleport_outcome(psi, rho, l, lam) for l, lam in labels], want)
        _assert_same_outcomes(list(iter_outcomes(psi, rho)), want)


def test_outcomes_certify_one_state_per_sector(monkeypatch):
    psi = PureTwoModeState(2, np.array([0.6, 0.0, 0.8]))
    states = [random_resource(6, np.random.default_rng(42)),
              resources.fock_separable_diagonals(6, 3).state(),
              resources.fock_separable_diagonals(6, 3), resources.max_entangled_amplitudes(6)]
    shapes = []
    certified = fock._psd_certified

    def count(m):
        shapes.append(m.shape)
        return certified(m)

    monkeypatch.setattr(fock, "_psd_certified", count)
    for rho in states:
        shapes.clear()
        outcomes = list(iter_outcomes(psi, rho))
        sectors = {o.l for o in outcomes if o.probability > 0.0}
        assert len(outcomes) > len(sectors) > 0
        assert shapes == [(3, 3)] * len(sectors)
        # the outcomes of a sector share its state
        for l in sectors:
            assert len({id(o.state) for o in outcomes if o.l == l}) == 1


def _flat(result) -> np.ndarray:
    """Every number in a reader's result, in order, as one complex array
    (NaN for a missing conditional state)."""
    if result is None:
        return np.array([np.nan])
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return np.concatenate([_flat(r) for r in result] or [np.zeros(0)])
    return np.ravel(result).astype(complex)


N_FORMS, NU_FORMS = 2, 9
PSI_FORMS = PureTwoModeState(N_FORMS, np.array([0.6, 0.0, 0.8j]))
LOSS_FORMS = noise.LossSpec((noise.LossChannel(0.5, 1, 0), noise.LossChannel(0.2, 1, 1)), 0.3)


def _scan(spec, values):
    return lambda rho: noise.band_scan(rho, spec, N_FORMS, values)


# reader: (result as a function of the resource, tolerance of amplitudes,
# of Diagonals, against the state).  0 is bit for bit.  The band readers take
# amplitudes as shifted dot products; Diagonals.block makes the lower triangle
# of a sector block by conjugation, where from_amplitudes multiplies.
FORM_READERS = {
    "band": (lambda rho: band(rho, N_FORMS), 2e-15, 0.0),
    "fidelity_closed": (lambda rho: fidelity_closed(rho, N_FORMS), 2e-15, 0.0),
    "avg_entanglement_closed": (lambda rho: avg_entanglement_closed(rho, N_FORMS), 2e-15, 0.0),
    "performance_report": (lambda rho: performance_report(rho, N_FORMS), 2e-15, 0.0),
    "iter_outcomes": (lambda rho: list(iter_outcomes(PSI_FORMS, rho)), 0.0, 1e-15),
    "teleport_outcome": (lambda rho: [teleport_outcome(PSI_FORMS, rho, l, lam)
                                      for l, lam in build_basis(N_FORMS, NU_FORMS).outcomes],
                         0.0, 1e-15),
    "success_probability_perfect": (
        lambda rho: success_probability_perfect(rho, N_FORMS, PSI_FORMS), 0.0, 0.0),
    "average_teleported": (lambda rho: average_teleported(PSI_FORMS, rho), 1e-15, 1e-15),
    "fidelity_monte_carlo": (
        lambda rho: fidelity_monte_carlo(rho, N_FORMS, samples=1000, rng_seed=3), 0.0, 0.0),
    "entanglement_monte_carlo": (
        lambda rho: entanglement_monte_carlo(rho, N_FORMS, samples=1000, rng_seed=3), 0.0, 0.0),
    "imbalance_moments": (resources.imbalance_moments, 0.0, 0.0),
    "occupation_peaks": (resources.occupation_peaks, 0.0, 0.0),
    "band_scan.dephasing": (_scan(noise.DephasingSpec(0.5, 0.5, 0.0), [0.0, 0.1]), 2e-15, 0.0),
    "band_scan.loss": (_scan(LOSS_FORMS, [0.0, 0.2]), 2e-15, 0.0),
    "band_scan.mixing": (
        _scan(noise.MixingSpec(resources.fock_separable_diagonals(NU_FORMS, 3), 0.0), [0.0, 0.5]),
        2e-15, 0.0),
    "loss_fidelity_bounds": (
        lambda rho: noise.loss_fidelity_bounds(rho, LOSS_FORMS, N_FORMS, n_times=5), 2e-15, 0.0),
}


@pytest.mark.parametrize("reader", list(FORM_READERS))
@pytest.mark.parametrize("phases", [True, False], ids=["complex", "real"])
def test_every_reader_takes_every_form_of_a_pure_resource(reader, phases):
    read, amplitude_tol, diagonals_tol = FORM_READERS[reader]
    x = fock.haar_amplitude_batch(NU_FORMS, 1, np.random.default_rng(43))[0]
    x = x if phases else np.abs(x)
    state = fock.ResourceState.from_amplitudes(x)
    diagonals = fock.Diagonals(NU_FORMS, tuple(state.matrix.diagonal(d) for d in range(NU_FORMS + 1)))
    want = _flat(read(state))
    for form, tol in ((x, amplitude_tol), (diagonals, diagonals_tol)):
        got = _flat(read(form))
        if tol == 0.0:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
