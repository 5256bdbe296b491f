"""Mixing, dephasing, particle loss, and the robustness analyses."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefock import continuum, noise, protocol, resources
from telefock.errors import StateValidationError, UnsupportedRegimeError
from telefock.fock import Diagonals, ResourceState, negativity
from telefock.protocol import (
    avg_entanglement_closed,
    average_teleported,
    fidelity_closed,
    separable_fidelity,
)

from helpers import random_input, random_resource, reference_loss_rhs


# ---------------------------------------------------------------------------
# Mixing
# ---------------------------------------------------------------------------

def test_mix_zero_weight_is_identity():
    rng = np.random.default_rng(60)
    rho = random_resource(4, rng)
    sigma = random_resource(4, rng)
    out = noise.mix(rho, noise.MixingSpec(sigma, 0.0))
    assert np.array_equal(out.matrix, rho.matrix)


def test_mix_fidelity_linearity():
    rng = np.random.default_rng(61)
    N, s = 2, 2.5
    rho = random_resource(5, rng)
    sigma = random_resource(5, rng)
    mixed = noise.mix(rho, noise.MixingSpec(sigma, s))
    expected = (fidelity_closed(rho, N) + s * fidelity_closed(sigma, N)) / (1.0 + s)
    assert fidelity_closed(mixed, N) == pytest.approx(expected, abs=1e-12)


def test_mix_average_state_linearity():
    rng = np.random.default_rng(62)
    psi = random_input(2, rng)
    rho = random_resource(4, rng)
    sigma = random_resource(4, rng)
    s = 1.7
    mixed_avg = average_teleported(psi, noise.mix(rho, noise.MixingSpec(sigma, s)))
    direct = (
        average_teleported(psi, rho).matrix + s * average_teleported(psi, sigma).matrix
    ) / (1.0 + s)
    assert np.max(np.abs(mixed_avg.matrix - direct)) < 1e-12


def test_mix_with_separable_stays_above_baseline():
    N = 2
    rho = resources.max_entangled(4)
    sigma = resources.fock_separable_diagonals(4, 2).state()
    for s in (0.0, 1.0, 1e3, 1e6):
        f = fidelity_closed(noise.mix(rho, noise.MixingSpec(sigma, s)), N)
        assert f > separable_fidelity(N)


def test_mix_requires_matching_particle_number():
    with pytest.raises(StateValidationError):
        noise.mix(
            resources.max_entangled(4),
            noise.MixingSpec(resources.max_entangled(5), 1.0),
        )


def test_mix_entanglement_erasure_and_regeneration():
    # a sign-flipped copy cancels the lone coherence exactly at s = 1; any
    # imbalance in the mixing weight regenerates entanglement
    N = 1
    rho = ResourceState.from_amplitudes([1.0, 1.0, 0.0])
    sigma = ResourceState.from_amplitudes([1.0, -1.0, 0.0])
    erased = noise.mix(rho, noise.MixingSpec(sigma, 1.0))
    assert negativity(erased) == 0.0
    assert avg_entanglement_closed(erased, N) == 0.0
    assert fidelity_closed(erased, N) == pytest.approx(separable_fidelity(N), abs=1e-15)
    perturbed = noise.mix(rho, noise.MixingSpec(sigma, 0.999))
    assert negativity(perturbed) > 0.0
    assert avg_entanglement_closed(perturbed, N) > 0.0
    assert fidelity_closed(perturbed, N) > separable_fidelity(N)


# ---------------------------------------------------------------------------
# Dephasing
# ---------------------------------------------------------------------------

def test_dephase_zero_time_is_identity():
    rng = np.random.default_rng(63)
    rho = random_resource(4, rng)
    out = noise.dephase(rho, noise.DephasingSpec(0.7, 0.3, 0.0))
    assert np.array_equal(out.matrix, rho.matrix)


def test_dephase_damping_factor():
    rng = np.random.default_rng(64)
    rho = random_resource(4, rng)
    out = noise.dephase(rho, noise.DephasingSpec(0.4, 0.6, 1.0))
    # |k - j| = 2 entries damp by exp(-(t/2)(l3+l4) * 4) = exp(-2)
    assert abs(out.matrix[0, 2] / rho.matrix[0, 2]) == pytest.approx(np.exp(-2.0), rel=1e-12)


@pytest.mark.parametrize("nu", [5, 64, 300])
def test_dephase_matches_entrywise_formula_exactly(nu):
    rng = np.random.default_rng(nu)
    rho = random_resource(nu, rng)
    spec = noise.DephasingSpec(0.3, 0.45, 0.37)
    k = np.arange(nu + 1)
    expo = -0.5 * spec.t * spec.rate_sum * (k[:, None] - k[None, :]) ** 2
    assert np.array_equal(noise.dephase(rho, spec).matrix, rho.matrix * np.exp(expo))


def test_dephase_semigroup():
    rng = np.random.default_rng(65)
    rho = random_resource(5, rng)
    a = noise.dephase(noise.dephase(rho, noise.DephasingSpec(0.5, 0.5, 0.4)),
                      noise.DephasingSpec(0.5, 0.5, 0.8))
    b = noise.dephase(rho, noise.DephasingSpec(0.5, 0.5, 1.2))
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12


def test_dephase_preserves_invariants():
    rng = np.random.default_rng(66)
    for _ in range(5):
        rho = random_resource(5, rng)
        out = noise.dephase(rho, noise.DephasingSpec(1.0, 0.5, 2.0))
        assert np.max(np.abs(np.diag(out.matrix) - np.diag(rho.matrix))) == 0.0
        ResourceState(out.n_particles, out.matrix)  # full validation incl. spectrum


def test_dephase_entanglement_positive_at_finite_time():
    rng = np.random.default_rng(67)
    for _ in range(10):
        rho = random_resource(4, rng)
        if negativity(rho) <= 0.0:
            continue
        evolved = noise.dephase(rho, noise.DephasingSpec(0.5, 0.5, 10.0))
        assert negativity(evolved) > 0.0
        assert avg_entanglement_closed(evolved, 2) > 0.0


def test_dephase_nonnegative_band_keeps_beating_baseline():
    # states whose near-diagonal entries are nonnegative never drop below the
    # separable fidelity under dephasing
    N = 2
    gaussian = resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(12, 0.7))
    for rho in (resources.max_entangled(6), ResourceState.from_amplitudes(gaussian)):
        for t in (0.1, 1.0, 5.0, 10.0):
            evolved = noise.dephase(rho, noise.DephasingSpec(0.6, 0.4, t))
            assert fidelity_closed(evolved, N) > separable_fidelity(N)


# ---------------------------------------------------------------------------
# Dephasing threshold
# ---------------------------------------------------------------------------

THRESHOLD_ARGS = dict(a=0.35, b=0.15, c=0.15, d=0.35, x=-0.1, y=0.3,
                      N=4, lambda3=0.5, lambda4=0.5)


def test_threshold_analytic_value():
    report = noise.dephasing_threshold_demo(**THRESHOLD_ARGS)
    assert report.t_star == pytest.approx(math.log(1.5) / 4.0, abs=1e-12)
    assert abs(report.t_star_bisect - report.t_star) < 1e-6
    assert report.verified


def test_threshold_fidelity_sides():
    report = noise.dephasing_threshold_demo(**THRESHOLD_ARGS)
    rho = noise.four_coherence_diagonals(0.35, 0.15, 0.15, 0.35, -0.1, 0.3, 4).state()
    f_before = fidelity_closed(
        noise.dephase(rho, noise.DephasingSpec(0.5, 0.5, 0.5 * report.t_star)), 4
    )
    f_after = fidelity_closed(
        noise.dephase(rho, noise.DephasingSpec(0.5, 0.5, 2.0 * report.t_star)), 4
    )
    assert f_before > report.f_sep > f_after


def test_threshold_time_zero_criterion():
    # at t=0 the state beats the baseline iff y > -x N/(N-2)
    N = 4
    x = -0.1
    y_boundary = -x * N / (N - 2)
    a = d = 0.3
    b = c = 0.2
    above = noise.four_coherence_diagonals(a, b, c, d, x, y_boundary + 1e-3, 4).state()
    below = noise.four_coherence_diagonals(a, b, c, d, x, y_boundary - 1e-3, 4).state()
    assert fidelity_closed(above, N) > separable_fidelity(N)
    assert fidelity_closed(below, N) < separable_fidelity(N)
    boundary = noise.four_coherence_diagonals(a, b, c, d, x, y_boundary, 4).state()
    assert fidelity_closed(boundary, N) == pytest.approx(separable_fidelity(N), abs=1e-12)


def test_threshold_requires_large_input_sector():
    args = dict(THRESHOLD_ARGS)
    args["N"] = 2
    with pytest.raises(UnsupportedRegimeError):
        noise.dephasing_threshold_demo(**args)


def test_threshold_positivity_validation():
    with pytest.raises(StateValidationError):
        noise.four_coherence_diagonals(0.35, 0.15, 0.15, 0.35, -0.5, 0.3, 4)
    with pytest.raises(StateValidationError):
        noise.four_coherence_diagonals(0.4, 0.1, 0.1, 0.4, -0.1, 0.5, 4)


# ---------------------------------------------------------------------------
# Particle loss
# ---------------------------------------------------------------------------

def test_eta_single_mode_loss():
    spec = noise.LossSpec((noise.LossChannel(1.0, 1, 0),), t=1.0)
    eta = noise.eta_rates(spec, 6)
    assert np.allclose(eta, 0.5 * np.arange(7))


def test_eta_vanishes_when_channel_exceeds_occupation():
    spec = noise.LossSpec((noise.LossChannel(1.0, 2, 0),), t=1.0)
    eta = noise.eta_rates(spec, 4)
    k = np.arange(5)
    assert np.allclose(eta, 0.5 * k * (k - 1) * (k >= 2))


def test_survival_weight_at_time_zero():
    rng = np.random.default_rng(70)
    rho = random_resource(5, rng)
    res = noise.particle_loss_analytic(
        rho, noise.LossSpec((noise.LossChannel(0.9, 1, 1),), t=0.0)
    )
    assert res.survival_weight == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(res.surviving_block - rho.matrix)) == 0.0


def test_two_particle_rate_decomposition():
    # eta_k + eta_j minus the (k-j)^2 part depends on k+j only
    nu = 20
    spec = noise.two_particle_loss_spec(0.3, 0.7, 0.25, 0.45, 0.15, t=1.0)
    delta = 0.25 + 0.45 - 0.15
    eta = noise.eta_rates(spec, nu)
    pair = eta[:, None] + eta[None, :]
    kk, jj = np.meshgrid(np.arange(nu + 1), np.arange(nu + 1), indexing="ij")
    rest = pair - delta * (kk - jj) ** 2 / 4.0
    for s in range(0, 2 * nu + 1):
        vals = rest[kk + jj == s]
        assert np.max(vals) - np.min(vals) < 1e-9


def test_lindblad_identity_at_zero_rate():
    rng = np.random.default_rng(71)
    rho = random_resource(4, rng)
    res = noise.particle_loss_lindblad(
        rho, noise.LossSpec((noise.LossChannel(0.0, 1, 0),), t=0.5), 0.5
    )
    assert np.max(np.abs(res.surviving_block - rho.matrix)) < 1e-10
    assert res.survival_weight == pytest.approx(1.0, abs=1e-10)


def test_lindblad_matches_analytic_block():
    rng = np.random.default_rng(72)
    rho = random_resource(4, rng)
    spec = noise.LossSpec((noise.LossChannel(0.8, 1, 0),), t=0.3)
    analytic = noise.particle_loss_analytic(rho, spec)
    numeric = noise.particle_loss_lindblad(rho, spec, 0.3)
    assert np.max(np.abs(numeric.surviving_block - analytic.surviving_block)) < 1e-6
    assert abs(numeric.total_trace() - 1.0) < 1e-8


def test_lindblad_block_bookkeeping():
    rng = np.random.default_rng(73)
    nu = 5
    rho = random_resource(nu, rng)
    spec = noise.two_particle_loss_spec(0.2, 0.2, 0.1, 0.1, 0.05, t=0.4)
    res = noise.particle_loss_lindblad(rho, spec, 0.4)
    assert len(res.lower_blocks) == nu
    for b, block in enumerate(res.lower_blocks):
        assert block.shape == (b + 1, b + 1)
        assert np.trace(block).real >= -1e-12
    assert abs(res.total_trace() - 1.0) < 1e-8


LOSS_CHANNEL_SETS = [((1, 0),), ((0, 1),), ((1, 1),), ((2, 0),), ((0, 2),),
                     ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))]


@pytest.mark.parametrize("pairs", LOSS_CHANNEL_SETS)
@pytest.mark.parametrize("nu", range(9))
def test_loss_generator_matches_the_blockwise_rhs(nu, pairs):
    rng = np.random.default_rng(nu * 10 + len(pairs))
    channels = tuple(noise.LossChannel(float(rng.uniform(0.1, 1.0)), m, n) for m, n in pairs)
    spec = noise.LossSpec(channels, t=0.0)
    blocks = [rng.standard_normal((b + 1, b + 1)) + 1j * rng.standard_normal((b + 1, b + 1))
              for b in range(nu + 1)]
    got = noise._loss_generator(spec, nu) @ np.concatenate([blk.ravel() for blk in blocks])
    want = np.concatenate([blk.ravel() for blk in reference_loss_rhs(spec, nu, blocks)])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_csr_mat_vec_matches_scipy_with_repeated_positions():
    from scipy.sparse import csr_matrix

    rng = np.random.default_rng(29)
    size = 40
    rows = np.concatenate([np.arange(size), rng.integers(0, size, 300)])
    cols = np.concatenate([np.arange(size), rng.integers(0, size, 300)])
    vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    want = csr_matrix((vals, (rows, cols)), shape=(size, size)) @ x
    got = noise._CSR(rows, cols, vals, size) @ x
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_lindblad_at_time_zero_returns_the_input_block():
    rng = np.random.default_rng(75)
    rho = random_resource(5, rng)
    res = noise.particle_loss_lindblad(rho, noise.two_particle_loss_spec(1, 1, 1, 1, 1, t=0.0), 0.0)
    assert np.array_equal(res.surviving_block, rho.matrix)
    assert all(not np.any(block) for block in res.lower_blocks)
    assert res.survival_weight == float(np.trace(rho.matrix).real)


def test_analytic_with_lower_blocks():
    rng = np.random.default_rng(74)
    rho = random_resource(4, rng)
    spec = noise.LossSpec((noise.LossChannel(0.6, 1, 0),), t=0.5)
    lower = noise.particle_loss_lindblad(rho, spec, spec.t).lower_blocks
    res = replace(noise.particle_loss_analytic(rho, spec), lower_blocks=lower)
    assert res.lower_blocks is not None
    assert abs(res.total_trace() - 1.0) < 1e-8


def test_loss_bounds_inequality():
    rng = np.random.default_rng(75)
    N = 2
    for channels in [
        (noise.LossChannel(0.7, 1, 0),),
        (noise.LossChannel(0.5, 1, 1),),
        noise.two_particle_loss_spec(0.2, 0.3, 0.15, 0.1, 0.05, t=1.0).channels,
    ]:
        rho = random_resource(6, rng)
        spec = noise.LossSpec(channels, t=0.8)
        report = noise.loss_fidelity_bounds(rho, spec, N)
        assert report.bound_satisfied
        assert len(report.times) == 20


def test_loss_preservation_window():
    N = 2
    rho = resources.max_entangled(6)
    spec = noise.LossSpec((noise.LossChannel(0.4, 1, 1),), t=0.5)
    report = noise.loss_fidelity_bounds(rho, spec, N)
    for t, f in zip(report.times, report.fidelity):
        if t < report.t_critical:
            assert f > report.f_sep


def test_loss_bounds_zero_rate():
    rng = np.random.default_rng(76)
    rho = random_resource(4, rng)
    spec = noise.LossSpec((noise.LossChannel(0.0, 1, 0),), t=2.0)
    report = noise.loss_fidelity_bounds(rho, spec, 2)
    assert report.t_critical == math.inf
    assert np.allclose(report.fidelity, report.fidelity[0])


# ---------------------------------------------------------------------------
# Noisy convergence sweeps
# ---------------------------------------------------------------------------

def test_dephasing_substitution_rule():
    # damping exp(-(t/2) L (k-j)^2) equals the wider-exponent family state:
    # in imbalance variables the exponent grows by t L nu^2 / 8
    nu, t, l3, l4 = 60, 0.02, 0.5, 0.5
    prof = continuum.gaussian_beta_family(0.75)
    state = ResourceState.from_amplitudes(prof.amplitudes(nu))
    evolved = noise.dephase(state, noise.DephasingSpec(l3, l4, t))
    z = 1.0 - 2.0 * np.arange(nu + 1) / nu
    extra = t * (l3 + l4) * nu ** 2 / 8.0
    predicted = state.matrix * np.exp(-extra * (z[:, None] - z[None, :]) ** 2)
    assert np.max(np.abs(evolved.matrix - predicted)) < 1e-12


def test_loss_substitution_rule():
    # after factoring out the (k+j)-dependent damping, the two-particle loss
    # set widens the exponent by t (l33 + l44 - l34) nu^2 / 16
    nu, t = 40, 0.003
    l3, l4, l33, l44, l34 = 0.2, 0.3, 0.15, 0.1, 0.05
    spec = noise.two_particle_loss_spec(l3, l4, l33, l44, l34, t)
    prof = continuum.gaussian_beta_family(0.75)
    state = ResourceState.from_amplitudes(prof.amplitudes(nu))
    res = noise.particle_loss_analytic(state, spec)
    eta = noise.eta_rates(spec, nu)
    delta = l33 + l44 - l34
    kk, jj = np.meshgrid(np.arange(nu + 1), np.arange(nu + 1), indexing="ij")
    sym_part = eta[:, None] + eta[None, :] - delta * (kk - jj) ** 2 / 4.0
    z = 1.0 - 2.0 * np.arange(nu + 1) / nu
    extra = t * delta * nu ** 2 / 16.0
    predicted = (state.matrix * np.exp(-extra * (z[:, None] - z[None, :]) ** 2)
                 * np.exp(-t * sym_part))
    assert np.max(np.abs(res.surviving_block - predicted)) < 1e-12


def test_noisy_convergence_vanishing_time():
    prof = continuum.gaussian_beta_family(0.75)
    dep = noise.DephasingSpec(0.5, 0.5, 0.0)
    report = noise.noisy_convergence(
        prof, dep, lambda nu: float(nu) ** -2.5, 2, [100, 200, 400, 800]
    )
    assert report.converges
    assert report.hypothesis_flags == []


def test_noisy_convergence_constant_time_saturates():
    prof = continuum.gaussian_beta_family(0.75)
    dep = noise.DephasingSpec(0.5, 0.5, 0.0)
    report = noise.noisy_convergence(
        prof, dep, lambda nu: 0.05, 2, [100, 200, 400, 800]
    )
    assert not report.converges
    assert "no-convergence" in report.hypothesis_flags


def test_noisy_convergence_zero_time_matches_clean():
    prof = continuum.gaussian_beta_family(0.75)
    dep = noise.DephasingSpec(0.5, 0.5, 0.0)
    grid = [100, 200, 400, 800]
    noisy = noise.noisy_convergence(prof, dep, lambda nu: 0.0, 2, grid)
    clean = continuum.check_proposition2(prof, 2, grid)
    assert np.allclose(noisy.one_minus_f, clean.one_minus_f, atol=1e-14)


def test_noisy_convergence_loss_scaling():
    prof = continuum.gaussian_beta_family(0.75)
    spec = noise.two_particle_loss_spec(0.3, 0.3, 0.2, 0.2, 0.1, t=0.0)
    report = noise.noisy_convergence(
        prof, spec, lambda nu: float(nu) ** -2.5, 2, [100, 200, 400, 800]
    )
    assert report.converges
    assert report.diagnostics["survival_weight"][-1] > 0.99


def test_noisy_convergence_flags_non_gaussian_family():
    prof = continuum.discrete_only_family(resources.noon_amplitudes)
    dep = noise.DephasingSpec(0.5, 0.5, 0.0)
    report = noise.noisy_convergence(
        prof, dep, lambda nu: 0.0, 1, [10, 20, 40, 80]
    )
    assert "not-factorized-gaussian" in report.hypothesis_flags


# ---------------------------------------------------------------------------
# Vectorized rates and the single channel path
# ---------------------------------------------------------------------------

def _eta_rates_by_perm(spec, nu):
    eta = np.zeros(nu + 1)
    for ch in spec.channels:
        for k in range(nu + 1):
            eta[k] += 0.5 * ch.rate * math.perm(k, ch.m) * math.perm(nu - k, ch.n)
    return eta


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 5, 17, 64])
def test_eta_rates_bitwise_equal_to_perm_loop(nu):
    rng = np.random.default_rng(nu)
    channels = tuple(
        noise.LossChannel(float(rng.uniform(0.01, 2.0)), m, n)
        for m in range(4) for n in range(4) if m + n >= 1
    )
    for k in range(len(channels)):
        spec = noise.LossSpec(channels[k:] + channels[:k], t=1.0)
        assert np.array_equal(noise.eta_rates(spec, nu), _eta_rates_by_perm(spec, nu))


def test_apply_equals_each_channel_bitwise():
    rng = np.random.default_rng(91)
    rho, sigma = random_resource(7, rng), random_resource(7, rng)
    mixing = noise.MixingSpec(sigma, 0.7)
    block, weight = noise.apply(rho, mixing)
    assert np.array_equal(block.matrix, noise.mix(rho, mixing).matrix) and weight == 1.0
    dephasing = noise.DephasingSpec(0.3, 0.2, t=0.9)
    block, weight = noise.apply(rho, dephasing)
    assert np.array_equal(block.matrix, noise.dephase(rho, dephasing).matrix) and weight == 1.0
    loss = noise.two_particle_loss_spec(0.3, 0.7, 0.25, 0.45, 0.15, t=0.4)
    block, weight = noise.apply(rho, loss)
    res = noise.particle_loss_analytic(rho, loss)
    assert np.array_equal(block, res.surviving_block) and weight == res.survival_weight
    with pytest.raises(StateValidationError):
        noise.apply(rho, "dephasing")


def test_loss_floor_matches_bounds_report():
    rng = np.random.default_rng(92)
    rho = random_resource(6, rng)
    spec = noise.two_particle_loss_spec(0.3, 0.7, 0.25, 0.45, 0.15, t=0.8)
    report = noise.loss_fidelity_bounds(rho, spec, 2, n_times=7)
    floor = noise.loss_floor(fidelity_closed(rho, 2), report.max_eta, report.times)
    assert floor.tolist() == report.lower_bound


def test_noisy_convergence_rejects_mixing_channel():
    prof = continuum.gaussian_beta_family(0.75)
    mixing = noise.MixingSpec(resources.fock_separable_diagonals(8, 4).state(), 0.5)
    with pytest.raises(UnsupportedRegimeError, match="MixingSpec"):
        noise.noisy_convergence(prof, mixing, lambda nu: 0.0, 2, [8, 16, 32, 64])


# ---------------------------------------------------------------------------
# The band path against the dense oracle
# ---------------------------------------------------------------------------

def _band_and_dense(kind, nu, rng):
    """(band-path form, certified dense state) of one random resource."""
    if kind in ("real_pure", "complex_pure"):
        x = rng.standard_normal(nu + 1)
        if kind == "complex_pure":
            x = x + 1j * rng.standard_normal(nu + 1)
        x = x / np.linalg.norm(x)
        return x, ResourceState.from_amplitudes(x)
    if kind == "four_coherence":
        a, b, c, d = rng.dirichlet(np.ones(4))
        x = float(rng.uniform(-1.0, 1.0)) * math.sqrt(b * c)
        y = float(rng.uniform(-1.0, 1.0)) * math.sqrt(a * d)
        diagonals = noise.four_coherence_diagonals(a, b, c, d, x, y, nu)
        return diagonals, diagonals.state()
    if kind == "fock_separable":
        diagonals = resources.fock_separable_diagonals(nu, int(rng.integers(0, nu + 1)))
        return diagonals, diagonals.state()
    state = random_resource(nu, rng)
    return state, state


def _assert_close(got, want, what):
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), f"{what}: {got!r} != {want!r}"


RESOURCE_KINDS = ("real_pure", "complex_pure", "four_coherence", "fock_separable", "dense")


@settings(max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(RESOURCE_KINDS),
    channel=st.sampled_from(("dephasing", "loss", "mixing")),
    undesired=st.sampled_from(RESOURCE_KINDS),
    N=st.integers(1, 4),
    extra=st.integers(0, 36),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_path_matches_dense_apply(kind, channel, undesired, N, extra, seed):
    rng = np.random.default_rng(seed)
    nu = max(N, 3) + extra
    resource, rho = _band_and_dense(kind, nu, rng)
    values = sorted(rng.uniform(0.0, 2.0, 2).tolist())
    if channel == "dephasing":
        spec = band_spec = noise.DephasingSpec(*rng.uniform(0.0, 1.0, 2), t=0.0)
    elif channel == "loss":
        # rates scaled so that every eta_k stays O(1): the weight stays far from underflow
        channels = tuple(noise.LossChannel(float(rng.uniform(0.0, 0.2)) / nu ** (m + n), m, n)
                         for m in range(3) for n in range(3) if m + n >= 1)
        spec = band_spec = noise.LossSpec(channels, t=0.0)
    else:
        sigma_band, sigma = _band_and_dense(undesired, nu, rng)
        spec, band_spec = noise.MixingSpec(sigma, 0.0), noise.MixingSpec(sigma_band, 0.0)
    key = "s" if channel == "mixing" else "t"
    scan = noise.band_scan(resource, band_spec, N, values)
    for v, (band, weight) in zip(values, scan):
        block, want_weight = noise.apply(rho, replace(spec, **{key: v}))
        if channel == "loss":  # certify the surviving block like every dense state
            ResourceState(nu, block / want_weight)
        want_f, want_e = fidelity_closed(block, N), avg_entanglement_closed(block, N)
        label = f"{kind} {channel} {undesired} N={N} nu={nu} {key}={v!r}"
        _assert_close(fidelity_closed(band, N), want_f, label + " fidelity")
        _assert_close(avg_entanglement_closed(band, N), want_e, label + " entanglement")
        _assert_close(weight, want_weight, label + " weight")
        # a one-point scan gives the same point
        [(alone, _)] = noise.band_scan(resource, band_spec, N, [v])
        assert fidelity_closed(alone, N) == fidelity_closed(band, N)


def test_band_scan_rejects_band_sums_for_loss_and_negative_times():
    band = protocol.band(resources.max_entangled_amplitudes(6), 2)
    with pytest.raises(UnsupportedRegimeError):
        noise.band_scan(band, noise.LossSpec((noise.LossChannel(0.3, 1, 0),), t=0.0), 2, [0.5])
    with pytest.raises(StateValidationError, match="nonnegative"):
        noise.band_scan(band, noise.DephasingSpec(0.5, 0.5, 0.0), 2, [0.1, -0.1])


def test_threshold_bisection_matches_dense_dephasing_bitwise():
    # the band path keeps the dense summation order, so brentq sees the same gap
    args = dict(THRESHOLD_ARGS)
    N, l3, l4 = args.pop("N"), args.pop("lambda3"), args.pop("lambda4")
    for nu in (4, 9, 64):
        rho = noise.four_coherence_diagonals(*args.values(), nu).state()
        band0 = protocol.band(noise.four_coherence_diagonals(*args.values(), nu), N)
        times = (0.0, 0.01, 0.1, 0.7)
        scan = noise.band_scan(band0, noise.DephasingSpec(l3, l4, 0.0), N, times)
        for t, (band, _) in zip(times, scan):
            dense = noise.dephase(rho, noise.DephasingSpec(l3, l4, t))
            assert fidelity_closed(band, N) == fidelity_closed(dense, N)


def _probe_matrix(matrix: np.ndarray) -> bool:
    """Oracle of `noise._is_factorized_gaussian`, on the dense state by least
    squares: True iff the entries are exp(const + a (k+j-nu)^2 + b (k-j)^2) on at
    least 70% of the matrix, counting entries above 1e-120 of the largest."""
    nu = matrix.shape[0] - 1
    k = np.arange(nu + 1)
    kk, jj = np.meshgrid(k, k, indexing="ij")
    vals = matrix.real
    if np.min(vals) <= 0.0:
        return False
    mask = vals > np.max(vals) * 1e-120
    if np.count_nonzero(mask) < 0.7 * mask.size:
        return False
    logs = np.log(vals[mask])
    s2 = ((kk + jj - nu)[mask]) ** 2
    q2 = ((kk - jj)[mask]) ** 2
    design = np.stack([np.ones_like(logs), s2, q2], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = logs - design @ coef
    return float(np.max(np.abs(resid))) < 1e-6


STOCK_FAMILIES = {
    "flat": continuum.flat_family(),
    "gaussian beta=0.5": continuum.gaussian_beta_family(0.5),
    "gaussian beta=0.75": continuum.gaussian_beta_family(0.75),
    "gaussian beta=1": continuum.gaussian_beta_family(1.0),
    "centered bump": continuum.gaussian_bump_family(0.0, lambda nu: nu ** -0.25),
    "off-center bump": continuum.gaussian_bump_family(0.3, lambda nu: 0.3),
    "double well gamma=1": continuum.double_well_family(1.0),
    "double well gamma=0": continuum.double_well_family(0.0),
    "double well gamma=-3": continuum.double_well_family(-3.0),
    "noon": continuum.discrete_only_family(resources.noon_amplitudes),
    "fock": continuum.discrete_only_family(lambda nu: np.arange(nu + 1) == nu),
    "spike": continuum.spike_profile(0.01),
}


@pytest.mark.parametrize("nu", [8, 64, 512])
@pytest.mark.parametrize("name", list(STOCK_FAMILIES))
def test_factorized_gaussian_fit_matches_matrix_probe(name, nu):
    profile = STOCK_FAMILIES[name]
    want = _probe_matrix(ResourceState.from_amplitudes(profile.amplitudes(nu)).matrix)
    assert noise._is_factorized_gaussian(profile.amplitudes(nu)) == want


def test_factorized_gaussian_fit_needs_no_declaration():
    # a Gaussian family built by hand; a sign flip, a phase and a ripple as controls
    gaussian = lambda nu: np.exp(-0.01 * (np.arange(nu + 1) - nu / 2) ** 2)
    custom = continuum.discrete_only_family(gaussian)
    report = noise.noisy_convergence(custom, noise.DephasingSpec(0.5, 0.5, 0.0),
                                     lambda nu: 0.0, 2, [16, 32, 48, 64])
    assert "not-factorized-gaussian" not in report.hypothesis_flags
    k, x = np.arange(65), gaussian(64)
    assert noise._is_factorized_gaussian(x)
    assert not noise._is_factorized_gaussian(np.where(k == 3, -x, x))
    assert not noise._is_factorized_gaussian(x * np.exp(0.1j * k))
    assert not noise._is_factorized_gaussian(x * (1.0 + 1e-3 * np.cos(k)))


def test_dense_channels_take_every_resolved_mixing_spec():
    # `resolve_noise` hands the undesired resource over as diagonals or amplitudes
    from telefock.cli import resolve_noise

    rho = resources.max_entangled(6)
    four = dict(a=0.35, b=0.15, c=0.15, d=0.35, x=-0.1, y=0.3)
    for undesired, sigma in (
        ({"name": "fock_separable", "k": 2}, resources.fock_separable_diagonals(6, 2).state()),
        ({"name": "noon"}, ResourceState.from_amplitudes(resources.noon_amplitudes(6))),
        ({"name": "four_coherence", **four},
         noise.four_coherence_diagonals(*four.values(), 6).state()),
    ):
        # the section names no weight (a scan sets each); set s as `band_scan` does
        spec = replace(resolve_noise({"kind": "mixing", "undesired": undesired}, 6), s=0.5)
        block, weight = noise.apply(rho, spec)
        assert weight == 1.0
        assert np.allclose(block.matrix, (rho.matrix + 0.5 * sigma.matrix) / 1.5,
                           rtol=0.0, atol=1e-15)
    with pytest.raises(StateValidationError, match="matching particle numbers"):
        noise.apply(resources.max_entangled(5), spec)


def test_loss_bounds_read_the_band_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("loss_fidelity_bounds built the dense loss block")

    monkeypatch.setattr(noise, "particle_loss_analytic", refuse)
    monkeypatch.setattr(noise, "apply", refuse)
    spec = noise.LossSpec((noise.LossChannel(0.5, 1, 1),), t=0.4)
    report = noise.loss_fidelity_bounds(resources.max_entangled(1000), spec, 2)
    assert len(report.fidelity) == 20 and report.bound_satisfied


@pytest.mark.parametrize("x", [
    resources.max_entangled_amplitudes(8),
    np.exp(0.3j * np.arange(9)) * resources.gaussian_amplitudes(resources.GaussianSpec(8, 4.0, 2.0)),
], ids=["uniform", "phased_gaussian"])
def test_loss_bounds_read_every_resource_form_alike(x):
    # amplitudes, their Diagonals and their dense state give one report, bit for bit
    state = ResourceState.from_amplitudes(x)
    diagonals = Diagonals(8, tuple(state.matrix.diagonal(d) for d in range(9)))
    spec = noise.LossSpec((noise.LossChannel(0.5, 1, 1), noise.LossChannel(0.3, 1, 0)), t=0.6)
    reports = [noise.loss_fidelity_bounds(form, spec, 2) for form in (x, diagonals, state)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].max_eta > 0.0


@pytest.mark.parametrize("nu", [6, 12])
@pytest.mark.parametrize("channels", [
    (noise.LossChannel(0.7, 1, 0),),
    (noise.LossChannel(0.5, 1, 1),),
    noise.two_particle_loss_spec(0.2, 0.3, 0.15, 0.1, 0.05, t=1.0).channels,
], ids=["one_particle", "pair", "two_particle_set"])
def test_loss_bounds_fidelity_matches_the_dense_block(nu, channels):
    rng = np.random.default_rng(300 + nu)
    N = 2
    rho = random_resource(nu, rng)
    spec = noise.LossSpec(channels, t=0.8)
    report = noise.loss_fidelity_bounds(rho, spec, N)
    dense = [fidelity_closed(noise.apply(rho, replace(spec, t=t))[0], N) for t in report.times]
    assert report.fidelity == pytest.approx(dense, rel=1e-14, abs=0.0)
