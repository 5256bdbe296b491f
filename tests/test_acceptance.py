"""Acceptance suite: every quantitative exit criterion at its stated
tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import time

import numpy as np
import pytest

from telefock import continuum, noise, protocol, resources
from telefock.fock import ResourceState, haar_amplitude_batch

from helpers import random_input, random_resource


def _report(cid: str, message: str) -> None:
    print(f"[PASS] acceptance {cid}: {message}")


# ---------------------------------------------------------------------------
# 1. Closed-form baselines
# ---------------------------------------------------------------------------

def test_acceptance_1_closed_form_baselines():
    # CPU time of this process: time spent descheduled under load does not count
    start = time.process_time()
    for N in range(1, 6):
        for nu in range(N, 51):
            for k in range(nu + 1):
                f = protocol.fidelity_closed(resources.fock_separable_diagonals(nu, k).state(), N)
                assert abs(f - 2.0 / (N + 2)) <= 1e-12
            x = resources.max_entangled_amplitudes(nu)
            f = protocol.fidelity_closed_pure(x, N)
            e = protocol.avg_entanglement_closed_pure(x, N)
            assert abs(f - (1.0 - N / (3.0 * (nu + 1)))) <= 1e-12
            assert abs(e - np.pi * N * (3 * nu - N + 1) / (24.0 * (nu + 1))) <= 1e-12
    elapsed = time.process_time() - start
    assert elapsed < 1.0
    _report("1", f"separable and uniform-resource closed forms exact ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence
# ---------------------------------------------------------------------------

def test_acceptance_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    combos = [(N, nu) for N in (1, 2, 3) for nu in range(N, 7)]
    for trial in range(200):
        N, nu = combos[trial % len(combos)]
        psi = random_input(N, rng)
        rho = random_resource(nu, rng)
        total = 0.0
        for outcome in protocol.iter_outcomes(psi, rho):
            total += outcome.probability
            p, joint = protocol.teleport_outcome_dense(psi, rho, outcome.l, outcome.lam)
            assert abs(p - outcome.probability) <= 1e-12
            if outcome.state is not None:
                sector, residual = protocol.two_mode_sector(joint, N, nu)
                assert residual <= 1e-12
                assert np.max(np.abs(sector - outcome.state.matrix)) <= 1e-12
        assert abs(total - 1.0) <= 1e-10
        closed = protocol.average_teleported(psi, rho, method="closed")
        summed = protocol.average_teleported(psi, rho, method="outcomes")
        assert np.max(np.abs(closed.matrix - summed.matrix)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("2", f"200 random pairs match the dense contraction ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Monte-Carlo consistency
# ---------------------------------------------------------------------------

def test_acceptance_3_monte_carlo_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    N, nu, samples = 2, 4, 100_000
    rho = random_resource(nu, rng)

    f_mc, f_se = protocol.fidelity_monte_carlo(rho, N, samples=samples, rng_seed=30)
    f_closed = protocol.fidelity_closed(rho, N)
    assert abs(f_mc - f_closed) <= 3.0 * f_se

    e_mc, e_se = protocol.entanglement_monte_carlo(rho, N, samples=samples, rng_seed=31)
    e_closed = protocol.avg_entanglement_closed(rho, N)
    assert abs(e_mc - e_closed) <= 3.0 * e_se

    n_mc, n_se = protocol.pure_negativity_monte_carlo(N, samples=samples, rng_seed=32)
    assert abs(n_mc - np.pi * N / 8.0) <= 3.0 * n_se

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("3", f"1e5-sample estimates within 3 standard errors ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4 & 5. No-go property and triangle bound on a 500-state suite
# ---------------------------------------------------------------------------

def _resource_suite(rng):
    suite = []
    for nu in range(10, 201, 10):  # uniform-resource family up to nu = 200
        suite.append((resources.max_entangled(nu), min(3, nu)))
    for _ in range(300):
        nu = int(rng.integers(2, 16))
        suite.append((random_resource(nu, rng), int(rng.integers(1, nu + 1))))
    for _ in range(120):
        nu = int(rng.integers(2, 30))
        x = haar_amplitude_batch(nu, 1, rng)[0]
        suite.append((ResourceState.from_amplitudes(x), int(rng.integers(1, min(nu, 5) + 1))))
    for nu in range(5, 25):
        for x in (resources.noon_amplitudes(nu), resources.su2_coherent_amplitudes(nu, 1.0, 0.5),
                  resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(nu, 0.8))):
            suite.append((ResourceState.from_amplitudes(x), 2))
    return suite


def test_acceptance_4_and_5_no_go_and_triangle():
    rng = np.random.default_rng(45)
    suite = _resource_suite(rng)
    assert len(suite) >= 500
    for rho, N in suite:
        f = protocol.fidelity_closed(rho, N)
        e = protocol.avg_entanglement_closed(rho, N)
        assert f < 1.0
        slack = 8.0 * e / np.pi - (N + 2) * f + 2.0
        assert slack >= -1e-10
    _report("4", f"fidelity < 1 strictly on {len(suite)} resource states")
    _report("5", "triangle slack >= -1e-10 on the same suite")


# ---------------------------------------------------------------------------
# 6. Probabilistic perfect teleportation
# ---------------------------------------------------------------------------

def test_acceptance_6_probabilistic_perfect_teleportation():
    rng = np.random.default_rng(6)
    for N in (1, 2, 3):
        for nu in range(N, 13):
            rho = resources.max_entangled(nu)
            psi = random_input(N, rng)
            target = psi.density().matrix
            total = 0.0
            for l in range(0, nu - N + 1):
                for lam in range(protocol.multiplicity(N, nu, l)):
                    outcome = protocol.teleport_outcome(psi, rho, l, lam)
                    total += outcome.probability
                    overlap = float(np.real(
                        np.conj(psi.amplitudes) @ outcome.state.matrix @ psi.amplitudes
                    ))
                    assert abs(overlap - 1.0) <= 1e-12
                    assert np.max(np.abs(outcome.state.matrix - target)) <= 1e-12
            assert abs(total - (nu - N + 1) / (nu + 1)) <= 1e-12
    _report("6", "perfect sectors reach fidelity 1 with probability (nu-N+1)/(nu+1)")


# ---------------------------------------------------------------------------
# 7. Convergence scaling of the Gaussian family
# ---------------------------------------------------------------------------

NU_GRID_7 = (250, 500, 1000, 2000, 4000)


def _gaussian_scaled_residuals(beta: float, N: int) -> np.ndarray:
    vals = []
    for nu in NU_GRID_7:
        x = resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(nu, beta))
        vals.append((1.0 - protocol.fidelity_closed_pure(x, N)) * nu / N)
    return np.array(vals)


@pytest.mark.xfail(
    strict=True,
    reason="(1-f) nu / N for width exponent 1.25 converges to 1/3 (the exact "
    "flat-resource constant, criterion 1), not to 1; the stated target "
    "inherits a schematic big-O constant. See notes/decisions ledger.",
)
def test_acceptance_7a_wide_gaussian_rate_as_stated():
    scaled = _gaussian_scaled_residuals(1.25, 2)
    print(f"[FAIL-EXPECTED] acceptance 7a: (1-f) nu / N at nu=4000 is "
          f"{scaled[-1]:.6f}, asserted within 10% of 1")
    assert abs(scaled[-1] - 1.0) <= 0.1


def test_acceptance_7_gaussian_convergence_scaling():
    start = time.perf_counter()
    # width exponent above 1: converges at the uniform-resource rate; the
    # dimensionless residual tracks the exact flat-resource value nu/(3(nu+1))
    wide = _gaussian_scaled_residuals(1.25, 2)
    flat_value = NU_GRID_7[-1] / (3.0 * (NU_GRID_7[-1] + 1.0))
    assert abs(wide[-1] / flat_value - 1.0) <= 0.10
    # width exponent between 1/2 and 1: strictly faster than the uniform rate
    narrow = _gaussian_scaled_residuals(0.75, 2)
    assert np.all(np.diff(narrow) < 0.0)
    assert narrow[-1] < 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("7", f"width-exponent sweep residuals {narrow[-1]:.4f} (0.75) / "
                 f"{wide[-1]:.4f} (1.25) at nu=4000 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. Double-well ground states
# ---------------------------------------------------------------------------

def test_acceptance_8_double_well_ground_states():
    nu, N = 400, 2
    gamma = float(nu) ** (1.0 / 3.0)
    repulsive = ResourceState.from_amplitudes(resources.double_well_ground_amplitudes(
        resources.BoseHubbardParams.from_gamma(nu, gamma)))
    _, var = resources.imbalance_moments(repulsive)
    predicted = 1.0 / (nu * np.sqrt(gamma + 1.0))
    assert abs(var - predicted) / predicted <= 0.10

    attractive = ResourceState.from_amplitudes(resources.double_well_ground_amplitudes(
        resources.BoseHubbardParams.from_gamma(nu, -2.0)))
    peaks = resources.occupation_peaks(attractive)
    z0 = np.sqrt(3.0) / 2.0
    assert len(peaks) == 2
    assert abs(peaks[0] + z0) / z0 <= 0.05
    assert abs(peaks[1] - z0) / z0 <= 0.05

    f_rep = protocol.fidelity_closed(repulsive, N)
    f_rep_cont = continuum.fidelity_continuum(
        continuum.double_well_profile(lambda _nu: gamma), N, nu
    )
    assert abs(f_rep - f_rep_cont) / f_rep <= 0.02

    f_att = protocol.fidelity_closed(attractive, N)
    f_att_cont = continuum.fidelity_continuum(
        continuum.double_well_bimodal_profile(-2.0), N, nu
    )
    assert abs(f_att - f_att_cont) / f_att <= 0.02
    _report("8", f"width {var:.2e} vs {predicted:.2e}; peaks {peaks}; "
                 f"fidelities within 2% of quadrature")


# ---------------------------------------------------------------------------
# 9. Dephasing threshold
# ---------------------------------------------------------------------------

def test_acceptance_9_dephasing_threshold():
    report = noise.dephasing_threshold_demo(
        a=0.35, b=0.15, c=0.15, d=0.35, x=-0.1, y=0.3,
        N=4, lambda3=0.5, lambda4=0.5,
    )
    expected = np.log(1.5) / 4.0
    assert abs(report.t_star - expected) <= 1e-12
    assert abs(report.t_star_bisect - expected) <= 1e-6
    _report("9", f"fidelity crossing at t = {report.t_star_bisect:.9f} "
                 f"matches ln(1.5)/4")


# ---------------------------------------------------------------------------
# 10. Loss bounds and the integrator oracle
# ---------------------------------------------------------------------------

def test_acceptance_10_loss_bounds():
    rng = np.random.default_rng(10)
    channel_sets = {
        "single-mode": (noise.LossChannel(0.6, 1, 0),),
        "pairwise": (noise.LossChannel(0.4, 1, 1),),
        "two-particle-set": noise.two_particle_loss_spec(
            0.15, 0.2, 0.1, 0.12, 0.08, t=0.0
        ).channels,
    }
    for label, channels in channel_sets.items():
        rho = random_resource(8, rng)
        spec = noise.LossSpec(channels, t=0.6)
        report = noise.loss_fidelity_bounds(rho, spec, N=2, n_times=20)
        assert len(report.times) == 20
        assert report.bound_satisfied, label

    nu = 12
    rho = random_resource(nu, rng)
    spec = noise.LossSpec(channel_sets["two-particle-set"], t=0.2)
    numeric = noise.particle_loss_lindblad(rho, spec, 0.2)
    analytic = noise.particle_loss_analytic(rho, spec)
    block_gap = float(np.max(np.abs(numeric.surviving_block - analytic.surviving_block)))
    assert block_gap <= 1e-6
    trace_drift = abs(numeric.total_trace() - 1.0)
    assert trace_drift <= 1e-8
    _report("10", f"bound holds for 3 channel sets; integrator block gap "
                  f"{block_gap:.1e}, trace drift {trace_drift:.1e}")


# ---------------------------------------------------------------------------
# 11. Mixing linearity
# ---------------------------------------------------------------------------

def test_acceptance_11_mixing_linearity():
    rng = np.random.default_rng(11)
    N = 2
    for _ in range(50):
        nu = int(rng.integers(N, 10))
        rho = random_resource(nu, rng)
        sigma = random_resource(nu, rng)
        s = float(rng.uniform(0.0, 5.0))
        mixed = noise.mix(rho, noise.MixingSpec(sigma, s))
        expected = (protocol.fidelity_closed(rho, N)
                    + s * protocol.fidelity_closed(sigma, N)) / (1.0 + s)
        assert abs(protocol.fidelity_closed(mixed, N) - expected) <= 1e-12

    rho = resources.max_entangled(6)
    for s in (1.0, 1e2, 1e4, 1e6):
        for k in (0, 3, 6):
            sigma = resources.fock_separable_diagonals(6, k).state()
            mixed = noise.mix(rho, noise.MixingSpec(sigma, s))
            assert protocol.fidelity_closed(mixed, N) > protocol.separable_fidelity(N)
    _report("11", "mixing fidelity affine in the weight; separable mixtures "
                  "stay above baseline through s = 1e6")
