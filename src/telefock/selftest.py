"""Built-in verification suite: oracle equivalences, invariants, and the
quantitative baseline checks, runnable from the command line.

Each check is small enough to finish in well under a second; the whole
matrix runs at N <= 3, nu <= 6 plus a handful of closed-form baselines.
Exit codes: 0 all pass, 1 at least one failure, 3 missing numerical backend.
"""

from __future__ import annotations

import numpy as np

from . import fock, noise, protocol, resources
from .errors import TelefockError


def _random_resource(nu: int, rng: np.random.Generator) -> fock.ResourceState:
    g = rng.standard_normal((nu + 1, nu + 1)) + 1j * rng.standard_normal((nu + 1, nu + 1))
    m = g @ g.conj().T
    return fock.ResourceState(nu, m / np.trace(m))


def _check_negativity_shortcut(rng) -> bool:
    ok = True
    for _ in range(5):
        state = _random_resource(3, rng)
        ok &= abs(fock.negativity(state) - fock.negativity_partial_transpose(state)) < 1e-10
    return ok


def _check_basis_orthonormality(_rng) -> bool:
    basis = protocol.build_basis(2, 4)
    vecs = [basis.vector(l, lam) for l, lam in basis.outcomes]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    return bool(np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-12)


def _check_measurement_completeness(_rng) -> bool:
    basis = protocol.build_basis(2, 4)
    acc = basis.completeness_operator()
    return bool(np.max(np.abs(acc - np.eye(acc.shape[0]))) < 1e-12)


def _check_outcome_vs_dense(rng) -> bool:
    ok = True
    for N, nu in [(1, 3), (2, 4), (3, 6)]:
        psi = fock.PureTwoModeState(N, fock.haar_amplitude_batch(N, 1, rng)[0])
        rho = _random_resource(nu, rng)
        for l, lam in [(-N, 0), (0, 0), (nu - N, protocol.multiplicity(N, nu, nu - N) - 1)]:
            fast = protocol.teleport_outcome(psi, rho, l, lam)
            p, joint = protocol.teleport_outcome_dense(psi, rho, l, lam)
            ok &= abs(fast.probability - p) < 1e-12
            if fast.state is not None and joint is not None:
                sector, residual = protocol.two_mode_sector(joint, N, nu)
                ok &= residual < 1e-12
                ok &= np.max(np.abs(sector - fast.state.matrix)) < 1e-12
    return ok


def _check_probability_completeness(rng) -> bool:
    psi = fock.PureTwoModeState(2, fock.haar_amplitude_batch(2, 1, rng)[0])
    rho = _random_resource(4, rng)
    total = sum(o.probability for o in protocol.iter_outcomes(psi, rho))
    return abs(total - 1.0) < 1e-10


def _check_average_state_paths(rng) -> bool:
    psi = fock.PureTwoModeState(2, fock.haar_amplitude_batch(2, 1, rng)[0])
    rho = _random_resource(4, rng)
    closed = protocol.average_teleported(psi, rho, method="closed")
    summed = protocol.average_teleported(psi, rho, method="outcomes")
    return bool(np.max(np.abs(closed.matrix - summed.matrix)) < 1e-12)


def _check_separable_baseline(_rng) -> bool:
    ok = True
    for N in (1, 2, 3):
        for k in (0, 2, 4):
            rho = resources.fock_separable_diagonals(4, k).state()
            f = protocol.fidelity_closed(rho, N)
            ok &= abs(f - 2.0 / (N + 2)) < 1e-12
            e = protocol.avg_entanglement_closed(rho, N)
            ok &= abs(e) < 1e-12
    return ok


def _check_max_entangled_forms(_rng) -> bool:
    ok = True
    for N, nu in [(1, 3), (2, 6), (3, 9)]:
        rho = resources.max_entangled(nu)
        ok &= abs(protocol.fidelity_closed(rho, N) - (1.0 - N / (3.0 * (nu + 1)))) < 1e-12
        expected_e = np.pi * N * (3 * nu - N + 1) / (24.0 * (nu + 1))
        ok &= abs(protocol.avg_entanglement_closed(rho, N) - expected_e) < 1e-12
    return ok


def _check_perfect_success_probability(_rng) -> bool:
    ok = True
    for N, nu in [(1, 3), (2, 5)]:
        p = protocol.success_probability_perfect(resources.max_entangled(nu), N)
        ok &= abs(p - (nu - N + 1) / (nu + 1)) < 1e-12
    return ok


def _check_triangle_bound(rng) -> bool:
    ok = True
    for _ in range(10):
        rho = _random_resource(5, rng)
        report = protocol.performance_report(rho, 2)
        ok &= report.triangle_slack >= -1e-10
    return ok


def _check_no_perfect_fidelity(rng) -> bool:
    ok = True
    for _ in range(10):
        ok &= protocol.fidelity_closed(_random_resource(6, rng), 2) < 1.0
    ok &= protocol.fidelity_closed(resources.max_entangled(60), 2) < 1.0
    return ok


def _check_dephasing_threshold(_rng) -> bool:
    report = noise.dephasing_threshold_demo(
        a=0.35, b=0.15, c=0.15, d=0.35, x=-0.1, y=0.3, N=4, lambda3=0.5, lambda4=0.5
    )
    return report.verified and abs(report.t_star - np.log(1.5) / 4.0) < 1e-12


def _check_loss_rates_and_block(rng) -> bool:
    nu = 4
    spec = noise.LossSpec((noise.LossChannel(0.8, 1, 0),), t=0.3)
    eta = noise.eta_rates(spec, nu)
    ok = bool(np.max(np.abs(eta - 0.4 * np.arange(nu + 1))) < 1e-12)
    rho = _random_resource(nu, rng)
    numeric = noise.particle_loss_lindblad(rho, spec, 0.3)
    analytic = noise.particle_loss_analytic(rho, spec)
    ok &= bool(np.max(np.abs(numeric.surviving_block - analytic.surviving_block)) < 1e-6)
    ok &= abs(numeric.total_trace() - 1.0) < 1e-8
    return ok


def _check_mixing_linearity(rng) -> bool:
    rho = _random_resource(4, rng)
    sigma = _random_resource(4, rng)
    s = 2.5
    mixed = noise.mix(rho, noise.MixingSpec(sigma, s))
    f = protocol.fidelity_closed(mixed, 2)
    expected = (protocol.fidelity_closed(rho, 2) + s * protocol.fidelity_closed(sigma, 2)) / (1 + s)
    return abs(f - expected) < 1e-12


CHECKS = [
    ("negativity-shortcut-vs-partial-transpose", _check_negativity_shortcut),
    ("measurement-basis-orthonormality", _check_basis_orthonormality),
    ("measurement-completeness", _check_measurement_completeness),
    ("outcome-closed-form-vs-dense-contraction", _check_outcome_vs_dense),
    ("outcome-probability-completeness", _check_probability_completeness),
    ("average-state-closed-vs-outcome-sum", _check_average_state_paths),
    ("fidelity-separable-baseline", _check_separable_baseline),
    ("fidelity-entanglement-max-entangled", _check_max_entangled_forms),
    ("perfect-teleportation-success-probability", _check_perfect_success_probability),
    ("triangle-bound", _check_triangle_bound),
    ("no-perfect-fidelity-at-finite-size", _check_no_perfect_fidelity),
    ("dephasing-threshold-time", _check_dephasing_threshold),
    ("loss-rates-and-lindblad-block", _check_loss_rates_and_block),
    ("mixing-fidelity-linearity", _check_mixing_linearity),
]


def run_selftest(verbose: bool = True) -> int:
    """Run the verification matrix; returns a process exit code."""
    try:
        np.linalg.eigh(np.eye(2))
    except Exception as exc:  # pragma: no cover - environment failure path
        if verbose:
            print(f"environment error: eigensolver backend unavailable ({exc})")
        return 3

    rng = np.random.default_rng(20240817)
    failures = 0
    for name, check in CHECKS:
        try:
            passed = bool(check(rng))
        except TelefockError as exc:
            passed = False
            if verbose:
                print(f"[ERROR] {name}: {exc}")
        failures += 0 if passed else 1
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    if verbose:
        print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
