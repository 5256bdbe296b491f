"""State containers, negativity (both routes), Haar sampling, separability."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from telefock import fock, noise, protocol, resources
from telefock.errors import StateValidationError
from telefock.fock import (
    PSD_EIG_FLOOR,
    Diagonals,
    PureTwoModeState,
    ResourceState,
    TwoModeDensityMatrix,
    _haar_forms,
    haar_amplitude_batch,
    is_product_pure,
    negativity,
    negativity_partial_transpose,
    normalized_amplitudes,
    sample_haar,
)

from helpers import random_resource


def test_pure_state_validation():
    PureTwoModeState(2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(StateValidationError):
        PureTwoModeState(2, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(StateValidationError):
        PureTwoModeState(2, np.array([1.0, 0.0]))


def test_density_matrix_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    TwoModeDensityMatrix(1, good)
    with pytest.raises(StateValidationError):
        TwoModeDensityMatrix(1, np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(StateValidationError):
        TwoModeDensityMatrix(1, 2.0 * good)
    with pytest.raises(StateValidationError):
        TwoModeDensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(StateValidationError, match="non-finite"):
        PureTwoModeState(1, np.array([bad, 1.0]))
    with pytest.raises(StateValidationError, match="non-finite"):
        TwoModeDensityMatrix(1, np.array([[bad, 0.0], [0.0, 0.5]]))
    with pytest.raises(StateValidationError, match="non-finite"):
        TwoModeDensityMatrix(1, np.array([[0.5, bad], [bad, 0.5]]))


@pytest.mark.parametrize("min_eig", [-2e-10, -1.01e-10])
def test_spectral_floor_rejects_with_min_eigenvalue(min_eig):
    m = np.diag([1.0 - min_eig, min_eig]).astype(complex)
    with pytest.raises(StateValidationError, match=f"min eigenvalue {min_eig:g}$"):
        TwoModeDensityMatrix(1, m)


@pytest.mark.parametrize("min_eig", [-0.99e-10, -5e-11, 0.0])
def test_spectral_floor_accepts_down_to_floor(min_eig):
    TwoModeDensityMatrix(2, np.diag([1.0 - min_eig, 0.0, min_eig]).astype(complex))


def test_rank_one_states_pass_spectral_check():
    rng = np.random.default_rng(15)
    for nu in (1, 7, 64, 200):
        x = haar_amplitude_batch(nu, 1, rng)[0]
        pure = ResourceState(nu, np.outer(x, x.conj()))
        PureTwoModeState(nu, x).density()
        evolved = noise.dephase(pure, noise.DephasingSpec(0.7, 0.3, 0.0))
        assert np.array_equal(evolved.matrix, pure.matrix)


def test_accepted_states_need_no_eigensolve(monkeypatch):
    rng = np.random.default_rng(16)
    rho = random_resource(40, rng)
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    noise.dephase(rho, noise.DephasingSpec(0.5, 0.5, 0.2))
    assert calls == []
    with pytest.raises(StateValidationError):
        TwoModeDensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))
    assert calls == [(2, 2)]


@settings(max_examples=300, deadline=None)
@given(
    nu=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    offset=st.floats(-1e-9, 1e-9) | st.floats(-0.3, 0.3),
    zeros=st.integers(0, 11),
)
def test_spectral_verdict_matches_eigvalsh(nu, seed, offset, zeros):
    # eigenvalues: one at PSD_EIG_FLOOR + offset, some exact zeros, the rest
    # positive and summing to the remaining trace, in a random eigenbasis
    rng = np.random.default_rng(seed)
    lam0 = PSD_EIG_FLOOR + offset
    rest = rng.random(nu)
    rest[: min(zeros, nu - 1)] = 0.0
    lam = np.concatenate(([lam0], (1.0 - lam0) * rest / rest.sum()))
    g = rng.standard_normal((nu + 1, nu + 1)) + 1j * rng.standard_normal((nu + 1, nu + 1))
    q, _ = np.linalg.qr(g)
    m = (q * lam) @ q.conj().T
    m = 0.5 * (m + m.conj().T)
    min_eig = float(np.min(np.linalg.eigvalsh(m)))
    assume(abs(min_eig - PSD_EIG_FLOOR) > 1e-12)
    try:
        TwoModeDensityMatrix(nu, m)
        accepted = True
    except StateValidationError:
        accepted = False
    assert accepted == (min_eig >= PSD_EIG_FLOOR)


def test_matrices_are_immutable():
    state = TwoModeDensityMatrix(1, np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0


def test_negativity_fock_state_is_zero():
    for k in range(4):
        m = np.zeros((4, 4), dtype=complex)
        m[k, k] = 1.0
        assert negativity(TwoModeDensityMatrix(3, m)) == 0.0


def test_negativity_balanced_superposition():
    # (|0,1> + |1,0>)/sqrt(2) has negativity 1/2
    psi = PureTwoModeState(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert negativity(psi.density()) == pytest.approx(0.5, abs=1e-15)


def test_negativity_shortcut_matches_partial_transpose():
    rng = np.random.default_rng(11)
    for _ in range(30):
        state = random_resource(3, rng)
        assert abs(negativity(state) - negativity_partial_transpose(state)) < 1e-10


def test_negativity_zero_for_diagonal_mixtures():
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = rng.random(6)
        state = TwoModeDensityMatrix(5, np.diag(w / w.sum()).astype(complex))
        assert negativity(state) == 0.0
        assert negativity_partial_transpose(state) < 1e-12


def test_negativity_phase_invariance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        c = haar_amplitude_batch(3, 1, rng)[0]
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        n0 = negativity(PureTwoModeState(3, c).density())
        n1 = negativity(PureTwoModeState(3, phase * c).density())
        assert abs(n0 - n1) < 1e-12


def test_sample_haar_single_particle_sector():
    state = sample_haar(0, 5)
    assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-12


def test_sample_haar_deterministic_in_seed():
    a = sample_haar(3, 42).amplitudes
    b = sample_haar(3, 42).amplitudes
    c = sample_haar(3, 43).amplitudes
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_haar_outputs_valid_states():
    rng = np.random.default_rng(14)
    amps = haar_amplitude_batch(4, 200, rng)
    for row in amps:
        PureTwoModeState(4, row)  # must not raise


def test_haar_amplitude_batch_draws_real_then_imaginary_parts():
    rng = np.random.default_rng(39)
    a = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    assert np.array_equal(haar_amplitude_batch(3, 300, np.random.default_rng(39)), a)


@pytest.mark.parametrize("N, size", [(0, 5), (1, 1000), (3, 1000), (8, 200)])
def test_haar_weights_are_the_amplitude_populations(N, size):
    # same seed, same stream: on the moduli, a unit kernel at (k, k) picks
    # out the weight |c_k|^2 of one component; on the weights, its square
    amps = haar_amplitude_batch(N, size, np.random.default_rng(N + 40))
    for k in range(N + 1):
        unit = np.zeros((N + 1, N + 1))
        unit[k, k] = 1.0
        w = _haar_forms(N, size, N + 40, unit, moduli=True)
        assert w.shape == (size,)
        assert np.max(np.abs(w - np.abs(amps[:, k]) ** 2)) <= 1e-15
        assert np.max(np.abs(_haar_forms(N, size, N + 40, unit, moduli=False) - w * w)) <= 1e-15


@pytest.mark.parametrize("samples", [2, fock._HAAR_BLOCK - 1, fock._HAAR_BLOCK,
                                     fock._HAAR_BLOCK + 1, 100_003])
@pytest.mark.parametrize("N", range(5))
def test_haar_forms_are_the_forms_of_the_amplitude_batch(N, samples):
    # block edges of the streamed imaginary parts: every per-sample form
    # equals q^T K q of the amplitudes drawn from the same seed
    kernel = np.random.default_rng(N).standard_normal((N + 1, N + 1))
    amps = haar_amplitude_batch(N, samples, np.random.default_rng(samples + N))
    for moduli, q in ((False, np.abs(amps) ** 2), (True, np.abs(amps))):
        got = _haar_forms(N, samples, samples + N, kernel, moduli)
        assert np.max(np.abs(got - np.einsum("sk,kj,sj->s", q, kernel, q))) <= 1e-13


def test_monte_carlo_keeps_no_copy_of_the_draws():
    # the squared real parts (N+1 per sample) and the forms (one per sample)
    # are all that grows with the samples: no (2, samples, N+1) draw array
    N, samples = 3, 100_000
    rho = resources.max_entangled(6)
    tracemalloc.start()
    try:
        protocol.fidelity_monte_carlo(rho, N, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (N + 2) * 8 * samples + 2 ** 20


def test_haar_mean_population_is_uniform():
    # |c_0|^2 for N=1 is uniform on [0, 1]: mean 1/2, variance 1/12
    rng = np.random.default_rng(0)
    amps = haar_amplitude_batch(1, 1_000_000, rng)
    p0 = np.abs(amps[:, 0]) ** 2
    se = np.sqrt(1.0 / 12.0 / len(p0))
    assert abs(np.mean(p0) - 0.5) < 3.0 * se


def test_haar_average_pure_negativity():
    # Haar average of the two-mode pure-state negativity is pi N / 8
    rng = np.random.default_rng(1)
    N = 2
    amps = haar_amplitude_batch(N, 100_000, rng)
    r = np.abs(amps)
    neg = (np.sum(r, axis=1) ** 2 - 1.0) / 2.0
    se = np.std(neg, ddof=1) / np.sqrt(len(neg))
    assert abs(np.mean(neg) - np.pi * N / 8.0) < 3.0 * se


def test_is_product_pure():
    assert is_product_pure(PureTwoModeState(2, np.array([1.0, 0.0, 0.0])))
    assert not is_product_pure(
        PureTwoModeState(2, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    )
    # the uniform superposition is entangled for every nu >= 1
    nu = 5
    assert not is_product_pure(
        PureTwoModeState(nu, np.full(nu + 1, 1.0 / np.sqrt(nu + 1)))
    )


def test_resource_from_amplitudes_normalizes():
    state = ResourceState.from_amplitudes(np.array([3.0, 4.0]))
    assert abs(np.trace(state.matrix) - 1.0) < 1e-14
    assert state.n_particles == 1


def test_normalized_amplitudes_keeps_real_and_complex_dtypes():
    assert normalized_amplitudes([3, 4]).dtype == np.float64
    assert normalized_amplitudes(np.array([3.0, 4.0])).tolist() == [0.6, 0.8]
    assert normalized_amplitudes(np.array([3.0, 4.0j])).dtype == np.complex128
    # a real input gives the same dense state as its complex copy
    x = np.array([0.3, 0.2, 0.9])
    assert np.array_equal(ResourceState.from_amplitudes(x).matrix,
                          ResourceState.from_amplitudes(x.astype(complex)).matrix)


@pytest.mark.parametrize("x", [
    np.array([3.0, 4.0]), np.array([3.0, 4.0j]), np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.arange(12.0)[::-3], np.array([1, 2, 2]),
])
def test_normalized_amplitudes_returns_a_new_flat_vector(x):
    before = x.copy()
    got = normalized_amplitudes(x)
    assert np.array_equal(x, before)  # the input is left as it is
    assert not np.shares_memory(got, x)
    flat = x.reshape(-1).astype(complex if np.iscomplexobj(x) else float)
    assert got.tobytes() == (flat / float(np.linalg.norm(flat))).tobytes()


@pytest.mark.parametrize("x", [
    resources.su2_coherent_amplitudes(600, 0.3, 2.0),  # signed zeros in its tail
    resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(600, 0.7)),
    (1.0 + 1e-13) * resources.max_entangled_amplitudes(600),
], ids=["su2_coherent", "gaussian", "uniform_off_by_1e-13"])
def test_reader_entries_of_amplitudes_equal_the_dense_state_bitwise(x):
    before = x.copy()
    nu, diagonals, block = fock._reader(x, 3)
    assert np.array_equal(x, before)  # the reader renormalizes its own copy
    m = ResourceState.from_amplitudes(x).matrix
    for d, u in enumerate(diagonals()):
        assert u.tobytes() == np.ascontiguousarray(m.diagonal(d)).tobytes()
    assert block(5, 9).tobytes() == np.ascontiguousarray(m[5:10, 5:10]).tobytes()


@pytest.mark.parametrize("bad", [
    [0.0, 0.0], [1.0, np.nan], [np.inf, 0.0], [0j, 0j],
])
def test_normalized_amplitudes_rejects_zero_or_non_finite_norm(bad):
    with pytest.raises(StateValidationError, match="norm"):
        normalized_amplitudes(np.array(bad))



@pytest.mark.parametrize("dim", [1, 2, 9, 130])
def test_hermiticity_defect_is_reported_as_max_abs_difference(dim):
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m)
    TwoModeDensityMatrix(dim - 1, m)  # exactly Hermitian
    m[dim // 2, dim - 1] += 3e-12j
    defect = float(np.max(np.abs(m - m.conj().T)))
    with pytest.raises(StateValidationError, match=f"max \\|m - m\\^\\+\\| = {defect:g}$"):
        TwoModeDensityMatrix(dim - 1, m)


def test_diagonal_state_needs_no_factorization(monkeypatch):
    def refuse(m):
        raise AssertionError("factorized a diagonal state")

    monkeypatch.setattr(fock, "_psd_certified", refuse)
    populations = np.array([0.5, 0.0, 0.25, 0.25])
    assert np.array_equal(Diagonals(3, (populations,)).state().matrix, np.diag(populations))
    with pytest.raises(AssertionError, match="factorized"):
        Diagonals(3, (np.array([0.5, -0.1, 0.35, 0.25]),)).state()


def test_the_certificate_reads_the_lower_triangle():
    # as eigvalsh does: an upper triangle that differs changes nothing
    m = random_resource(5, np.random.default_rng(8)).matrix
    garbage = np.triu(np.full(m.shape, 7.0 - 5.0j), 1)
    assert fock._psd_certified(m)
    assert fock._psd_certified(np.tril(m) + garbage)
    assert not fock._psd_certified(np.tril(-m) + garbage)


def test_diagonals_rebuild_the_dense_state():
    rho = random_resource(6, np.random.default_rng(5))
    upper = tuple(np.diagonal(rho.matrix, d) for d in range(7))
    hermitian = np.triu(rho.matrix) + np.triu(rho.matrix, 1).conj().T
    assert np.array_equal(Diagonals(6, upper).state().matrix, hermitian)
    with pytest.raises(StateValidationError, match="diagonal 1 needs 6 entries"):
        Diagonals(6, (np.ones(7) / 7, np.zeros(7)))
    with pytest.raises(StateValidationError, match="non-finite"):
        Diagonals(2, (np.array([1.0, np.nan, 0.0]),))



def _vector_readers():
    """Each call that takes amplitudes, as a function of the amplitudes of 8 particles."""
    psi = PureTwoModeState(2, np.array([0.6, 0.0, 0.8]))
    scan = lambda x, spec, t: noise.band_scan(x, spec, 2, [t])
    return {
        "fock._reader": lambda x: fock._reader(x, 2),
        "band": lambda x: protocol.band(x, 2),
        "fidelity_closed": lambda x: protocol.fidelity_closed(x, 2),
        "fidelity_closed_pure": lambda x: protocol.fidelity_closed_pure(x, 2),
        "avg_entanglement_closed_pure": lambda x: protocol.avg_entanglement_closed_pure(x, 2),
        "performance_report": lambda x: protocol.performance_report(x, 2),
        "band_scan.dephasing": lambda x: scan(x, noise.DephasingSpec(0.5, 0.5, 0.0), 0.1),
        "band_scan.loss": lambda x: scan(
            x, noise.LossSpec((noise.LossChannel(0.5, 1, 0),), 0.0), 0.1),
        "band_scan.mixing": lambda x: scan(
            x, noise.MixingSpec(resources.fock_separable_diagonals(8, 0), 0.0), 0.5),
        "band_scan.mixing_undesired": lambda x: scan(
            resources.max_entangled_amplitudes(8), noise.MixingSpec(x, 0.0), 0.5),
        "iter_outcomes": lambda x: list(protocol.iter_outcomes(psi, x)),
        "success_probability_perfect": lambda x: protocol.success_probability_perfect(x, 2, psi),
        "average_teleported": lambda x: protocol.average_teleported(psi, x),
        "imbalance_moments": resources.imbalance_moments,
    }


@pytest.mark.parametrize("reader", list(_vector_readers()))
@pytest.mark.parametrize("dtype", [float, complex])
def test_every_vector_reader_rejects_unnormalized_amplitudes(reader, dtype):
    read = _vector_readers()[reader]
    x = resources.max_entangled_amplitudes(8).astype(dtype)
    read(x)  # a normalized vector passes
    with pytest.raises(StateValidationError, match="not normalized"):
        read(1.001 * x)
    with pytest.raises(StateValidationError, match="not normalized"):
        read(np.where(np.arange(9) == 4, np.nan, x))


@pytest.mark.parametrize("nu", [2_748_719, 5_000_000, 10_000_000])
def test_normalization_check_admits_long_uniform_vectors(nu):
    # one dot over the whole vector errs by up to 1.3e-12 here, past NORM_TOL
    x = resources.max_entangled_amplitudes(nu)
    fock._check_normalized(x)
    with pytest.raises(StateValidationError, match="not normalized"):
        fock._check_normalized(1.001 * x)
    x[nu // 2] = np.nan
    with pytest.raises(StateValidationError, match="not normalized"):
        fock._check_normalized(x)


def test_normalization_check_rejects_an_overflowing_sum():
    # each block sums to 1.6e308, finite, and the two to more than the largest float
    x = np.full(2 * fock._NORM_BLOCK, 1.4e152)
    with pytest.raises(StateValidationError, match="sum \\|c_k\\|\\^2 = inf"):
        fock._check_normalized(x)
