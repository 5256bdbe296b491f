"""Resource-state constructors and their closed-form performance anchors."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from telefock import cli, resources
from telefock.errors import StateValidationError, UnsupportedRegimeError
from telefock.fock import Diagonals, ResourceState, negativity
from telefock.protocol import (
    avg_entanglement_closed,
    band,
    fidelity_closed,
    fidelity_closed_pure,
    performance_report,
    phased_band,
)

import reference
from helpers import reference_occupation_peaks


def binomial_amplitudes(nu: int) -> np.ndarray:
    k = np.arange(nu + 1)
    return np.exp(
        0.5 * (gammaln(nu + 1) - gammaln(k + 1) - gammaln(nu - k + 1))
        - 0.5 * nu * np.log(2.0)
    )


def test_max_entangled_amplitudes():
    state = resources.max_entangled(1)
    x = np.sqrt(np.diag(state.matrix).real)
    assert np.allclose(x, [1.0 / np.sqrt(2.0)] * 2, atol=1e-15)


def test_max_entangled_negativity():
    for nu in (1, 4, 9):
        assert negativity(resources.max_entangled(nu)) == pytest.approx(nu / 2.0, abs=1e-12)


def test_max_entangled_fidelity_anchor():
    assert fidelity_closed(resources.max_entangled(3), 1) == pytest.approx(11 / 12, abs=1e-15)


def test_fock_separable_matrix_and_performance():
    state = resources.fock_separable_diagonals(4, 4).state()
    expected = np.zeros((5, 5))
    expected[4, 4] = 1.0
    assert np.array_equal(state.matrix.real, expected)
    for N in (1, 2):
        for k in range(5):
            s = resources.fock_separable_diagonals(4, k).state()
            assert fidelity_closed(s, N) == pytest.approx(2 / (N + 2), abs=1e-15)
            assert avg_entanglement_closed(s, N) == 0.0
    with pytest.raises(StateValidationError):
        resources.fock_separable_diagonals(4, 5)


def test_noon_state():
    state = ResourceState.from_amplitudes(resources.noon_amplitudes(2))
    x = np.sqrt(np.diag(state.matrix).real)
    assert np.allclose(x, [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)], atol=1e-15)
    assert negativity(state) == pytest.approx(0.5, abs=1e-15)
    # the lone coherence sits at distance nu > N from the diagonal, so the
    # banded fidelity sum collapses to the separable baseline exactly
    for nu in (2, 5, 9):
        state = ResourceState.from_amplitudes(resources.noon_amplitudes(nu))
        assert fidelity_closed(state, 1) == pytest.approx(2 / 3, abs=1e-15)


def test_gaussian_wide_limit_is_uniform():
    spec = resources.GaussianSpec(nu=10, center=5.0, sigma=1e6)
    x = resources.gaussian_amplitudes(spec)
    assert np.max(np.abs(x - 1.0 / np.sqrt(11.0))) < 1e-6


def test_gaussian_symmetry_about_center():
    x = resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(41, 0.6))
    assert np.max(np.abs(x - x[::-1])) < 1e-12


def test_gaussian_subunity_beta_converges_fast():
    # width exponent between 1/2 and 1: (1-f) nu / N already well below the
    # uniform-resource constant at nu = 2000
    N = 2
    x = resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(2000, 0.75))
    value = (1.0 - fidelity_closed_pure(x, N)) * 2000 / N
    assert value < 0.5


def test_gaussian_wide_beta_tracks_uniform_rate():
    # width exponent >= 1: same convergence rate as the uniform resource,
    # i.e. the ratio of 1-f to the uniform-resource value tends to one
    N = 2
    nu = 5000
    x = resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(nu, 1.25))
    ratio = (1.0 - fidelity_closed_pure(x, N)) / (N / (3.0 * (nu + 1.0)))
    assert abs(ratio - 1.0) < 0.05


def test_su2_coherent_poles():
    north = ResourceState.from_amplitudes(resources.su2_coherent_amplitudes(4, 0.0, 0.0))
    assert north.matrix[0, 0].real == pytest.approx(1.0, abs=1e-15)
    south = ResourceState.from_amplitudes(resources.su2_coherent_amplitudes(4, np.pi, 0.0))
    assert south.matrix[4, 4].real == pytest.approx(1.0, abs=1e-15)


def test_su2_coherent_equator_binomial():
    nu = 100
    state = resources.su2_coherent_amplitudes(nu, np.pi / 2.0, 0.0)
    assert np.max(np.abs(state.real - binomial_amplitudes(nu))) < 1e-12


def test_su2_coherent_fidelity_rate():
    # balanced coherent state: binomial width ~ sqrt(nu)/2, so 1-f ~ 1/nu;
    # measured log-log slope should sit near -1
    N = 1
    nus = np.array([100, 200, 400, 800, 1600])
    one_minus_f = np.array([
        1.0 - fidelity_closed_pure(
            resources.su2_coherent_amplitudes(nu, np.pi / 2.0, 0.0), N
        )
        for nu in nus
    ])
    assert one_minus_f[-1] < 0.05
    assert np.all(np.diff(one_minus_f) < 0.0)
    slope = np.polyfit(np.log(nus), np.log(one_minus_f), 1)[0]
    assert abs(slope + 1.0) < 0.15


def test_double_well_noninteracting_ground_state():
    nu = 40
    state = ResourceState.from_amplitudes(
        resources.double_well_ground_amplitudes(resources.BoseHubbardParams(nu, 1.0, 0.0)))
    x = np.sqrt(np.diag(state.matrix).real)
    assert np.max(np.abs(x - binomial_amplitudes(nu))) < 1e-10


def test_double_well_repulsive_width():
    nu = 400
    gamma = float(nu) ** (1.0 / 3.0)
    state = ResourceState.from_amplitudes(resources.double_well_ground_amplitudes(
        resources.BoseHubbardParams.from_gamma(nu, gamma)))
    _, var = resources.imbalance_moments(state)
    predicted = 1.0 / (nu * np.sqrt(gamma + 1.0))
    assert abs(var - predicted) / predicted < 0.10


def test_double_well_attractive_bimodal():
    nu = 400
    state = ResourceState.from_amplitudes(resources.double_well_ground_amplitudes(
        resources.BoseHubbardParams.from_gamma(nu, -2.0)))
    peaks = resources.occupation_peaks(state)
    z0 = np.sqrt(3.0) / 2.0
    assert len(peaks) == 2
    assert abs(peaks[0] + z0) / z0 < 0.05
    assert abs(peaks[1] - z0) / z0 < 0.05


def test_double_well_attractive_width_loose():
    # two-bump width 1/(nu |gamma| sqrt(gamma^2-1)); subleading corrections at
    # accessible nu are unknown, so only a 20% agreement is asserted
    nu, gamma = 400, -2.0
    state = ResourceState.from_amplitudes(resources.double_well_ground_amplitudes(
        resources.BoseHubbardParams.from_gamma(nu, gamma)))
    w = np.diag(state.matrix).real
    z = 1.0 - 2.0 * np.arange(nu + 1) / nu
    right = z < 0.0  # one of the two bumps
    mean = np.sum(z[right] * w[right]) / np.sum(w[right])
    var = np.sum((z[right] - mean) ** 2 * w[right]) / np.sum(w[right])
    predicted = 1.0 / (nu * abs(gamma) * np.sqrt(gamma ** 2 - 1.0))
    assert abs(var - predicted) / predicted < 0.20


def test_double_well_continuity_in_gamma():
    for gamma in (-0.5, 0.0, 5.0):
        a = resources.double_well_ground_amplitudes(
            resources.BoseHubbardParams.from_gamma(50, gamma)
        )
        b = resources.double_well_ground_amplitudes(
            resources.BoseHubbardParams.from_gamma(50, gamma + 1e-6)
        )
        assert np.linalg.norm(a - b) < 1e-4


def test_double_well_intermediate_width_scaling():
    # at the boundary gamma = -1 the ground-state width shrinks as nu^(-1/3)
    # (in the imbalance variable, variance ~ nu^(-2/3))
    scaled = []
    for nu in (200, 400, 800, 1600):
        state = ResourceState.from_amplitudes(resources.double_well_ground_amplitudes(
            resources.BoseHubbardParams.from_gamma(nu, -1.0)))
        _, var = resources.imbalance_moments(state)
        scaled.append(var * float(nu) ** (2.0 / 3.0))
    scaled = np.array(scaled)
    assert np.max(scaled) / np.min(scaled) < 1.10


def test_apply_phases_alternating_drops_fidelity():
    nu, N = 11, 1
    rho = resources.max_entangled_amplitudes(nu)
    flipped = rho * (1.0 - 2.0 * (np.arange(nu + 1) % 2))
    f_max = fidelity_closed(rho, N)
    f_flip = fidelity_closed(flipped, N)
    assert f_flip < f_max
    # alternating signs push the band contribution negative
    assert f_flip < 2.0 / (N + 2)


def test_apply_phases_preserves_moduli_functionals():
    rng = np.random.default_rng(44)
    rho = resources.max_entangled_amplitudes(7)
    decorated = rho * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    assert negativity(ResourceState.from_amplitudes(decorated)) == pytest.approx(
        negativity(ResourceState.from_amplitudes(rho)), abs=1e-12)
    assert avg_entanglement_closed(decorated, 2) == pytest.approx(
        avg_entanglement_closed(rho, 2), abs=1e-12
    )


def test_constructors_produce_valid_states():
    # re-validate with the full spectral check, including the fast paths
    amplitudes = [
        resources.max_entangled_amplitudes(6),
        resources.noon_amplitudes(6),
        resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(20, 0.7)),
        resources.su2_coherent_amplitudes(12, 1.1, 0.7),
        resources.double_well_ground_amplitudes(resources.BoseHubbardParams.from_gamma(16, 3.0)),
        resources.max_entangled_amplitudes(6) * np.exp(0.3j * np.arange(7) ** 2),
    ]
    candidates = [resources.fock_separable_diagonals(6, 2).state()]
    candidates += [ResourceState.from_amplitudes(x) for x in amplitudes]
    for state in candidates:
        ResourceState(state.n_particles, state.matrix)  # validate_spectrum=True


@pytest.mark.parametrize("c", [0.05, -0.05, np.pi, 6.2])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 1000, 2 ** 20 + 1])
def test_linear_phase_matches_direct_exponential(c, n):
    got = resources.linear_phase(c, n)
    want = np.exp(1j * c * np.arange(n))
    assert got.shape == (n,) and got.dtype == complex
    bound = 2.0 * np.finfo(float).eps * max(1.0, abs(c) * (n - 1))
    assert np.max(np.abs(got - want)) <= bound


def test_real_families_return_float64_amplitudes():
    real = [
        resources.max_entangled_amplitudes(9),
        resources.noon_amplitudes(9),
        resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(40, 0.7)),
        resources.double_well_ground_amplitudes(
            resources.BoseHubbardParams.from_gamma(16, 3.0)),
        resources.double_well_ground_amplitudes(
            resources.BoseHubbardParams.from_gamma(16, -2.0)),
    ]
    for x in real:
        assert x.dtype == np.float64
        assert abs(np.linalg.norm(x) - 1.0) < 1e-15
    assert resources.su2_coherent_amplitudes(9, 1.1, 0.7).dtype == np.complex128



@pytest.mark.parametrize("gamma", [-3.0, -2.0, -1.0, 0.0, 5.0, 7.368062997280773])
def test_populations_of_amplitudes_and_states_agree_bitwise(gamma):
    for nu in (1, 2, 41, 400):
        params = resources.BoseHubbardParams.from_gamma(nu, gamma)
        x = resources.double_well_ground_amplitudes(params)
        state = ResourceState.from_amplitudes(x)
        z = 1.0 - 2.0 * np.arange(nu + 1) / nu
        want = reference_occupation_peaks(np.diagonal(state.matrix).real, z)
        assert resources.occupation_peaks(x) == resources.occupation_peaks(state) == want
        assert resources.imbalance_moments(x) == resources.imbalance_moments(state)


@pytest.mark.parametrize("w", [
    [0.1, 0.3, 0.3, 0.05, 0.2, 0.05],  # a tied top is one peak, between its two levels
    [0.5, 0.1, 0.02, 0.08, 0.03, 0.27],  # edge peaks; 0.08 is below a fifth of the top
    [0.2, 0.2, 0.2, 0.2, 0.2],  # a flat density is one peak, at its middle
    [1.0, 0.0],
    [0.1, 0.3, 0.3, 0.3, 0.05, 0.3],  # a tied top of three levels, and an edge peak
    [0.3, 0.3, 0.1, 0.3],  # a tie at the edge
])
def test_occupation_peaks_of_diagonals_match_the_reference(w):
    w = np.array(w)
    nu = w.size - 1
    z = 1.0 - 2.0 * np.arange(nu + 1) / nu
    assert resources.occupation_peaks(Diagonals(nu, (w,))) == reference_occupation_peaks(w, z)


@pytest.mark.parametrize("nu", [41, 401, 4001])
def test_repulsive_ground_state_at_odd_nu_has_one_central_peak(nu):
    # the mirrored solve ties the two central populations exactly
    x = resources.double_well_ground_amplitudes(resources.BoseHubbardParams.from_gamma(nu, 7.0))
    [z] = resources.occupation_peaks(x)
    assert abs(z) <= 1e-15


@pytest.mark.parametrize("gamma", [1.0, 3.0, 5.0])
@pytest.mark.parametrize("nu", [41, 401, 4001])
def test_repulsive_odd_nu_peak_sits_at_zero(nu, gamma):
    x = resources.double_well_ground_amplitudes(resources.BoseHubbardParams.from_gamma(nu, gamma))
    [z] = resources.occupation_peaks(x)
    assert abs(z) <= 1e-15


def double_well_hamiltonian(params):
    """(diagonal, hopping) of the full (nu+1)-level tridiagonal Hamiltonian."""
    nu = params.nu
    k = np.arange(nu + 1, dtype=float)
    diag = params.U * (k * (k - 1.0) + (nu - k) * (nu - k - 1.0))
    return diag, -params.tau * np.sqrt((k[:-1] + 1.0) * (nu - k[:-1]))


def relative_residual(params, x) -> float:
    """|H x - lam x| / |lam| with lam = x.H x, from the full Hamiltonian."""
    diag, hop = double_well_hamiltonian(params)
    hx = diag * x
    hx[:-1] += hop * x[1:]
    hx[1:] += hop * x[:-1]
    lam = float(x @ hx)
    return float(np.linalg.norm(hx - lam * x)) / abs(lam)


MIRROR_CASES = [(g, nu) for g in (-1.1, -1.5, -2.0, -3.0, -10.0) for nu in (200, 1000, 10000)]


@pytest.mark.parametrize("gamma, nu", MIRROR_CASES + [(-2.0, 10 ** 6)])
def test_attractive_ground_state_is_even_positive_and_bimodal(gamma, nu):
    # the even ground state and its odd partner are degenerate to round-off
    # here; the ground state is the even one (Perron-Frobenius)
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    x = resources.double_well_ground_amplitudes(params)
    assert np.array_equal(x, x[::-1])
    assert np.all(x > 0.0)
    mean, _ = resources.imbalance_moments(x)
    assert mean == 0.0
    low, high = resources.occupation_peaks(x)
    assert low < 0.0 < high and abs(low + high) <= 4 * np.finfo(float).eps
    assert relative_residual(params, x) <= 4e-16


@pytest.mark.parametrize("gamma", [1e170, 1e300, -1e170, -1e300, 1.7e308, -1.7e308])
def test_double_well_at_nu_2_takes_a_gamma_whose_square_overflows(gamma):
    # the even sector [[gamma, -2], [-2, 0]] once made eigh_tridiagonal return NaN
    x = resources.double_well_ground_amplitudes(resources.BoseHubbardParams.from_gamma(2, gamma))
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    assert abs(float(np.dot(x, x)) - 1.0) <= 1e-15
    assert np.array_equal(x, x[::-1])
    if gamma > 0.0:
        assert x[1] > x[0]  # the middle level |1, 1>
    else:
        assert x[0] > x[1]  # the edge pair |2, 0>, |0, 2>


@pytest.mark.parametrize("gamma", [-1e3, -3.0, -1.0, 0.0, 0.5, 7.0, 1e3])
def test_closed_form_of_the_nu_2_sector_matches_dense_eigh(gamma):
    _, vecs = np.linalg.eigh(np.array([[gamma, -2.0], [-2.0, 0.0]]))
    want = np.abs(vecs[:, 0])
    np.testing.assert_allclose(resources._even_pair_ground(gamma), want / want.max(),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("gamma", [-1.5, -2.0])
@pytest.mark.parametrize("nu", [1, 2, 3, 8, 13, 20, 30, 40, 41])
def test_ground_state_matches_dense_eigh_where_the_gap_is_resolved(gamma, nu):
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    diag, hop = double_well_hamiltonian(params)
    w, v = np.linalg.eigh(np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1))
    assert w[1] - w[0] > 1e-7
    want = v[:, 0] * np.sign(np.sum(v[:, 0]))
    x = resources.double_well_ground_amplitudes(params)
    assert np.max(np.abs(x - want)) <= 5e-8


@pytest.mark.parametrize("gamma, nu", [
    (0.0, 1000), (1.0, 401), (3.0, 10 ** 4), (5.0, 4001), (7.368062997280773, 400),
    (3.0, 10 ** 6),
])
def test_repulsive_ground_state_is_mirrored_with_a_small_residual(gamma, nu):
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    x = resources.double_well_ground_amplitudes(params)
    assert np.array_equal(x, x[::-1]) and np.all(x > 0.0)
    assert resources.imbalance_moments(x)[0] == 0.0
    assert relative_residual(params, x) <= 1e-10


def whole_sector_ground(params):
    """The ground state from one `eigh_tridiagonal(select="i")` call on the
    whole even sector, mirrored and normalized as the constructor does."""
    from scipy.linalg import eigh_tridiagonal

    nu, half = params.nu, params.nu // 2
    k = np.arange(half + 1, dtype=float)
    diag = (params.U / params.tau) * (k * (k - 1.0) + (nu - k) * (nu - k - 1.0))
    hop = -np.sqrt((k + 1.0) * (nu - k))
    if nu % 2:
        diag[-1] += hop[-1]
    else:
        hop[-2] *= np.sqrt(2.0)
    _, vec = eigh_tridiagonal(diag, hop[:-1], select="i", select_range=(0, 0))
    v = np.abs(vec[:, 0])
    if nu % 2 == 0:
        v[-1] *= np.sqrt(2.0)
    x = np.concatenate((v, v[nu - half - 1::-1]))
    return x / np.linalg.norm(x)


WINDOW_GAMMAS = [-1e170, -1e100, -1e12, -1e4, -70.0, -4.0, -2.0, -1.5, -1.1, -1.0, -0.9,
                 0.0, 1.0, 5.0, 10.0, 1e3, 1e12, 1e300]


@pytest.mark.parametrize("gamma", WINDOW_GAMMAS)
@pytest.mark.parametrize("nu", [2050, 3001, 4096, 4097, 8193, 2 ** 16 + 1])
def test_windowed_ground_state_matches_the_whole_sector(nu, gamma):
    # sectors above 1025 levels take the ground energy from a window around
    # the well; the vector, f and E stay those of the whole-sector solve
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    x = resources.double_well_ground_amplitudes(params)
    want = whole_sector_ground(params)
    assert np.all(np.isfinite(x)) and np.array_equal(x, x[::-1])
    assert np.max(np.abs(x - want)) <= 1e-13
    for N in (1, 4, 64):
        for functional in (fidelity_closed, avg_entanglement_closed):
            got, exact = functional(x, N), functional(want, N)
            assert abs(got - exact) <= 1e-14 * abs(exact), (N, functional.__name__)


def lapack_spy(monkeypatch):
    """The (range, m) of each `dstebz` call made through `scipy.linalg.lapack`
    (`eigh_tridiagonal` reaches LAPACK by its own route)."""
    from scipy.linalg import lapack

    calls, dstebz = [], lapack.dstebz

    def spy(d, e, rng, *args):
        out = dstebz(d, e, rng, *args)
        calls.append((rng, int(out[0])))
        return out

    monkeypatch.setattr(lapack, "dstebz", spy)
    return calls


@pytest.mark.parametrize("nu, gamma", [(8193, 5.0), (8192, -4.0), (2 ** 16 + 1, -2.0)])
def test_sturm_count_rejects_a_window_off_the_well(monkeypatch, nu, gamma):
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    calls = lapack_spy(monkeypatch)
    resources.double_well_ground_amplitudes(params)
    assert calls[-1] == (1, 0)  # the certificate held on the true window

    window = resources._ground_window

    def off_the_well(d, e, bound):
        # as wide as the true window, at the far end of the sector from it
        lo, hi, floor, norm = window(d, e, bound)
        width = hi - lo
        lo = d.size - 1 - width if lo < d.size - 1 - hi else 0
        return lo, lo + width, floor, norm

    monkeypatch.setattr(resources, "_ground_window", off_the_well)
    monkeypatch.setattr(resources, "_TAIL", 1.0)  # no edge test: the count alone decides
    calls.clear()
    x = resources.double_well_ground_amplitudes(params)
    assert calls[-1][0] == 1 and calls[-1][1] > 0  # eigenvalues below the window's
    assert x.tobytes() == whole_sector_ground(params).tobytes()


@pytest.mark.parametrize("gamma", [-1e100, -4.0, -1.1, 0.0, 5.0, 1e300])
@pytest.mark.parametrize("nu", [3, 8, 400, 1000, 2048, 2049])
def test_sectors_up_to_1025_levels_keep_the_whole_sector_bytes(monkeypatch, nu, gamma):
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    calls = lapack_spy(monkeypatch)
    x = resources.double_well_ground_amplitudes(params)
    assert calls == []
    assert x.tobytes() == whole_sector_ground(params).tobytes()


def test_imbalance_mean_is_summed_over_mirror_pairs():
    # exactly 0 on any mirror-symmetric population vector, and the plain
    # mean to rounding on an asymmetric one
    rng = np.random.default_rng(47)
    for nu in (1, 2, 7, 40, 999):
        half = rng.random(nu // 2 + 1)
        w = np.concatenate((half, half[nu - nu // 2 - 1::-1]))
        w /= w.sum()
        assert resources.imbalance_moments(Diagonals(nu, (w,)))[0] == 0.0
        w = rng.random(nu + 1)
        w /= w.sum()
        z = 1.0 - 2.0 * np.arange(nu + 1) / nu
        mean, var = resources.imbalance_moments(Diagonals(nu, (w,)))
        assert mean == pytest.approx(float(z @ w), abs=1e-15)
        assert var == pytest.approx(float(z ** 2 @ w) - mean ** 2, abs=1e-15)


@pytest.mark.parametrize("nu", [1000, 4096])
@pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
def test_su2_moduli_match_exact_binomials(nu, theta):
    # every modulus above 1e-250 of the peak within 2e-13 of its exact value
    # (the log-gamma form erred by 6e-13 to 5e-12 here); the rest, dropped
    # below 1e-300 of the peak or not, within 1e-250 of the peak
    x = resources.su2_coherent_moduli(nu, theta)
    exact = reference.su2_moduli(nu, theta)
    cut = max(exact) * 1e-250
    for k, want in enumerate(exact):
        assert abs(float(x[k]) - want) <= (2e-13 * want if want >= cut else cut), k


@pytest.mark.parametrize("nu", [1024, 4096])
@pytest.mark.parametrize("N", [16, 64])
def test_su2_moduli_with_a_phase_slope_are_as_accurate_as_the_amplitudes(nu, N):
    # against the 40-digit band of the exact binomial moduli, the real moduli
    # read with the slope phi (what `sweep` reads) err as the complex vector does
    f, e = reference.su2_functionals(nu, 1.1, 0.4, N)
    amplitudes = performance_report(resources.su2_coherent_amplitudes(nu, 1.1, 0.4), N)
    moduli = performance_report(phased_band(resources.su2_coherent_moduli(nu, 1.1), 0.4, N), N)
    assert abs(abs(moduli.fidelity - f) - abs(amplitudes.fidelity - f)) <= 2e-16
    assert abs(moduli.avg_entanglement - e) <= 3e-14
    assert abs(amplitudes.avg_entanglement - e) <= 3e-14


def test_su2_moduli_are_the_normalized_moduli_of_the_amplitudes():
    for nu, theta in ((0, 0.3), (7, 0.0), (7, np.pi), (1000, 1.1)):
        x = resources.su2_coherent_moduli(nu, theta)
        assert x.dtype == np.float64 and x.shape == (nu + 1,)
        np.testing.assert_allclose(x, np.abs(resources.su2_coherent_amplitudes(nu, theta, 0.7)),
                                   rtol=1e-14, atol=1e-300)
    for theta in (-0.1, np.pi + 1e-9, np.nan):
        with pytest.raises(StateValidationError, match="theta"):
            resources.su2_coherent_moduli(5, theta)


# The constructors' expressions before they built each vector in one buffer,
# kept verbatim as the oracle: the in-place forms must give the same bytes,
# signed zeros included.

def oracle_normalized(x):
    x = np.asarray(x)
    x = x.astype(complex if np.iscomplexobj(x) else float, copy=False).reshape(-1)
    nrm = float(np.linalg.norm(x))
    return x / nrm


def oracle_gaussian(spec):
    k = np.arange(spec.nu + 1, dtype=float)
    expo = -((k - spec.center) ** 2) / (4.0 * spec.sigma ** 2)
    return oracle_normalized(np.exp(expo - np.max(expo)))


def oracle_su2(nu, theta, phi):
    # one cumulative product of ratios from the mode to each end, then the
    # moduli below 1e-300 of the peak set to 0
    s, q = np.sin(theta / 2.0), np.tan(theta / 2.0)
    top = min(int((nu + 1) * s * s), nu)
    j = np.arange(top + 1, nu + 1, dtype=float)
    right = np.cumprod(np.sqrt((nu + 1 - j) / j) * q)
    j = np.arange(top, 0, -1, dtype=float)
    left = np.cumprod(np.sqrt(j / (nu + 1 - j)) / q)
    moduli = np.concatenate((left[::-1], [1.0], right))
    moduli[moduli < 1e-300] = 0.0
    return oracle_normalized(oracle_flushed(moduli * resources.linear_phase(phi, nu + 1), 1.0))


def oracle_flushed(z, peak):
    # each real and imaginary part below 1e-300 of the peak made a zero of its sign
    parts = z.view(float)
    parts[np.abs(parts) < 1e-300 * peak] *= 0.0
    return z


def oracle_phases(resource, nu, phase):
    if phase["kind"] == "alternating":
        return resource * (1.0 - 2.0 * (np.arange(nu + 1) % 2))
    return resource * resources.linear_phase(phase["coefficient"], nu + 1)


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nu", [1, 2, 10, 1001, 2 ** 16 + 3])
@pytest.mark.parametrize("beta", [0.3, 0.75, 1.3])
@pytest.mark.parametrize("center", [None, 0.0, 1.0 / 3.0, 1.5])  # a fraction of nu
def test_gaussian_amplitudes_keep_the_bytes_of_the_oracle(nu, beta, center):
    spec = resources.GaussianSpec.from_beta(nu, beta, None if center is None else center * nu)
    assert same_bytes(resources.gaussian_amplitudes(spec), oracle_gaussian(spec))


SU2_THETAS = [0.0, np.pi, *np.random.default_rng(19).uniform(0.0, np.pi, 4)]
SU2_PHIS = [0.0, *np.random.default_rng(20).uniform(0.0, 2.0 * np.pi, 3)]


@pytest.mark.parametrize("nu", [0, 1, 7, 1000, 5000, 2 ** 17 + 1])  # the last: several blocks a side
@pytest.mark.parametrize("theta", SU2_THETAS)
@pytest.mark.parametrize("phi", SU2_PHIS)
def test_su2_amplitudes_keep_the_bytes_of_the_oracle(nu, theta, phi):
    assert same_bytes(resources.su2_coherent_amplitudes(nu, theta, phi),
                      oracle_su2(nu, theta, phi))


@pytest.mark.parametrize("nu", [2 ** 12, 2 ** 16])
@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, np.pi])
def test_su2_vectors_hold_no_subnormal_entry(nu, theta):
    # the log-gamma form left its underflowing tail subnormal, which slows
    # every later pass over the vector
    tiny = np.finfo(float).tiny
    for x in (resources.su2_coherent_moduli(nu, theta),
              resources.su2_coherent_amplitudes(nu, theta, 0.4).view(float)):
        assert not np.any((x != 0.0) & (np.abs(x) < tiny))


@pytest.mark.parametrize("theta", [1.0, 1.1])
def test_phased_su2_vectors_hold_no_subnormal_part(theta):
    # a modulus near the 1e-300 floor times a phase component ~1e-16 (phi =
    # pi/2 or pi, or an alternating phase on phi = 0) once left ~100 of them
    nu, tiny = 2 ** 16, np.finfo(float).tiny
    spec = {"name": "su2_coherent", "theta": theta}
    for z in (resources.su2_coherent_amplitudes(nu, theta, np.pi / 2),
              resources.su2_coherent_amplitudes(nu, theta, np.pi),
              cli.resolve_resource({**spec, "phi": np.pi / 2}, nu),
              cli.resolve_resource({**spec, "phases": {"kind": "alternating"}}, nu)):
        parts = z.view(float)
        assert not np.any((parts != 0.0) & (np.abs(parts) < tiny))


def test_su2_oracle_cases_hold_signed_zeros():
    # the byte comparison above sees the signs of underflowed entries
    x = resources.su2_coherent_amplitudes(5000, 0.3, 2.0).view(float)
    assert np.any((x == 0.0) & np.signbit(x)) and np.any((x == 0.0) & ~np.signbit(x))


@pytest.mark.parametrize("spec", [
    {"name": "max_entangled"},
    {"name": "gaussian", "beta": 0.8},
    {"name": "su2_coherent", "theta": 0.4, "phi": 2.0},
    {"name": "su2_coherent", "theta": 0.3, "phi": 5.5},
    {"name": "double_well", "gamma": -2.0},
], ids=lambda spec: spec["name"])
@pytest.mark.parametrize("phase", [
    {"kind": "alternating"},
    {"kind": "linear", "coefficient": 0.3},
    {"kind": "linear", "coefficient": -2.5},
], ids=lambda phase: "-".join(str(v) for v in phase.values()))
@pytest.mark.parametrize("nu", [1, 2, 1000, 4097])
def test_phased_resources_keep_the_bytes_of_the_oracle(spec, phase, nu):
    if spec["name"] == "su2_coherent":
        # one phase table of the slope phi + c on the real moduli
        c = math.pi if phase["kind"] == "alternating" else phase["coefficient"]
        moduli = resources.su2_coherent_moduli(nu, spec["theta"])
        want = oracle_flushed(moduli * resources.linear_phase(spec["phi"] + c, nu + 1),
                              moduli.max())
    else:
        want = oracle_phases(cli.resolve_resource(spec, nu), nu, phase)
    assert same_bytes(cli.resolve_resource({**spec, "phases": phase}, nu), want)


def peak_over_output(build) -> float:
    """Peak traced allocation of build() over the bytes of what it returns."""
    build()  # imports and first-call set-up stay out of the count
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


@pytest.mark.parametrize("build, bound", [
    (lambda nu: resources.gaussian_amplitudes(resources.GaussianSpec.from_beta(nu, 0.75)), 1.25),
    (lambda nu: cli.resolve_resource(
        {"name": "max_entangled", "phases": {"kind": "linear", "coefficient": 0.01}}, nu), 1.6),
    (lambda nu: cli.resolve_resource(
        {"name": "max_entangled", "phases": {"kind": "alternating"}}, nu), 1.25),
    (lambda nu: resources.su2_coherent_amplitudes(nu, 1.0, 0.3), 2.5),
], ids=["gaussian", "linear_phase", "alternating_phase", "su2_coherent"])
def test_constructors_build_in_bounded_memory(build, bound):
    # each vector is built in the buffer it is returned in: a complex result
    # also holds its float moduli (SU(2)) or the real vector it multiplies
    # (a linear phase) while it is formed
    assert peak_over_output(lambda: build(2 ** 20)) <= bound


@pytest.mark.parametrize("n", [1, 5, 2 ** 16 + 7])  # the last: three flush blocks
@pytest.mark.parametrize("coeff", [0.0, np.pi / 2, np.pi, 0.37])
def test_linear_phased_keeps_the_bytes_of_the_oracle(n, coeff):
    # signed entries spread down to 1e-310, so many parts land near the floor
    rng = np.random.default_rng(23)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-310.0, 0.0, n)
    peak = float(np.max(np.abs(x)))
    want = oracle_flushed(x * resources.linear_phase(coeff, n), peak)
    assert same_bytes(resources.linear_phased(x, coeff, peak), want)


EXACT_FAMILIES = {"uniform": (resources.max_entangled_band, resources.max_entangled_amplitudes),
                  "noon": (resources.noon_band, resources.noon_amplitudes)}
# (nu, N): small and odd sizes, the Gram reader's widths 32..256, and N = nu,
# where N00N's one nonzero lag is read
EXACT_SIZES = [(1, 1), (2, 1), (2, 2), (7, 3), (7, 7), (64, 32), (257, 257), (1000, 1000),
               (2 ** 16, 1), (2 ** 16, 4), (2 ** 16, 64), (2 ** 16, 256)]


@pytest.mark.parametrize("nu, N", EXACT_SIZES)
@pytest.mark.parametrize("phase", [None, np.pi, 0.7, -0.013], ids=["none", "alternating",
                                                                  "linear-0.7", "linear-0.013"])
@pytest.mark.parametrize("name", sorted(EXACT_FAMILIES))
def test_exact_band_matches_the_band_of_the_vector(name, phase, nu, N):
    # the vector path rounds its amplitudes 1/sqrt(nu+1) and the products of
    # each lag in the same direction: 3.5e-15 relative (16 ulp) at 2^16
    exact, vector = EXACT_FAMILIES[name]
    got, want = exact(nu, N), band(vector(nu), N)
    if phase is not None:
        got, want = phased_band(got, phase, N), phased_band(vector(nu), phase, N)
    assert got.n_particles == want.n_particles == nu and got.weight == want.weight == 1.0
    for a, b in ((got.sums, want.sums), (got.moduli, want.moduli)):
        assert a.shape == b.shape == (N,)
        np.testing.assert_allclose(a, b, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("nu, N", EXACT_SIZES + [(2 ** 62, 4), (2 ** 63 - 1, 4)])
def test_exact_bands_are_the_rationals_rounded_once(nu, N):
    lags = [Fraction(2 * (nu + 1 - d), nu + 1) for d in range(1, N + 1)]
    noon = [Fraction(d == nu) for d in range(1, N + 1)]
    for b, want in ((resources.max_entangled_band(nu, N), lags),
                    (resources.noon_band(nu, N), noon)):
        assert b.weight == 1.0
        assert b.sums.tolist() == b.moduli.tolist() == [float(q) for q in want]


def test_uniform_vector_at_nu_1e7_enters_band():
    # the normalization check once rejected this vector above nu ~ 2.7e6; the
    # CLI reads the exact band, so this is the vector path's own regression
    nu = 10 ** 7
    got = band(resources.max_entangled_amplitudes(nu), 1)
    assert got.weight == 1.0
    assert got.sums[0] == pytest.approx(2 * nu / (nu + 1), rel=2e-14, abs=0.0)


@pytest.mark.parametrize("exact, nu", [(resources.max_entangled_band, -1),
                                       (resources.noon_band, 0)])
def test_exact_band_keeps_the_vector_validation(exact, nu):
    with pytest.raises(StateValidationError, match="nu"):
        exact(nu, 1)
    with pytest.raises(UnsupportedRegimeError, match="nu=3 < N=4"):
        exact(3, 4)
