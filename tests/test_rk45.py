"""`noise.solve_ivp`, the port of scipy's RK45 `solve_ivp` that integrates
the loss master equation, against scipy's `solve_ivp` as the oracle: the
same final state, bit for bit, from the same sequence of evaluation points,
with the same `nfev`, `success` and `message`; the same Lindblad blocks
through `particle_loss_lindblad`; and its failure path, which raises
`NumericalError` there."""

import inspect

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from telefock import fock, noise
from telefock.errors import NumericalError

TOLERANCES = dict(rtol=1e-10, atol=1e-12)


def random_loss_spec(rng: np.random.Generator) -> noise.LossSpec:
    """One to five channels a_3^m a_4^n, m, n <= 2, at rates in [0, 2)."""
    channels = []
    for _ in range(int(rng.integers(1, 6))):
        m, n = (int(v) for v in rng.integers(0, 3, 2))
        channels.append(noise.LossChannel(float(rng.uniform(0.0, 2.0)), m or int(n == 0), n))
    return noise.LossSpec(tuple(channels), t=1.0)


def random_state(rng: np.random.Generator, nu: int) -> fock.ResourceState:
    x = rng.standard_normal(nu + 1) + 1j * rng.standard_normal(nu + 1)
    return fock.ResourceState.from_amplitudes(x / np.linalg.norm(x))


def lindblad_system(rho: fock.ResourceState, spec: noise.LossSpec):
    """(rhs, y0) of the loss master equation as `particle_loss_lindblad` hands it over."""
    nu = rho.n_particles
    generator = noise._loss_generator(spec, nu)
    offsets = noise._block_offsets(nu)
    y = np.zeros(int(offsets[-1]), dtype=complex)
    y[offsets[nu]:] = rho.matrix.reshape(-1)
    return (lambda t, v: (generator @ v.view(complex)).view(float)), y.view(float)


rng = np.random.default_rng(2727)
LINDBLAD = [(random_state(rng, nu), random_loss_spec(rng), float(rng.uniform(0.05, 1.0)))
            for nu in range(1, 13)]
M = rng.standard_normal((6, 6))
Y6 = rng.standard_normal(6)

# (rhs, t_span, y0) beside the Lindblad grid, each reaching a path of the
# step control; the tests below check that scipy takes it
SYSTEMS = {
    "linear": (lambda t, y: M @ y, (0.0, 2.0), Y6),
    "empty interval": (lambda t, y: M @ y, (0.5, 0.5), Y6),
    "t below the first step": (lambda t, y: M @ y, (0.0, 1e-9), Y6),
    "oscillator": (lambda t, y: np.array([y[1], -100.0 * y[0]]), (0.0, 1.0), np.array([1.0, 0.0])),
    # zero until t = 0.3, so the steps grow tenfold into a jump that cuts them fivefold
    "jump": (lambda t, y: float(t >= 0.3) * np.ones_like(y), (0.0, 1.0), np.zeros(2)),
    # y = 1 / (1 - t) blows up at t = 1: the step falls below 10 spacings of t
    "blow-up": (lambda t, y: y * y, (0.0, 2.0), np.array([1.0])),
}
for rho, spec, t in LINDBLAD:
    rhs, y0 = lindblad_system(rho, spec)
    SYSTEMS[f"lindblad nu={rho.n_particles}"] = (rhs, (0.0, t), y0)


def trail(integrate, fun, t_span, y0) -> tuple:
    """What `integrate` returns (or how it failed) and every point at which
    it evaluated fun, as (t, hash of the bytes of y)."""
    points = []

    def recorded(t, y):
        points.append((float(t), hash(y.tobytes())))
        return fun(t, y)

    try:
        sol = integrate(recorded, t_span, y0, **TOLERANCES)
        result = (sol.success, sol.message, sol.nfev, sol.y[:, -1].tobytes())
    except Exception as exc:  # a mutant may fail in other ways
        result = type(exc).__name__
    return result, points


def matches_scipy(integrate) -> None:
    for name, (fun, t_span, y0) in SYSTEMS.items():
        assert trail(integrate, fun, t_span, y0) == trail(scipy_solve_ivp, fun, t_span, y0), name


def test_solve_ivp_matches_scipy_bit_for_bit():
    matches_scipy(noise.solve_ivp)


def rejected_steps(sol) -> int:
    """Rejected steps of a scipy RK45 run: one evaluation for f(t0), one for
    the first-step guess, six per attempted step; `sol.t` holds t0 and the
    end of each accepted step."""
    return (sol.nfev - 2) // 6 - (len(sol.t) - 1)


PATHS = {
    "empty interval": lambda sol: sol.nfev == 1,  # f(t0) alone: no step
    "t below the first step": lambda sol: sol.nfev == 8 and len(sol.t) == 2,  # one step, to t1
    "linear": lambda sol: rejected_steps(sol) > 0,
    "jump": lambda sol: rejected_steps(sol) > 0,
    "blow-up": lambda sol: not sol.success,
    "lindblad nu=12": lambda sol: rejected_steps(sol) > 0,
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_the_grid_reaches_each_path_of_scipys_step_control(name):
    fun, t_span, y0 = SYSTEMS[name]
    assert PATHS[name](scipy_solve_ivp(fun, t_span, y0, **TOLERANCES))


def mutant(old: str | None = None, new: str | None = None, **constants):
    """The port with one piece of its source replaced, or one of the
    module's constants rebound."""
    source = inspect.getsource(noise.solve_ivp)
    if old is not None:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = {**vars(noise), **constants}
    exec(compile(source, noise.__file__, "exec"), namespace)
    return namespace["solve_ivp"]


def one_ulp_up(table: np.ndarray, index) -> np.ndarray:
    out = table.copy()
    out[index] = np.nextafter(out[index], np.inf)
    return out


# Each mutant changes one constant of the port: the safety factor, the
# least step factor (it binds only where a step lands on the jump), one
# stage coefficient by one ulp, and the floor of the step (it moves only the
# failure on the blow-up)
MUTATIONS = {
    "safety": lambda: mutant("0.9 * error_norm", "0.91 * error_norm"),
    "min factor": lambda: mutant("max(0.2, factor)", "max(0.21, factor)"),
    "tableau": lambda: mutant(_DP_A=one_ulp_up(noise._DP_A, (4, 2))),
    "min step": lambda: mutant("10 * abs(", "9 * abs("),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_the_comparison_catches_a_mutated_port(name):
    with pytest.raises(AssertionError):
        matches_scipy(MUTATIONS[name]())


@pytest.mark.parametrize("rho, spec, t", LINDBLAD, ids=[f"nu={rho.n_particles}" for rho, _, _ in LINDBLAD])
def test_lindblad_blocks_are_scipys_bit_for_bit(rho, spec, t, monkeypatch):
    ours = noise.particle_loss_lindblad(rho, spec, t)
    monkeypatch.setattr(noise, "solve_ivp", scipy_solve_ivp)
    reference = noise.particle_loss_lindblad(rho, spec, t)
    assert ours.surviving_block.tobytes() == reference.surviving_block.tobytes()
    assert ours.survival_weight == reference.survival_weight
    assert [b.tobytes() for b in ours.lower_blocks] == [b.tobytes() for b in reference.lower_blocks]


def test_a_step_below_the_spacing_of_t_raises_numerical_error(monkeypatch):
    # the port runs on the blow-up in place of the master equation
    fun, t_span, y0 = SYSTEMS["blow-up"]
    port = noise.solve_ivp
    monkeypatch.setattr(noise, "solve_ivp", lambda f, span, y, **tol: port(fun, t_span, y0, **tol))
    rho, spec, t = LINDBLAD[0]
    with pytest.raises(NumericalError, match="loss integrator failed: Required step size is less"):
        noise.particle_loss_lindblad(rho, spec, t)


def test_a_backward_span_is_refused():
    # scipy would integrate backward; the port would return y0 unchanged
    fun, _, y0 = SYSTEMS["linear"]
    with pytest.raises(ValueError, match="forward only"):
        noise.solve_ivp(fun, (1.0, 0.0), y0, **TOLERANCES)
