"""`noise._brentq`, the port of scipy's `brentq` that finds the dephasing
threshold, against scipy's `brentq` as the oracle: the same root, bit for
bit, from the same sequence of evaluation points; and its failure paths,
which exit 3 through `telefock noise`."""

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from telefock import noise
from telefock.cli import main
from telefock.errors import NumericalError


def scipy_brentq(f, a, b, xtol, rtol):
    return float(brentq(f, a, b, xtol=xtol, rtol=rtol))


def smooth_function(kind: str, root: float, scale: float, params: list[float]):
    """A smooth function of x with one simple root at `root`."""
    if kind == "cubic":
        return lambda x: scale * (x - root) ** 3 + abs(params[0]) * (x - root)
    if kind == "tanh":
        return lambda x: math.tanh(scale * (x - root))
    if kind == "exp":
        return lambda x: math.exp(scale * x) - math.exp(scale * root)
    # one real root times quadratics without real roots: not monotone
    return lambda x: scale * (x - root) * math.prod((x - p) ** 2 + 0.01 for p in params)


cases = st.fixed_dictionaries({
    "kind": st.sampled_from(["cubic", "tanh", "exp", "bumps"]),
    "root": st.floats(-2.0, 2.0),
    "scale": st.floats(0.05, 4.0),
    "params": st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    "left": st.floats(0.01, 3.0),
    "right": st.floats(0.01, 3.0),
    "xtol": st.floats(1e-14, 1e-2),
    "rtol": st.floats(4 * np.finfo(float).eps, 1e-3),
})


def trail(find_root, f, a: float, b: float, xtol: float = 1e-13, rtol: float = 1e-14) -> tuple:
    """The root `find_root` returns (or how it failed) and every point at
    which it evaluated f."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)

    try:
        root = find_root(recorded, a, b, xtol, rtol)
    except RuntimeError:  # scipy's, or the port's NumericalError
        root = "no convergence"
    except Exception as exc:  # a mutant may fail in other ways
        root = type(exc).__name__
    return root, points


def matches_scipy(find_root, phases=tuple(Phase)):
    @settings(max_examples=400, deadline=None, database=None, phases=phases,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases)
    def check(case):
        f = smooth_function(case["kind"], case["root"], case["scale"], case["params"])
        args = (f, case["root"] - case["left"], case["root"] + case["right"],
                case["xtol"], case["rtol"])
        assert trail(find_root, *args) == trail(scipy_brentq, *args)

    return check


def test_brentq_matches_scipy_bit_for_bit():
    matches_scipy(noise._brentq)()


# Each mutant changes one line of the port: the inverse quadratic step, or
# the swap that keeps the best point in xcur.
MUTATIONS = {
    "extrapolation": ("(fblk * dblk - fpre * dpre)", "(fblk * dblk + fpre * dpre)"),
    "bracket swap": ("if abs(fblk) < abs(fcur):", "if abs(fblk) > abs(fcur):"),
}


def mutant(old: str, new: str):
    source = inspect.getsource(noise._brentq)
    assert source.count(old) == 1
    namespace = dict(vars(noise))
    exec(compile(source.replace(old, new), noise.__file__, "exec"), namespace)
    return namespace["_brentq"]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_the_property_catches_a_mutated_port(name):
    with pytest.raises(AssertionError):
        matches_scipy(mutant(*MUTATIONS[name]), phases=[Phase.generate])()


def random_threshold_args(rng: np.random.Generator) -> dict:
    """A four-coherence state that beats the separable baseline, so the
    threshold search runs: -x N / (N-2) < y <= sqrt(a d)."""
    while True:
        N = int(rng.integers(3, 7))
        a, b, c, d = rng.dirichlet(np.ones(4))
        x = -rng.uniform(0.01, 1.0) * math.sqrt(b * c)
        y_min, y_max = -x * N / (N - 2), math.sqrt(a * d)
        if y_min < y_max:
            return dict(a=a, b=b, c=c, d=d, x=x, y=rng.uniform(y_min, y_max), N=N,
                        lambda3=rng.uniform(0.0, 2.0), lambda4=rng.uniform(0.01, 2.0),
                        nu=int(rng.integers(max(3, N), 41)))


def test_threshold_matches_scipy_brentq_on_random_states(monkeypatch):
    rng = np.random.default_rng(2121)
    states = [random_threshold_args(rng) for _ in range(320)]
    ours = [noise.dephasing_threshold_demo(**args) for args in states]
    monkeypatch.setattr(noise, "_brentq", scipy_brentq)
    for args, report in zip(states, ours):
        reference = noise.dephasing_threshold_demo(**args)
        assert report.t_star_bisect == reference.t_star_bisect, args
        assert report.verified is reference.verified is True


def test_a_root_at_an_end_is_returned_at_once():
    for f in (lambda x: x, lambda x: x - 1.0):
        assert trail(noise._brentq, f, 0.0, 1.0) == trail(scipy_brentq, f, 0.0, 1.0)


# gaps on [0, 1.5] on which the search fails, scipy's error for each and the
# port's message: no sign change on the bracket, a NaN value, and a triple
# root, at which Brent's method is slow enough that 100 steps do not reach 1e-13
FAILURES = {
    "no sign change": (lambda t: 1.0, ValueError, "different signs"),
    "NaN gap": (lambda t: math.nan if t > 0.3 else t - 0.5, ValueError, "is NaN"),
    "no convergence": (lambda t: (t - 0.3) ** 3, RuntimeError,
                       "failed to converge after 100 iterations"),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_the_port_fails_where_scipy_does(name):
    gap, scipy_error, message = FAILURES[name]
    with pytest.raises(scipy_error):
        scipy_brentq(gap, 0.0, 1.5, 1e-13, 1e-14)
    with pytest.raises(NumericalError, match=message):
        noise._brentq(gap, 0.0, 1.5, 1e-13, 1e-14)


THRESHOLD_CONFIG = {
    "schema_version": 1, "kind": "noise", "N": 4, "nu": 4,
    "resource": {"name": "four_coherence", "a": 0.35, "b": 0.15, "c": 0.15, "d": 0.35,
                 "x": -0.1, "y": 0.3},
    "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
    "times": {"start": 0.0, "stop": 0.3, "num": 4},
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_threshold_failure_exits_3_through_telefock_noise(name, tmp_path, capsys, monkeypatch):
    # the port runs on the failing gap in place of the threshold's own
    gap, _, message = FAILURES[name]
    port = noise._brentq
    monkeypatch.setattr(noise, "_brentq", lambda f, a, b, xtol, rtol: port(gap, a, b, xtol, rtol))
    cfg = tmp_path / "threshold.json"
    cfg.write_text(json.dumps(THRESHOLD_CONFIG))
    assert main(["noise", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical error: root finder") and message in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
