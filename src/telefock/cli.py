"""Command-line driver for teleportation experiments.

Subcommands: teleport, sweep, noise, converge, ground-state, selftest.
Configuration is a single JSON file with a versioned schema; results are
written as CSV or JSON with 17 significant digits so downstream plotting
can round-trip the numbers losslessly.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 environment/numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import continuum, fock, noise, protocol, resources, selftest
from .errors import (
    ConfigError,
    NumericalError,
    QuadratureError,
    TelefockError,
)

SCHEMA_VERSION = 1

SWEEP_COLUMNS = ("nu", "N", "fidelity", "avg_entanglement", "f_sep",
                 "triangle_slack", "wall_time_s")
NOISE_COLUMNS = ("t", "N", "fidelity", "avg_entanglement", "f_sep",
                 "lower_bound", "survival_weight")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_rows(path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_gnuplot(script_path: str, csv_path: str, x: str, ys: list[str],
                   columns) -> None:
    """Companion plotting script; the CLI itself never renders anything."""
    idx = {c: i + 1 for i, c in enumerate(columns)}
    plots = ", ".join(
        f"'{csv_path}' using {idx[x]}:{idx[y]} with linespoints title '{y}'"
        for y in ys
    )
    with open(script_path, "w") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key autotitle columnhead\n")
        fh.write(f"set xlabel '{x}'\n")
        fh.write(f"plot {plots}\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    return cfg


def _get(cfg: dict, key: str, kind, required: bool = True, default=None):
    if not isinstance(cfg, dict):
        raise ConfigError(
            f"expected an object holding {key!r}, got {type(cfg).__name__}"
        )
    if key not in cfg:
        if required:
            raise ConfigError(f"missing config key {key!r}")
        return default
    value = cfg[key]
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"config key {key!r} must be {kind}, got bool")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"config key {key!r} must be {kind}, got {type(value).__name__}")
    return value


def _finite(value, key: str) -> float:
    """A config number that must be a finite int or float (not a bool)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{key} entries must be finite numbers, got {value!r}")


def _nonnegative_list(values: list, key: str) -> list[float]:
    numbers = [_finite(v, key) for v in values]
    if not numbers or any(v < 0 for v in numbers):
        raise ConfigError(f"{key} must be a non-empty list of nonnegative numbers")
    return numbers


def _nu_grid(cfg: dict) -> list[int]:
    grid = _get(cfg, "nu_grid", list)
    if not grid or not all(
        isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in grid
    ):
        raise ConfigError("nu_grid must be a non-empty list of positive integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("nu_grid must be strictly increasing")
    return grid


@dataclass
class ResolvedResource:
    """A named resource at fixed nu: amplitudes for pure families, or a state."""

    name: str
    amplitudes: np.ndarray | None
    _state: fock.ResourceState | None = None

    def state(self) -> fock.ResourceState:
        if self._state is None:
            self._state = fock.ResourceState.from_amplitudes(self.amplitudes)
        return self._state

    def fidelity(self, N: int) -> float:
        if self.amplitudes is not None:
            return protocol.fidelity_closed_pure(self.amplitudes, N)
        return protocol.fidelity_closed(self.state(), N)

    def avg_entanglement(self, N: int) -> float:
        if self.amplitudes is not None:
            return protocol.avg_entanglement_closed_pure(self.amplitudes, N)
        return protocol.avg_entanglement_closed(self.state(), N)


def resolve_resource(spec: dict, nu: int) -> ResolvedResource:
    if not isinstance(spec, dict):
        raise ConfigError("resource spec must be an object")
    name = _get(spec, "name", str)
    try:
        if name == "max_entangled":
            amps = resources.max_entangled_amplitudes(nu)
        elif name == "noon":
            amps = resources.noon_amplitudes(nu)
        elif name == "fock_separable":
            k = _get(spec, "k", int, required=False, default=nu)
            return ResolvedResource(name, None, resources.fock_separable(nu, k))
        elif name == "gaussian":
            beta = _get(spec, "beta", float, required=False)
            if beta is not None:
                gspec = resources.GaussianSpec.from_beta(
                    nu, beta, _get(spec, "center", float, required=False)
                )
            else:
                gspec = resources.GaussianSpec(
                    nu=nu,
                    center=_get(spec, "center", float, required=False, default=nu / 2.0),
                    sigma=_get(spec, "sigma", float),
                )
            amps = resources.gaussian_amplitudes(gspec)
        elif name == "su2_coherent":
            amps = resources.su2_coherent_amplitudes(
                nu, _get(spec, "theta", float), _get(spec, "phi", float, required=False, default=0.0)
            )
        elif name == "double_well":
            gamma = _get(spec, "gamma", float, required=False)
            if gamma is not None:
                params = resources.BoseHubbardParams.from_gamma(
                    nu, gamma, _get(spec, "tau", float, required=False, default=1.0)
                )
            else:
                params = resources.BoseHubbardParams(
                    nu=nu, tau=_get(spec, "tau", float), U=_get(spec, "U", float)
                )
            amps = resources.double_well_ground_amplitudes(params)
        elif name == "four_coherence":
            state = noise.four_coherence_state(
                _get(spec, "a", float), _get(spec, "b", float),
                _get(spec, "c", float), _get(spec, "d", float),
                _get(spec, "x", float), _get(spec, "y", float), nu,
            )
            return ResolvedResource(name, None, state)
        else:
            raise ConfigError(f"unknown resource name {name!r}")
    except TelefockError:
        raise
    phase = spec.get("phases")
    if phase is not None:
        kind = _get(phase, "kind", str)
        if kind == "alternating":
            amps = amps * np.exp(1j * np.pi * np.arange(nu + 1))
        elif kind == "linear":
            coeff = _get(phase, "coefficient", float)
            amps = amps * np.exp(1j * coeff * np.arange(nu + 1))
        else:
            raise ConfigError(f"unknown phase kind {kind!r}")
    return ResolvedResource(name, amps)


def resolve_noise(spec: dict, nu: int | None = None):
    kind = _get(spec, "kind", str)
    if kind == "dephasing":
        return noise.DephasingSpec(
            _get(spec, "lambda3", float), _get(spec, "lambda4", float), t=0.0
        )
    if kind == "loss":
        channels = _get(spec, "channels", list)
        parsed = tuple(
            noise.LossChannel(_get(ch, "rate", float), _get(ch, "m", int),
                              _get(ch, "n", int))
            for ch in channels
        )
        return noise.LossSpec(parsed, t=0.0)
    if kind == "mixing":
        if nu is None:
            raise ConfigError("mixing channel needs a fixed nu")
        undesired = resolve_resource(_get(spec, "undesired", dict), nu)
        return noise.MixingSpec(undesired.state(), _get(spec, "s", float, required=False, default=0.0))
    raise ConfigError(f"unknown noise kind {kind!r}")


def _time_grid(cfg: dict) -> np.ndarray:
    times = cfg.get("times")
    if isinstance(times, list):
        return np.asarray(_nonnegative_list(times, "times"))
    if isinstance(times, dict):
        return np.linspace(
            _get(times, "start", float), _get(times, "stop", float),
            _get(times, "num", int),
        )
    raise ConfigError("missing or malformed 'times'")


def resolve_family(spec: dict) -> continuum.ContinuumProfile:
    name = _get(spec, "name", str)
    if name == "flat":
        return continuum.flat_family()
    if name == "gaussian":
        return continuum.gaussian_beta_family(_get(spec, "beta", float))
    if name == "noon":
        return continuum.discrete_only_family(resources.noon_amplitudes)
    if name == "fock":
        return continuum.discrete_only_family(
            lambda nu: np.eye(nu + 1, dtype=complex)[nu]
        )
    if name == "double_well":
        gamma = _get(spec, "gamma", float)
        if gamma < -1.0:
            return continuum.double_well_bimodal_profile(gamma)
        return continuum.double_well_profile(lambda nu: gamma)
    raise ConfigError(f"unknown family name {name!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _psi_amplitudes(psi_cfg, N: int) -> np.ndarray:
    """The normalized input state from N+1 `[re, im]` pairs of finite numbers."""
    if not (isinstance(psi_cfg, list) and len(psi_cfg) == N + 1
            and all(isinstance(p, list) and len(p) == 2 for p in psi_cfg)):
        raise ConfigError(f"psi must be a list of N+1 = {N + 1} [re, im] pairs")
    amps = np.array([complex(_finite(re, "psi"), _finite(im, "psi")) for re, im in psi_cfg])
    norm = float(np.linalg.norm(amps))
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"psi must have a finite nonzero norm, got {norm!r}")
    return amps / norm


def cmd_teleport(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    nu = _get(cfg, "nu", int)
    resource = resolve_resource(_get(cfg, "resource", dict), nu)
    rho = resource.state()
    psi_cfg = cfg.get("psi")
    if psi_cfg is not None:
        psi = fock.PureTwoModeState(N, _psi_amplitudes(psi_cfg, N))
    else:
        psi = fock.sample_haar(N, args.seed)

    rows = []
    for outcome in protocol.iter_outcomes(psi, rho):
        neg = fock.negativity(outcome.state) if outcome.state is not None else 0.0
        rows.append({
            "l": outcome.l, "lam": outcome.lam,
            "probability": outcome.probability, "negativity": neg,
        })
    report = protocol.performance_report(rho, N)
    payload = {
        "N": N, "nu": nu, "resource": resource.name,
        "fidelity": report.fidelity,
        "avg_entanglement": report.avg_entanglement,
        "f_sep": report.f_sep,
        "e_max": report.e_max,
        "triangle_slack": report.triangle_slack,
        "outcomes": rows,
    }
    if args.format == "json":
        _write_json(args.out, payload)
    else:
        print(f"resource={resource.name}  N={N}  nu={nu}")
        print(f"{'l':>4} {'lam':>4} {'probability':>20} {'negativity':>20}")
        for r in rows:
            print(f"{r['l']:>4} {r['lam']:>4} {r['probability']:>20.12f} {r['negativity']:>20.12f}")
        print(f"fidelity          = {report.fidelity:.12f}")
        print(f"avg_entanglement  = {report.avg_entanglement:.12f}")
        print(f"f_sep             = {report.f_sep:.12f}")
        print(f"triangle_slack    = {report.triangle_slack:.3e}")
        if args.out:
            _write_json(args.out, payload)
    return 0


def _sweep_row(nu: int, N: int, resource_spec: dict, timings: bool) -> dict:
    start = time.perf_counter()
    resource = resolve_resource(resource_spec, nu)
    f = resource.fidelity(N)
    e = resource.avg_entanglement(N)
    f_sep = protocol.separable_fidelity(N)
    slack = 8.0 * e / np.pi - (N + 2) * f + 2.0
    if slack < -1e-10:
        raise NumericalError(f"triangle slack {slack} negative at nu={nu}")
    elapsed = time.perf_counter() - start if timings else 0.0
    return {
        "nu": nu, "N": N, "fidelity": f, "avg_entanglement": e,
        "f_sep": f_sep, "triangle_slack": slack, "wall_time_s": elapsed,
    }


def cmd_sweep(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    grid = _nu_grid(cfg)
    resource_spec = _get(cfg, "resource", dict)
    resolve_resource(resource_spec, grid[0])  # fail fast on bad specs
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(
                lambda nu: _sweep_row(nu, N, resource_spec, args.timings), grid
            ))
    else:
        rows = [_sweep_row(nu, N, resource_spec, args.timings) for nu in grid]
    if args.format == "json":
        _write_json(args.out, rows)
    else:
        _write_rows(args.out, SWEEP_COLUMNS, rows)
        if args.gnuplot and args.out:
            _write_gnuplot(args.gnuplot, args.out, "nu",
                           ["fidelity", "avg_entanglement", "f_sep"], SWEEP_COLUMNS)
    return 0


def cmd_noise(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    nu = _get(cfg, "nu", int)
    resource = resolve_resource(_get(cfg, "resource", dict), nu)
    rho = resource.state()
    noise_spec = resolve_noise(_get(cfg, "noise", dict), nu)

    rows = []
    f_sep = protocol.separable_fidelity(N)
    if isinstance(noise_spec, noise.MixingSpec):
        # scan over the mixing weight; the scan column is s, not time
        for s in _nonnegative_list(_get(cfg, "weights", list), "weights"):
            mixed = noise.mix(rho, noise.MixingSpec(noise_spec.undesired, s))
            rows.append({
                "t": s, "N": N,
                "fidelity": protocol.fidelity_closed(mixed, N),
                "avg_entanglement": protocol.avg_entanglement_closed(mixed, N),
                "f_sep": f_sep, "lower_bound": 0.0, "survival_weight": 1.0,
            })
        if args.format == "json":
            _write_json(args.out, {"rows": rows, "threshold": None})
        else:
            _write_rows(args.out, NOISE_COLUMNS, rows)
        return 0

    times = _time_grid(cfg)
    if isinstance(noise_spec, noise.DephasingSpec):
        for t in times:
            evolved = noise.dephase(rho, noise.DephasingSpec(
                noise_spec.lambda3, noise_spec.lambda4, float(t)))
            rows.append({
                "t": float(t), "N": N,
                "fidelity": protocol.fidelity_closed(evolved, N),
                "avg_entanglement": protocol.avg_entanglement_closed(evolved, N),
                "f_sep": f_sep, "lower_bound": 0.0, "survival_weight": 1.0,
            })
    else:
        eta = noise.eta_rates(noise_spec, nu)
        max_eta = float(np.max(eta))
        f0 = protocol.fidelity_closed(rho, N)
        for t in times:
            timed = noise.LossSpec(noise_spec.channels, float(t))
            res = noise.particle_loss_analytic(rho, timed)
            rows.append({
                "t": float(t), "N": N,
                "fidelity": protocol.fidelity_closed(res.surviving_block, N),
                "avg_entanglement": protocol.avg_entanglement_closed(res.surviving_block, N),
                "f_sep": f_sep,
                "lower_bound": float(np.exp(-2.0 * t * max_eta) * f0),
                "survival_weight": res.survival_weight,
            })

    extra = None
    if (isinstance(noise_spec, noise.DephasingSpec) and resource.name == "four_coherence"
            and N > 2):
        spec = cfg["resource"]
        report = noise.dephasing_threshold_demo(
            spec["a"], spec["b"], spec["c"], spec["d"], spec["x"], spec["y"],
            N, noise_spec.lambda3, noise_spec.lambda4, nu=nu,
        )
        extra = json.loads(report.to_json())
    if args.format == "json":
        _write_json(args.out, {"rows": rows, "threshold": extra})
    else:
        _write_rows(args.out, NOISE_COLUMNS, rows)
        if args.gnuplot and args.out:
            _write_gnuplot(args.gnuplot, args.out, "t",
                           ["fidelity", "f_sep", "lower_bound"], NOISE_COLUMNS)
        if extra is not None:
            print(f"threshold t_star = {extra['t_star']:.12f} "
                  f"(bisection {extra['t_star_bisect']:.12f})", file=sys.stderr)
    return 0


def cmd_converge(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    grid = _nu_grid(cfg)
    if "superposition" in cfg:
        sup = cfg["superposition"]
        prof_a = resolve_family(_get(sup, "a", dict))
        prof_b = resolve_family(_get(sup, "b", dict))
        report = continuum.check_proposition3(
            prof_a, prof_b, _get(sup, "c1", float), _get(sup, "c2", float), N, grid
        )
    elif "noise" in cfg:
        profile = resolve_family(_get(cfg, "family", dict))
        noise_spec = resolve_noise(cfg["noise"])
        rule = _get(cfg, "time_rule", dict)
        exponent = _get(rule, "exponent", float)
        scale = _get(rule, "scale", float, required=False, default=1.0)
        report = noise.noisy_convergence(
            profile, noise_spec, lambda nu: scale * float(nu) ** exponent, N, grid
        )
    else:
        profile = resolve_family(_get(cfg, "family", dict))
        report = continuum.check_proposition2(profile, N, grid)
    _write_json(args.out, json.loads(report.to_json()))
    return 0


def cmd_ground_state(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    nu = _get(cfg, "nu", int)
    gamma = _get(cfg, "gamma", float)
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    rho = resources.double_well_ground(params)
    mean, var = resources.imbalance_moments(rho)
    payload = {
        "nu": nu, "gamma": gamma, "N": N,
        "imbalance_mean": mean,
        "imbalance_variance": var,
        "fidelity": protocol.fidelity_closed(rho, N),
        "avg_entanglement": protocol.avg_entanglement_closed(rho, N),
        "peaks": resources.occupation_peaks(rho),
    }
    if gamma > -1.0:
        payload["predicted_variance"] = 1.0 / (nu * np.sqrt(gamma + 1.0))
        profile = continuum.double_well_profile(lambda _nu: gamma)
        payload["fidelity_continuum"] = continuum.fidelity_continuum(profile, N, nu)
    else:
        payload["predicted_peaks"] = [
            -float(np.sqrt(1.0 - 1.0 / gamma ** 2)), float(np.sqrt(1.0 - 1.0 / gamma ** 2))
        ]
        profile = continuum.double_well_bimodal_profile(gamma)
        payload["fidelity_continuum"] = continuum.fidelity_continuum(profile, N, nu)
    _write_json(args.out, payload)
    return 0


def cmd_selftest(_cfg, _args) -> int:
    return selftest.run_selftest(verbose=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telefock",
        description="Two-mode bosonic teleportation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "teleport": cmd_teleport,
        "sweep": cmd_sweep,
        "noise": cmd_noise,
        "converge": cmd_converge,
        "ground-state": cmd_ground_state,
        "selftest": cmd_selftest,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        if name != "selftest":
            p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--timings", action="store_true",
            help="populate wall_time_s (off by default so identical configs "
                 "produce byte-identical output)",
        )
        p.add_argument(
            "--gnuplot", default=None,
            help="also write a gnuplot script for the emitted CSV",
        )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else None
        return args.handler(cfg, args)
    except (ConfigError, TelefockError) as exc:
        if isinstance(exc, (NumericalError, QuadratureError)):
            print(f"numerical error: {exc}", file=sys.stderr)
            return 3
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
