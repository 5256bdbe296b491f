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
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import continuum, fock, noise, protocol, resources, selftest
from .errors import (
    ConfigError,
    NumericalError,
    StateValidationError,
    TelefockError,
    UnsupportedRegimeError,
)

SCHEMA_VERSION = 1

# the top-level keys each subcommand reads besides `schema_version` and `kind`
CONFIG_KEYS = {"teleport": ("N", "nu", "resource", "psi"), "sweep": ("N", "nu_grid", "resource"),
               "noise": ("N", "nu", "resource", "noise", "times", "weights"),
               "converge": ("N", "nu_grid", "family", "superposition", "noise", "time_rule"),
               "ground-state": ("N", "nu", "gamma")}

SWEEP_COLUMNS = ("nu", "N", "fidelity", "avg_entanglement", "f_sep",
                 "triangle_slack", "wall_time_s")
NOISE_COLUMNS = ("t", "N", "fidelity", "avg_entanglement", "f_sep",
                 "lower_bound", "survival_weight")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(path, text: str) -> None:
    """Write text to stdout if path is None, else to a temp file in the
    file's directory that then takes its place (`os.replace`), so a failed
    write leaves no partial file and an existing one as it was.  A path that
    exists but names no regular file (/dev/stdout on a pipe) is written directly."""
    if path is None:
        sys.stdout.write(text)
        return
    real = os.path.realpath(path)  # a symlink keeps naming its file
    if os.path.exists(path) and not os.path.isfile(real):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return
    fd, tmp = tempfile.mkstemp(prefix=".telefock-", suffix=".tmp", dir=os.path.dirname(real))
    try:
        with open(fd, "w", newline="") as fh:
            os.umask(umask := os.umask(0o022))  # read the umask, and keep it
            os.fchmod(fd, 0o666 & ~umask)  # the mode `open` gives a new file
            fh.write(text)
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_rows(path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    _emit(path, json.dumps(payload, indent=2, default=_json_default) + "\n")


def _write_gnuplot(script_path: str, csv_path: str, x: str, ys: list[str],
                   columns) -> None:
    """Companion plotting script; the CLI itself never renders anything."""
    idx = {c: i + 1 for i, c in enumerate(columns)}
    plots = ", ".join(
        f"'{csv_path}' using {idx[x]}:{idx[y]} with linespoints title '{y}'"
        for y in ys
    )
    _emit(script_path, "set datafile separator ','\nset key autotitle columnhead\n"
                       f"set xlabel '{x}'\nplot {plots}\n")


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
    except ValueError as exc:  # a JSONDecodeError, or an int beyond Python's digit limit
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
    if kind is float and isinstance(value, (int, float)):
        value = _finite(value, f"config key {key!r}")
    if not isinstance(value, kind):
        raise ConfigError(f"config key {key!r} must be {kind}, got {type(value).__name__}")
    if kind is int and not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"config key {key!r} must fit in a 64-bit integer, "
                          f"got {value.bit_length()} bits")
    return value


def _finite(value, what: str) -> float:
    """A config number that must be a finite int or float (not a bool)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _nonnegative_list(values: list, key: str) -> list[float]:
    numbers = [_finite(v, f"{key} entries") for v in values]
    if not numbers or any(v < 0 for v in numbers):
        raise ConfigError(f"{key} must be a non-empty list of nonnegative numbers")
    return numbers


def _nu_grid(cfg: dict) -> list[int]:
    grid = _get(cfg, "nu_grid", list)
    if not grid or not all(
        isinstance(v, int) and not isinstance(v, bool) and 0 < v < 2 ** 63 for v in grid
    ):
        raise ConfigError("nu_grid must be a non-empty list of positive 64-bit integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("nu_grid must be strictly increasing")
    return grid


def _check_keys(spec: dict, keys: dict, section: str, tag: str = "name") -> str:
    """The spec's `tag` (its `name` or `kind`), once every other key of the
    spec is among the `keys` of that name."""
    name = _get(spec, tag, str)
    if name not in keys:
        raise ConfigError(f"unknown {section} {tag} {name!r}")
    _only_keys(spec, (tag, *keys[name]), f"a {name!r} {section}")
    return name


def _only_keys(spec: dict, keys, where: str) -> None:
    """Raise unless spec, the section named by `where`, is an object of `keys` alone."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {type(spec).__name__}")
    unknown = [key for key in spec if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} in {where}")


# the keys each resource reads besides `name`; `phases` goes on vectors only
RESOURCE_KEYS = {"max_entangled": ("phases",), "noon": ("phases",), "fock_separable": ("k",),
                 "gaussian": ("beta", "sigma", "center", "phases"),
                 "su2_coherent": ("theta", "phi", "phases"),
                 "double_well": ("gamma", "tau", "U", "phases"), "four_coherence": tuple("abcdxy")}


# the resources whose exact `protocol.Band` the library forms in O(N)
EXACT_BANDS = {"max_entangled": resources.max_entangled_band, "noon": resources.noon_band}


def resolve_resource(spec: dict, nu: int, N: int | None = None
                     ) -> np.ndarray | fock.Diagonals | protocol.Band:
    """The one place that decides a resource's form.  Without N: the amplitude
    vector of a pure family times its phases e^{i c k} (c = pi for `alternating`;
    SU(2) adds its slope phi), or the diagonals of a mixed one.  Given N: what a
    report of width N reads, with no phased vector formed: the exact band of a
    resource of `EXACT_BANDS`, `protocol.phased_band` of a real vector (SU(2):
    its moduli) or exact band with phases, and any other resource as without N."""
    name = _check_keys(spec, RESOURCE_KEYS, "resource")
    kind, slope = None, 0.0
    if N is not None and name in EXACT_BANDS:
        resource = EXACT_BANDS[name](nu, N)
    elif name == "max_entangled":
        resource = resources.max_entangled_amplitudes(nu)
    elif name == "noon":
        resource = resources.noon_amplitudes(nu)
    elif name == "fock_separable":
        k = _get(spec, "k", int, required=False, default=nu)
        resource = resources.fock_separable_diagonals(nu, k)
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
        resource = resources.gaussian_amplitudes(gspec)
    elif name == "su2_coherent":
        theta = _get(spec, "theta", float)
        kind, slope = "linear", _get(spec, "phi", float, required=False, default=0.0)
        resources._check_su2_angles(theta, slope)
        resource = resources.su2_coherent_moduli(nu, theta)
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
        resource = resources.double_well_ground_amplitudes(params)
    else:  # four_coherence
        resource = noise.four_coherence_diagonals(
            _get(spec, "a", float), _get(spec, "b", float),
            _get(spec, "c", float), _get(spec, "d", float),
            _get(spec, "x", float), _get(spec, "y", float), nu,
        )
    phase = spec.get("phases")
    if phase is not None:
        phase_kind = _check_keys(phase, {"alternating": (), "linear": ("coefficient",)},
                                 "phase", "kind")
        c = math.pi if phase_kind == "alternating" else _get(phase, "coefficient", float)
        if kind is None:
            kind, slope = phase_kind, c
        else:  # SU(2): one linear slope
            slope += c
        if kind == "linear":
            resources._check_linear_phase(slope, nu + 1)
    if kind is not None and N is not None:
        return protocol.phased_band(resource, slope, N)
    # the constructors return vectors of their own, so `alternating` signs go
    # on in place (times +1 leaves a real vector's bytes)
    if kind == "alternating":
        np.multiply(resource[1::2], -1.0, out=resource[1::2])
    elif kind == "linear":
        peak = max(float(resource.max()), -float(resource.min()))
        resource = resources.linear_phased(resource, slope, peak)
    return resource


# the keys each noise section reads besides `kind`; `s` is refused below
NOISE_KEYS = {"dephasing": ("lambda3", "lambda4"), "loss": ("channels",),
              "mixing": ("undesired", "s")}


def resolve_noise(spec: dict, nu: int | None = None):
    kind = _check_keys(spec, NOISE_KEYS, "noise", "kind")
    if kind == "dephasing":
        return noise.DephasingSpec(
            _get(spec, "lambda3", float), _get(spec, "lambda4", float), t=0.0
        )
    if kind == "loss":
        channels = []
        for ch in _get(spec, "channels", list):
            _only_keys(ch, ("rate", "m", "n"), "a loss channel")
            channels.append(noise.LossChannel(_get(ch, "rate", float), _get(ch, "m", int),
                                              _get(ch, "n", int)))
        return noise.LossSpec(tuple(channels), t=0.0)
    if nu is None:
        raise ConfigError("mixing channel needs a fixed nu")
    if "s" in spec:
        raise ConfigError("mixing noise takes no 's' key: the scan runs over 'weights'")
    undesired = resolve_resource(_get(spec, "undesired", dict), nu)
    return noise.MixingSpec(undesired, 0.0)


def _time_grid(cfg: dict) -> np.ndarray:
    times = cfg.get("times")
    if isinstance(times, list):
        return np.asarray(_nonnegative_list(times, "times"))
    if isinstance(times, dict):
        _only_keys(times, ("start", "stop", "num"), "'times'")
        start, stop = _get(times, "start", float), _get(times, "stop", float)
        num = times.get("num")
        if isinstance(num, bool) or not isinstance(num, int) or not 1 <= num < 2 ** 63:
            raise ConfigError(f"times.num must be an integer >= 1, got {num!r}")
        return np.linspace(start, stop, num)
    raise ConfigError("missing or malformed 'times'")


# the keys each `converge` family reads besides `name`
FAMILY_KEYS = {"flat": (), "gaussian": ("beta",), "noon": (), "fock": (),
               "double_well": ("gamma",)}


def resolve_family(spec: dict) -> continuum.ContinuumProfile:
    name = _check_keys(spec, FAMILY_KEYS, "family")
    if name == "flat":
        return continuum.flat_family()
    if name == "gaussian":
        return continuum.gaussian_beta_family(_get(spec, "beta", float))
    if name == "noon":
        return continuum.discrete_only_family(resources.noon_amplitudes)
    if name == "fock":
        return continuum.discrete_only_family(lambda nu: np.arange(nu + 1) == nu)
    return continuum.double_well_family(_get(spec, "gamma", float))


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
    resource_spec = _get(cfg, "resource", dict)
    form = resolve_resource(resource_spec, nu, N)  # what a sweep row reads
    psi_cfg = cfg.get("psi")
    if psi_cfg is not None:
        psi = fock.PureTwoModeState(N, _psi_amplitudes(psi_cfg, N))
    else:
        psi = fock.sample_haar(N, args.seed)
    rho = resolve_resource(resource_spec, nu)  # the outcome table reads the vector

    rows = []
    for outcome in protocol.iter_outcomes(psi, rho):
        if outcome.lam == 0:  # the outcomes of a sector share its state
            neg = fock.negativity(outcome.state) if outcome.state is not None else 0.0
        rows.append({
            "l": outcome.l, "lam": outcome.lam,
            "probability": outcome.probability, "negativity": neg,
        })
    report = protocol.performance_report(form, N)
    payload = {
        "N": N, "nu": nu, "resource": resource_spec["name"],
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
        print(f"resource={resource_spec['name']}  N={N}  nu={nu}")
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
    report = protocol.performance_report(resolve_resource(resource_spec, nu, N), N)
    elapsed = time.perf_counter() - start if timings else 0.0
    return {
        "nu": nu, "N": N, "fidelity": report.fidelity,
        "avg_entanglement": report.avg_entanglement, "f_sep": report.f_sep,
        "triangle_slack": report.triangle_slack, "wall_time_s": elapsed,
    }


def cmd_sweep(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    grid = _nu_grid(cfg)
    resource_spec = _get(cfg, "resource", dict)
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
    resource_spec = _get(cfg, "resource", dict)
    noise_spec = resolve_noise(_get(cfg, "noise", dict), nu)
    # dephasing scans read the band a report reads; loss and mixing, the vector
    dephasing = isinstance(noise_spec, noise.DephasingSpec)
    resource = resolve_resource(resource_spec, nu, N if dephasing else None)

    # a mixing scan runs over the weight s, written to the `t` column; each
    # kind reads one scan key, and CONFIG_KEYS["noise"] is their union
    mixing = isinstance(noise_spec, noise.MixingSpec)
    scan_key = "weights" if mixing else "times"
    _only_keys(cfg, ("schema_version", "kind", "N", "nu", "resource", "noise", scan_key),
               f"a {cfg['noise']['kind']!r} noise config")
    scan = _nonnegative_list(_get(cfg, "weights", list), "weights") if mixing else _time_grid(cfg)
    if isinstance(noise_spec, noise.LossSpec):
        bounds = noise.loss_fidelity_bounds(resource, noise_spec, N, scan)
        noisy, fidelity, floor = bounds.bands, bounds.fidelity, bounds.lower_bound
    else:
        noisy = noise.band_scan(resource, noise_spec, N, scan)
        fidelity = [protocol.fidelity_closed(band, N) for band, _ in noisy]
        floor = [0.0] * len(scan)
    f_sep = protocol.separable_fidelity(N)
    rows = []
    for x, f, lower, (band, weight) in zip(scan, fidelity, floor, noisy):
        rows.append({
            "t": float(x), "N": N, "fidelity": f,
            "avg_entanglement": protocol.avg_entanglement_closed(band, N),
            "f_sep": f_sep, "lower_bound": lower, "survival_weight": weight,
        })

    report = None
    if dephasing and resource_spec["name"] == "four_coherence":
        try:
            report = noise.dephasing_threshold_demo(
                *(resource_spec[k] for k in "abcdxy"),
                N, noise_spec.lambda3, noise_spec.lambda4, nu=nu,
            )
        except (StateValidationError, UnsupportedRegimeError):
            pass  # no crossing: N <= 2, x >= 0, y <= 0, no initial advantage or no dephasing
    extra = dataclasses.asdict(report) if report is not None else None
    if args.format == "json":
        _write_json(args.out, {"rows": rows, "threshold": extra})
    else:
        _write_rows(args.out, NOISE_COLUMNS, rows)
        if args.gnuplot and args.out:
            _write_gnuplot(args.gnuplot, args.out, "t",
                           ["fidelity", "f_sep", "lower_bound"], NOISE_COLUMNS)
        if extra is not None:
            print(f"threshold t_star = {extra['t_star']:.12f} "
                  f"(Brent {extra['t_star_bisect']:.12f})", file=sys.stderr)
    return 0


def cmd_converge(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    grid = _nu_grid(cfg)
    # each branch reads its own keys; CONFIG_KEYS["converge"] is their union
    common = ("schema_version", "kind", "N", "nu_grid")
    if "superposition" in cfg:
        _only_keys(cfg, (*common, "superposition"), "a 'superposition' converge config")
        sup = cfg["superposition"]
        _only_keys(sup, ("a", "b", "c1", "c2"), "'superposition'")
        prof_a = resolve_family(_get(sup, "a", dict))
        prof_b = resolve_family(_get(sup, "b", dict))
        report = continuum.check_proposition3(
            prof_a, prof_b, _get(sup, "c1", float), _get(sup, "c2", float), N, grid
        )
    elif "noise" in cfg:
        profile = resolve_family(_get(cfg, "family", dict))
        noise_spec = resolve_noise(cfg["noise"])
        rule = _get(cfg, "time_rule", dict)
        _only_keys(rule, ("exponent", "scale"), "'time_rule'")
        exponent = _get(rule, "exponent", float)
        scale = _get(rule, "scale", float, required=False, default=1.0)
        report = noise.noisy_convergence(
            profile, noise_spec, lambda nu: scale * float(nu) ** exponent, N, grid
        )
    else:
        _only_keys(cfg, (*common, "family"), "a converge config without 'noise'")
        profile = resolve_family(_get(cfg, "family", dict))
        report = continuum.check_proposition2(profile, N, grid)
    _write_json(args.out, dataclasses.asdict(report))
    return 0


def cmd_ground_state(cfg: dict, args) -> int:
    N = _get(cfg, "N", int)
    nu = _get(cfg, "nu", int)
    gamma = _get(cfg, "gamma", float)
    params = resources.BoseHubbardParams.from_gamma(nu, gamma)
    x = resources.double_well_ground_amplitudes(params)
    # the populations, read once for the moments and the peaks
    populations = fock.Diagonals(nu, tuple(fock._reader(x, 0)[1]()))
    mean, var = resources.imbalance_moments(populations)
    peaks = resources.occupation_peaks(populations)
    report = protocol.performance_report(x, N)
    payload = {
        "nu": nu, "gamma": gamma, "N": N,
        "imbalance_mean": mean,
        "imbalance_variance": var,
        "fidelity": report.fidelity,
        "avg_entanglement": report.avg_entanglement,
        "peaks": peaks,
    }
    profile = continuum.double_well_family(gamma)
    if gamma > -1.0:
        payload["predicted_variance"] = 1.0 / (nu * np.sqrt(gamma + 1.0))
    else:  # the bumps' centres, -z0 and z0
        payload["predicted_peaks"] = profile.mixture(nu)[1].tolist()
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` builds once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else None
        if cfg is not None and cfg.get("kind", args.command) != args.command:
            raise ConfigError(f"config kind {cfg['kind']!r} does not match "
                              f"the subcommand {args.command!r}")
        if cfg is not None:
            _only_keys(cfg, ("schema_version", "kind", *CONFIG_KEYS[args.command]), "the config")
        return args.handler(cfg, args)
    except TelefockError as exc:
        if isinstance(exc, NumericalError):
            print(f"numerical error: {exc}", file=sys.stderr)
            return 3
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ImportError) as exc:  # ImportError: scipy missing at first use
        print(f"environment error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"environment error: out of memory: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # rc 1 is reserved for verification failure
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
