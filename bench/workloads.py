"""Seeded inputs and correctness gates for the three benchmark workloads.

A workload is a *round*: a fixed schedule of tasks whose sizes do not depend
on the seed; the seed draws the physical parameters (widths, angles,
couplings, random states) and the order.  The timed loop replays the round
until its time is up, so a run's cost mix is the same for every seed.

A task is one ``cli.main`` call on a generated config, or one oracle case
through the package's public functions.  ``Task.run`` is the timed part and
returns the program's output; ``Task.check`` is the gate, run after the
timed loop, and returns a list of failure messages.

Gate tolerances are those of the repository's own tests for the same
quantity, except where noted at the constant with the seed commit's
measured worst error.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from telefock import cli, continuum, fock, noise, protocol, resources

# Closed forms and oracle path agreement (tests/test_acceptance.py 1, 2, 6, 11).
EXACT_TOL = 1e-12
# Trace and norm construction tolerance (fock.NORM_TOL).
TRACE_TOL = 1e-12
PROB_SUM_TOL = 1e-10
SLACK_FLOOR = -1e-10
# Uniform-resource entanglement at nu = 2^20: the seed commit's worst
# |E - pi N (3 nu - N + 1) / (24 (nu + 1))| over N in {1, 4, 16, 64} is
# 1.14e-11 (N = 64); below 2^20 every error is under 1e-12.
EXACT_TOL_E_2P20 = 2e-11
# Dense-oracle and integrator tolerances (acceptance 2, 3, 10).
LINDBLAD_BLOCK_TOL = 1e-6
LINDBLAD_TRACE_TOL = 1e-8
MC_SIGMAS = 3.0
# Continuum vs discrete: |f_disc - f_cont| < 10/nu (test_discrete_continuum_envelope),
# relative 1% for the repulsive double well (test_continuum) and 2% for the
# bimodal one (acceptance 8).  No test bounds E; the seed commit's worst
# |E_disc - E_cont| * nu over the generated profiles is 0.62 (bimodal, nu=100),
# so E is held to 1/nu.
CONT_F_ENVELOPE = 10.0
CONT_E_ENVELOPE = 1.0
FLAT_CONT_TOL = 1e-8
GROUND_VAR_REL = 0.10
GROUND_PEAK_REL = 0.05


@dataclass
class CliRun:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]


def run_cli(argv: list) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliRun(rc, out.getvalue(), err.getvalue())


class Gate:
    """Collects failure messages for one task output."""

    def __init__(self):
        self.errors: list = []

    def near(self, label, got, want, tol):
        if not abs(got - want) <= tol:
            self.errors.append(f"{label}: got {got!r}, want {want!r} (tol {tol:g})")

    def within(self, label, got, lo, hi):
        if not lo <= got <= hi:
            self.errors.append(f"{label}: {got!r} outside [{lo!r}, {hi!r}]")

    def true(self, label, cond):
        if not cond:
            self.errors.append(label)


class ConfigWriter:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, cfg: dict) -> str:
        path = os.path.join(self.workdir, f"cfg{self.count:04d}.json")
        self.count += 1
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, **cfg}, fh)
        return path


def cli_task(kind: str, argv: list, check_payload: Callable) -> Task:
    def check(out: CliRun, diag: dict) -> list:
        if out.rc != 0:
            return [f"exit code {out.rc}: {out.stderr.strip()[:200]}"]
        gate = Gate()
        check_payload(out, gate, diag)
        return gate.errors

    return Task(kind, lambda: run_cli(argv), check)


def interleave(tasks: list, rng: np.random.Generator) -> list:
    """Order a round so that any prefix of it has about the mix of the whole.

    Each kind is spread evenly through the round, and within a kind the
    tasks (generated in order of size) are taken in bit-reversed order, so a
    run that stops partway through its last round has still seen small and
    large tasks of every kind in proportion.
    """
    by_kind: dict = {}
    for t in tasks:
        by_kind.setdefault(t.kind, []).append(t)
    keyed = []
    for group in by_kind.values():
        n = len(group)
        ranks = sorted(range(n), key=_bit_reverse)
        offset = rng.uniform(0.0, 1.0)
        for pos, i in enumerate(ranks):
            keyed.append(((pos + offset) / n, group[i]))
    keyed.sort(key=lambda kv: kv[0])
    return [t for _, t in keyed]


def _bit_reverse(i: int) -> float:
    """Van der Corput radical inverse of i in base 2."""
    x, scale = 0.0, 0.5
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale /= 2
    return x


# ---------------------------------------------------------------------------
# Closed forms used by the gates
# ---------------------------------------------------------------------------

def uniform_f(N: int, nu: int) -> float:
    return 1.0 - N / (3.0 * (nu + 1))


def uniform_e(N: int, nu: int) -> float:
    return math.pi * N * (3 * nu - N + 1) / (24.0 * (nu + 1))


def uniform_e_tol(nu: int) -> float:
    return EXACT_TOL_E_2P20 if nu >= 2 ** 20 else EXACT_TOL


def damped_uniform(N: int, nu: int, damp) -> tuple:
    """(f, E) of the uniform resource whose d-th diagonal is scaled by damp(d)
    (a linear phase, dephasing); E uses |damp(d)|."""
    band = sum(2 * (N + 1 - d) * (nu + 1 - d) * damp(d) for d in range(1, N + 1)) / (nu + 1)
    f = 2.0 / (N + 2) + band.real / ((N + 1) * (N + 2))
    abs_band = sum(2 * (N + 1 - d) * (nu + 1 - d) * abs(damp(d))
                   for d in range(1, N + 1)) / (nu + 1)
    return f, math.pi / 8.0 * abs_band / (N + 1)


def check_performance(gate: Gate, label: str, N: int, f: float, e: float, weight=1.0):
    """Bounds every resource obeys: 0 <= f <= w, 0 <= E <= pi N / 8, and the
    triangle slack 8E/pi - (N+2) f + 2w >= -1e-10 for trace w."""
    gate.within(f"{label} fidelity", f, 0.0, weight + TRACE_TOL)
    gate.within(f"{label} entanglement", e, 0.0, math.pi * N / 8.0)
    slack = 8.0 * e / math.pi - (N + 2) * f + 2.0 * weight
    gate.true(f"{label} triangle slack {slack!r} < {SLACK_FLOOR}", slack >= SLACK_FLOOR)


def parse_csv(text: str) -> tuple:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# sweep: pure families through `telefock sweep`, O(nu N) per grid point
# ---------------------------------------------------------------------------

SWEEP_NS = (1, 4, 16, 64)
SWEEP_BASE_EXP = 10


def sweep_families(scale: str) -> dict:
    """family -> top exponents of the doubling grids 2^10 .. 2^top in one
    round, each run at every N.

    The double-well eigensolve and the SU(2) gammaln cost far more per element
    than the band functionals, so their grids stop lower; otherwise they would
    drown the band layer the workload is meant to load.  Grids reaching 2^20
    (16 MB vectors, beyond the per-core caches) are kept to one per family:
    their time swings by a fifth between runs on a shared machine.
    """
    if scale == "tiny":
        return {name: (11, 12) for name in
                ("max_entangled", "noon", "gaussian", "su2_coherent",
                 "double_well_repulsive", "double_well_attractive", "phased")}
    return {
        "max_entangled": (13, 15, 17),
        "noon": (13, 15, 17),
        "gaussian": (13, 15, 17),
        "phased": (13, 15, 17),
        "su2_coherent": (12, 14, 16),
        "double_well_repulsive": (11, 13),
        "double_well_attractive": (11, 13),
    }


# family -> N of its one grid that reaches 2^20
SWEEP_FULL_GRID = {"max_entangled": 1, "noon": 16, "gaussian": 4, "phased": 64}


def stratified(rng: np.random.Generator, n: int, lo: float = 0.0, hi: float = 1.0) -> list:
    """n draws from [lo, hi), one in each of n equal strata.

    Which stratum feeds which of the n slots is fixed, and the seed only
    moves each draw within its stratum.  Costs that depend on the parameter
    (eigensolver iterations, denormal-heavy tails) then stay with the same
    slot, so every seed's round costs about the same.
    """
    order = np.random.default_rng(n).permutation(n)
    u = (order + rng.uniform(0.0, 1.0, n)) / n
    return [float(lo + (hi - lo) * x) for x in u]


# family -> range of the cost-relevant parameter
SWEEP_PARAMS = {
    "gaussian": (0.6, 1.3),
    "su2_coherent": (0.2, math.pi - 0.2),
    "double_well_repulsive": (-0.9, 10.0),
    "double_well_attractive": (-4.0, -1.1),
    "phased": (-0.05, 0.05),
}


def _sweep_spec(family: str, p: float, rng: np.random.Generator) -> tuple:
    """(resource spec, expected (f, E) per (N, nu) or None)."""
    if family == "max_entangled":
        return {"name": "max_entangled"}, lambda N, nu: (uniform_f(N, nu), uniform_e(N, nu))
    if family == "noon":
        return {"name": "noon"}, lambda N, nu: (2.0 / (N + 2), 0.0)
    if family == "gaussian":
        return {"name": "gaussian", "beta": p}, None
    if family == "su2_coherent":
        return {"name": "su2_coherent", "theta": p,
                "phi": float(rng.uniform(0.0, 2.0 * math.pi))}, None
    if family.startswith("double_well"):
        return {"name": "double_well", "gamma": p}, None
    if family == "phased":
        spec = {"name": "max_entangled", "phases": {"kind": "linear", "coefficient": p}}
        return spec, lambda N, nu: damped_uniform(N, nu, lambda d: complex(math.cos(p * d), math.sin(p * d)))
    raise ValueError(family)


def _check_sweep(N: int, grid: list, expect, family: str):
    def check(out: CliRun, gate: Gate, diag: dict):
        header, rows = parse_csv(out.stdout)
        gate.true(f"header {header}", tuple(header) == cli.SWEEP_COLUMNS)
        gate.true(f"{len(rows)} rows for {len(grid)} grid points", len(rows) == len(grid))
        for nu, row in zip(grid, rows):
            label = f"{family} N={N} nu={nu}"
            gate.true(f"{label} row keys", row["nu"] == nu and row["N"] == N)
            gate.near(f"{label} f_sep", row["f_sep"], 2.0 / (N + 2), 1e-15)
            gate.true(f"{label} wall_time_s nonzero without --timings", row["wall_time_s"] == 0.0)
            f, e = row["fidelity"], row["avg_entanglement"]
            check_performance(gate, label, N, f, e)
            gate.true(f"{label} triangle slack column", row["triangle_slack"] >= SLACK_FLOOR)
            if expect is not None:
                f_x, e_x = expect(N, nu)
                gate.near(f"{label} fidelity", f, f_x, EXACT_TOL)
                gate.near(f"{label} entanglement", e, e_x, uniform_e_tol(nu))
            if family == "max_entangled":
                deficit = N / (3.0 * (nu + 1))
                rel = abs((1.0 - f) - deficit) / deficit
                diag["deficit_rel_err_max"] = max(diag.get("deficit_rel_err_max", 0.0), rel)

    return check


def build_sweep(seed: int, scale: str, write: ConfigWriter) -> list:
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for family, tops in sweep_families(scale).items():
        jobs = [(N, top) for N in SWEEP_NS for top in tops]
        if scale == "full" and family in SWEEP_FULL_GRID:
            jobs.append((SWEEP_FULL_GRID[family], 20))
        params = iter(stratified(rng, len(jobs), *SWEEP_PARAMS.get(family, (0, 0))))
        for N, top in jobs:
            spec, expect = _sweep_spec(family, next(params), rng)
            grid = [2 ** e for e in range(SWEEP_BASE_EXP, top + 1)]
            path = write({"kind": "sweep", "N": N, "nu_grid": grid, "resource": spec})
            tasks.append(cli_task(f"sweep.{family}", ["sweep", "--config", path],
                                  _check_sweep(N, grid, expect, family)))
    return interleave(tasks, rng)


# ---------------------------------------------------------------------------
# noise: dense resources through `telefock noise` / `telefock converge`
# ---------------------------------------------------------------------------

NOISE_RESOURCES = ("gaussian", "max_entangled", "su2_coherent")


def _noise_resource(name: str, u: float, rng: np.random.Generator) -> dict:
    """Dense-scan resource; u in [0, 1) sets its width or angle."""
    if name == "gaussian":
        return {"name": "gaussian", "beta": 0.6 + 0.4 * u}
    if name == "su2_coherent":
        return {"name": "su2_coherent", "theta": 0.3 + (math.pi - 0.6) * u,
                "phi": float(rng.uniform(0.0, 2.0 * math.pi))}
    return {"name": "max_entangled"}


def _four_coherence(rng: np.random.Generator) -> dict:
    """Populations and coherences with x^2 <= bc, y^2 <= ad (positivity) and
    x < 0 < y with y >= 3 |x|, so the N = 4 dephasing threshold exists
    (y (N-2) > -x N)."""
    pops = rng.dirichlet([4.0, 4.0, 4.0, 4.0])
    a, b, c, d = (float(p) for p in pops)
    d = 1.0 - a - b - c
    y = float(rng.uniform(0.5, 0.95)) * math.sqrt(a * d)
    x = -min(float(rng.uniform(0.05, 0.3)) * math.sqrt(b * c), y / 3.0)
    return {"name": "four_coherence", "a": a, "b": b, "c": c, "d": d, "x": x, "y": y}


def _loss_channels(rng: np.random.Generator, nu: int) -> list:
    """One- and two-particle channels with rates scaled so t ~ 1 loses a
    sizeable but not total share of the weight at this nu."""
    one = float(rng.uniform(0.2, 1.0)) / nu
    two = float(rng.uniform(0.2, 1.0)) / nu ** 2
    return [{"rate": one, "m": 1, "n": 0}, {"rate": one * 0.5, "m": 0, "n": 1},
            {"rate": two, "m": 1, "n": 1}, {"rate": two, "m": 2, "n": 0}]


def _check_noise_rows(kind: str, N: int, nu: int, scan: list, resource: dict, extra=None):
    uniform = resource["name"] == "max_entangled"

    def check(out: CliRun, gate: Gate, diag: dict):
        payload = json.loads(out.stdout)
        rows = payload["rows"]
        gate.true(f"{len(rows)} rows for {len(scan)} scan points", len(rows) == len(scan))
        for x, row in zip(scan, rows):
            label = f"{kind} {resource['name']} N={N} nu={nu} at {x!r}"
            gate.true(f"{label} scan column", row["t"] == x and row["N"] == N)
            w = row["survival_weight"]
            gate.within(f"{label} survival weight", w, 0.0, 1.0 + TRACE_TOL)
            f, e = row["fidelity"], row["avg_entanglement"]
            check_performance(gate, label, N, f, e, weight=w)
            if kind == "dephasing" and uniform:
                rate = extra["lambda3"] + extra["lambda4"]
                f_x, e_x = damped_uniform(N, nu, lambda d: math.exp(-0.5 * x * rate * d * d))
                gate.near(f"{label} fidelity", f, f_x, EXACT_TOL)
                gate.near(f"{label} entanglement", e, e_x, EXACT_TOL)
            if kind == "loss":
                gate.true(f"{label} loss bound {f!r} < {row['lower_bound']!r}",
                          f >= row["lower_bound"] - 1e-12)
        if kind == "mixing":
            # fock_separable contributes f = 2/(N+2), E = 0, so the scan is affine
            f0, e0 = rows[0]["fidelity"], rows[0]["avg_entanglement"]
            for s, row in zip(scan, rows):
                gate.near(f"mixing s={s!r} fidelity", row["fidelity"],
                          (f0 + s * 2.0 / (N + 2)) / (1.0 + s), EXACT_TOL)
                gate.near(f"mixing s={s!r} entanglement", row["avg_entanglement"],
                          e0 / (1.0 + s), EXACT_TOL)
        if kind == "dephasing" and resource["name"] == "four_coherence" and N > 2:
            thr = payload["threshold"]
            r = resource
            t_star = (math.log(r["y"] * (N - 2)) - math.log(-r["x"] * N)) / (
                4.0 * (extra["lambda3"] + extra["lambda4"]))
            gate.near("threshold t_star", thr["t_star"], t_star, EXACT_TOL)
            gate.true("threshold bisection agrees to 1e-6", thr["verified"])

    return check


def _check_converge(grid: list):
    def check(out: CliRun, gate: Gate, diag: dict):
        report = json.loads(out.stdout)
        gate.true("converge grid echoed", report["nu_grid"] == grid)
        deficits = report["one_minus_f"]
        gate.true(f"{len(deficits)} deficits for {len(grid)} points", len(deficits) == len(grid))
        for nu, d in zip(grid, deficits):
            gate.within(f"converge 1-f at nu={nu}", d, 0.0, 1.0)
        for w in report["diagnostics"]["survival_weight"]:
            gate.within("converge survival weight", w, 0.0, 1.0 + TRACE_TOL)

    return check


# One noise round.  Every dephasing or mixing point builds a validated dense
# state, whose O(nu^3) spectral check dominates, so those scans are short and
# mostly small; loss scans skip validation and run at every size.
NOISE_ROUND = {
    "full": {
        "dephasing": {64: 3, 96: 3, 128: 3, 192: 2, 256: 2, 384: 2},
        "loss": (64, 96, 128, 192, 256, 384, 512, 1024),
        "mixing": (64, 128, 256),
        "converge": ([64, 96, 128, 192], [64, 128, 256, 512]),
        "converge_big": [128, 256, 512, 1024],
        "big": (512, 1024),
    },
    "tiny": {
        "dephasing": {16: 2, 24: 2},
        "loss": (16, 32),
        "mixing": (16,),
        "converge": ([8, 12, 16, 24],),
        "converge_big": [8, 16, 24, 32],
        "big": (24, 32),
    },
}


def build_noise(seed: int, scale: str, write: ConfigWriter) -> list:
    rng = np.random.default_rng([seed, 2])
    plan = NOISE_ROUND[scale]
    tasks = []

    def add(kind, N, nu, resource, noise_spec, scan, extra=None):
        cfg = {"kind": "noise", "N": N, "nu": nu, "resource": resource, "noise": noise_spec}
        cfg["weights" if kind == "mixing" else "times"] = scan
        path = write(cfg)
        tasks.append(cli_task(f"noise.{kind}", ["noise", "--config", path, "--format", "json"],
                              _check_noise_rows(kind, N, nu, scan, resource, extra)))

    def times(n):
        return [0.0] + sorted(float(t) for t in rng.uniform(0.05, 2.0, n - 1))

    def dephasing(lo=0.0, hi=0.02):
        return {"kind": "dephasing", "lambda3": float(rng.uniform(lo, hi)),
                "lambda4": float(rng.uniform(max(lo, 0.005), hi))}

    def loss(nu):
        return {"kind": "loss", "channels": _loss_channels(rng, nu)}

    def mixing(nu, k=None):
        k = int(rng.integers(0, nu + 1)) if k is None else k
        return {"kind": "mixing", "undesired": {"name": "fock_separable", "k": k}}

    mid, big = plan["big"]
    n_slots = len(plan["dephasing"]) + len(plan["loss"]) + len(plan["mixing"]) + 1
    for j, name in enumerate(NOISE_RESOURCES):
        units = iter(stratified(rng, n_slots))
        for i, (nu, points) in enumerate(plan["dephasing"].items()):
            spec = dephasing()
            add("dephasing", (2, 4)[(i + j) % 2], nu, _noise_resource(name, next(units), rng),
                spec, times(points), spec)
        for i, nu in enumerate(plan["loss"]):
            add("loss", (2, 4)[(i + j) % 2], nu, _noise_resource(name, next(units), rng),
                loss(nu), times(4))
        for i, nu in enumerate(plan["mixing"]):
            add("mixing", (2, 4)[(i + j) % 2], nu, _noise_resource(name, next(units), rng),
                mixing(nu), [0.0] + sorted(float(s) for s in rng.uniform(0.1, 10.0, 2)))
        # one scan per resource at the two largest sizes
        spec = dephasing()
        if name == "gaussian":
            add("dephasing", 2, mid, _noise_resource(name, next(units), rng), spec, times(2), spec)
        elif name == "max_entangled":
            add("dephasing", 4, big, _noise_resource(name, next(units), rng), spec,
                [float(rng.uniform(0.05, 2.0))], spec)
        else:
            add("mixing", 4, mid, _noise_resource(name, next(units), rng), mixing(mid),
                [0.0, float(rng.uniform(0.1, 10.0))])

    small = min(plan["dephasing"])
    spec = dephasing(0.2, 0.6)
    add("dephasing", 4, small, _four_coherence(rng), spec, times(4), spec)
    add("loss", 2, small, _four_coherence(rng), loss(4), times(4))
    add("mixing", 2, small, _four_coherence(rng), mixing(small, k=3),
        [0.0, float(rng.uniform(0.1, 10.0))])

    grids = [*plan["converge"], plan["converge_big"]]
    for g, grid in enumerate(grids):
        # the grid reaching the largest nu runs loss only: dephasing would
        # validate a dense state per point
        for noisy in (("dephasing", "loss") if big not in grid else ("loss",)):
            family = ({"name": "gaussian", "beta": float(rng.uniform(0.6, 0.9))}
                      if (g + (noisy == "loss")) % 2 == 0 else {"name": "flat"})
            if noisy == "dephasing":
                spec = dephasing(0.05, 0.2)
            else:
                spec = {"kind": "loss", "channels": [
                    {"rate": float(rng.uniform(0.05, 0.2)), "m": 1, "n": 0},
                    {"rate": float(rng.uniform(0.05, 0.2)), "m": 2, "n": 0}]}
            rule = {"exponent": float(rng.uniform(-3.0, -2.0)), "scale": float(rng.uniform(0.5, 2.0))}
            path = write({"kind": "converge", "N": (2, 4)[g % 2], "nu_grid": grid,
                          "family": family, "noise": spec, "time_rule": rule})
            tasks.append(cli_task("noise.converge", ["converge", "--config", path],
                                  _check_converge(grid)))
    return interleave(tasks, rng)


# ---------------------------------------------------------------------------
# verify: the oracle traffic of the acceptance and selftest suites
# ---------------------------------------------------------------------------

def _ginibre(nu: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((nu + 1, nu + 1)) + 1j * rng.standard_normal((nu + 1, nu + 1))
    m = g @ g.conj().T
    return m / np.trace(m)


def _haar(N: int, rng: np.random.Generator) -> np.ndarray:
    c = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    return c / np.linalg.norm(c)


def _outcome_labels(N: int, nu: int) -> list:
    """Every (l, lam) of the measurement, from the sector multiplicities."""
    labels = []
    for l in range(-N, nu + 1):
        c_l = N + l + 1 if l <= 0 else (N + 1 if l <= nu - N else nu - l + 1)
        labels += [(l, lam) for lam in range(c_l)]
    return labels


def _outcome_task(N, nu, c, m, l, lam) -> Task:
    def run():
        psi = fock.PureTwoModeState(N, c)
        rho = fock.ResourceState(nu, m)
        fast = protocol.teleport_outcome(psi, rho, l, lam)
        p, joint = protocol.teleport_outcome_dense(psi, rho, l, lam)
        sector = protocol.two_mode_sector(joint, N, nu) if joint is not None else None
        return fast, p, sector

    def check(out, diag):
        fast, p, sector = out
        gate = Gate()
        gate.near(f"outcome ({l},{lam}) N={N} nu={nu} probability", fast.probability, p, EXACT_TOL)
        if fast.state is not None and sector is not None:
            block, residual = sector
            gate.within("dense residual outside the sector", residual, 0.0, EXACT_TOL)
            gate.within("conditional state vs dense contraction",
                        float(np.max(np.abs(block - fast.state.matrix))), 0.0, EXACT_TOL)
        gate.true("state present iff dense probability positive",
                  (fast.state is None) == (sector is None))
        return gate.errors

    return Task("verify.outcome", run, check)


def _average_task(N, nu, c, m) -> Task:
    def run():
        psi = fock.PureTwoModeState(N, c)
        rho = fock.ResourceState(nu, m)
        total = sum(o.probability for o in protocol.iter_outcomes(psi, rho))
        closed = protocol.average_teleported(psi, rho, method="closed")
        summed = protocol.average_teleported(psi, rho, method="outcomes")
        return total, closed.matrix, summed.matrix

    def check(out, diag):
        total, closed, summed = out
        gate = Gate()
        gate.near(f"probability sum N={N} nu={nu}", total, 1.0, PROB_SUM_TOL)
        gate.within("average_teleported closed vs outcomes",
                    float(np.max(np.abs(closed - summed))), 0.0, EXACT_TOL)
        return gate.errors

    return Task("verify.average", run, check)


def _teleport_cli_task(write, N, nu, resource, psi, seed) -> Task:
    cfg = {"kind": "teleport", "N": N, "nu": nu, "resource": resource}
    if psi is not None:
        cfg["psi"] = [[float(z.real), float(z.imag)] for z in psi]
    path = write(cfg)

    def check(out: CliRun, gate: Gate, diag: dict):
        payload = json.loads(out.stdout)
        rows = payload["outcomes"]
        labels = _outcome_labels(N, nu)
        gate.true(f"teleport {len(rows)} outcome rows, want {len(labels)}",
                  [(r["l"], r["lam"]) for r in rows] == labels)
        gate.near("teleport probability sum", sum(r["probability"] for r in rows), 1.0, PROB_SUM_TOL)
        for r in rows:
            gate.within("outcome probability", r["probability"], 0.0, 1.0 + PROB_SUM_TOL)
            gate.within("outcome negativity", r["negativity"], 0.0, N / 2.0)
        f, e = payload["fidelity"], payload["avg_entanglement"]
        check_performance(gate, f"teleport {resource['name']}", N, f, e)
        if resource["name"] == "max_entangled":
            gate.near("teleport uniform fidelity", f, uniform_f(N, nu), EXACT_TOL)
            gate.near("teleport uniform entanglement", e, uniform_e(N, nu), EXACT_TOL)
        if resource["name"] == "noon":
            gate.near("teleport N00N fidelity", f, 2.0 / (N + 2), EXACT_TOL)
            gate.near("teleport N00N entanglement", e, 0.0, EXACT_TOL)

    return cli_task("verify.teleport_cli",
                    ["teleport", "--config", path, "--format", "json", "--seed", str(seed)], check)


def _success_task(N, nu, rng_seed) -> Task:
    def run():
        return protocol.success_probability_perfect(resources.max_entangled(nu), N, rng_seed=rng_seed)

    def check(p, diag):
        gate = Gate()
        gate.near(f"success probability N={N} nu={nu}", p, (nu - N + 1) / (nu + 1), EXACT_TOL)
        return gate.errors

    return Task("verify.success_probability", run, check)


def _mc_reference(kind: str, m, N: int, samples: int, rng_seed: int):
    """Per-sample values of an estimator, recomputed through diagonal sums.

    Summed over the sectors, the blocks seen by the estimators cover each
    offset diagonal of rho exactly once, so the per-input overlap is
    sum_kj p_k p_j Re D_(j-k) and the per-input negativity
    sum_(k != j) r_k r_j S_(j-k) / 2, with D_d the d-th diagonal sum and S_d
    the sum of its moduli.  Same Haar draws, independent contraction.
    """
    amps = fock.haar_amplitude_batch(N, samples, np.random.default_rng(rng_seed))
    if kind == "negativity":
        return (np.sum(np.abs(amps), axis=1) ** 2 - 1.0) / 2.0
    offsets = np.subtract.outer(np.arange(N + 1), np.arange(N + 1))  # k - j
    if kind == "fidelity":
        kernel = np.vectorize(lambda d: np.trace(m, offset=-d).real)(offsets)
        p = np.abs(amps) ** 2
    else:
        kernel = np.vectorize(lambda d: np.sum(np.abs(np.diagonal(m, offset=-d))))(offsets) / 2.0
        np.fill_diagonal(kernel, 0.0)
        p = np.abs(amps)
    return np.einsum("sk,kj,sj->s", p, kernel, p)


def _mc_task(kind, N, nu, m, samples, rng_seed, sigma_check) -> Task:
    def run():
        if kind == "negativity":
            return protocol.pure_negativity_monte_carlo(N, samples=samples, rng_seed=rng_seed), None
        rho = fock.ResourceState(nu, m)
        if kind == "fidelity":
            est = protocol.fidelity_monte_carlo(rho, N, samples=samples, rng_seed=rng_seed)
            return est, protocol.fidelity_closed(rho, N)
        est = protocol.entanglement_monte_carlo(rho, N, samples=samples, rng_seed=rng_seed)
        return est, protocol.avg_entanglement_closed(rho, N)

    def check(out, diag):
        (mean, se), closed = out
        if kind == "negativity":
            closed = math.pi * N / 8.0
        values = _mc_reference(kind, m, N, samples, rng_seed)
        gate = Gate()
        gate.near(f"MC {kind} mean vs recomputed samples", mean, float(np.mean(values)), EXACT_TOL)
        gate.near(f"MC {kind} standard error vs recomputed samples", se,
                  float(np.std(values, ddof=1) / math.sqrt(samples)), EXACT_TOL)
        if sigma_check:
            gate.true(f"MC {kind} {mean!r} not within 3 SE ({se!r}) of {closed!r}",
                      abs(mean - closed) <= MC_SIGMAS * se)
        return gate.errors

    return Task("verify.monte_carlo", run, check)


def _lindblad_task(nu, m, rates, t) -> Task:
    def run():
        rho = fock.ResourceState(nu, m)
        spec = noise.LossSpec(noise.two_particle_loss_spec(*rates, t=0.0).channels, t=t)
        return (noise.particle_loss_lindblad(rho, spec, t), noise.particle_loss_analytic(rho, spec))

    def check(out, diag):
        numeric, analytic = out
        gate = Gate()
        gap = float(np.max(np.abs(numeric.surviving_block - analytic.surviving_block)))
        gate.within(f"Lindblad vs analytic block at nu={nu}", gap, 0.0, LINDBLAD_BLOCK_TOL)
        gate.near("Lindblad total trace", numeric.total_trace(), 1.0, LINDBLAD_TRACE_TOL)
        return gate.errors

    return Task("verify.lindblad", run, check)


def _profile(name: str, param: float):
    if name == "flat":
        return continuum.flat_family()
    if name == "gaussian":
        return continuum.gaussian_beta_family(param)
    if name == "double_well":
        return continuum.double_well_profile(lambda _nu: param)
    return continuum.double_well_bimodal_profile(param)


def _continuum_task(name, param, functional, N, nu) -> Task:
    def run():
        prof = _profile(name, param)
        x = prof.amplitudes(nu)
        if functional == "fidelity":
            return (continuum.fidelity_continuum(prof, N, nu),
                    protocol.fidelity_closed_pure(x, N))
        return (continuum.entanglement_continuum(prof, N, nu),
                protocol.avg_entanglement_closed_pure(x, N))

    def check(out, diag):
        cont, disc = out
        gate = Gate()
        label = f"continuum {name}({param!r}) {functional} N={N} nu={nu}"
        envelope = CONT_F_ENVELOPE if functional == "fidelity" else CONT_E_ENVELOPE
        gate.within(f"{label} |discrete - continuum|", abs(disc - cont), 0.0, envelope / nu)
        if functional == "fidelity" and name in ("double_well", "bimodal"):
            rel = 0.01 if name == "double_well" else 0.02
            gate.within(f"{label} relative gap", abs(disc - cont) / disc, 0.0, rel)
        if name == "flat":
            exact = (1.0 - (N + 1) ** 2 / (3.0 * nu * (N + 2)) if functional == "fidelity"
                     else math.pi * N / 8.0 - math.pi * (N + 1) ** 2 / (24.0 * nu))
            gate.near(f"{label} exact band integral", cont, exact, FLAT_CONT_TOL)
        return gate.errors

    return Task("verify.continuum", run, check)


def _ground_state_task(write, N, nu, gamma) -> Task:
    path = write({"kind": "ground-state", "N": N, "nu": nu, "gamma": gamma})

    def check(out: CliRun, gate: Gate, diag: dict):
        p = json.loads(out.stdout)
        check_performance(gate, "ground-state", N, p["fidelity"], p["avg_entanglement"])
        rel = abs(p["fidelity"] - p["fidelity_continuum"]) / p["fidelity"]
        if gamma > -1.0:
            gate.within("ground-state variance vs prediction",
                        abs(p["imbalance_variance"] - p["predicted_variance"]) / p["predicted_variance"],
                        0.0, GROUND_VAR_REL)
            gate.within("ground-state fidelity vs continuum", rel, 0.0, 0.01)
        else:
            # the attractive ground doublet is degenerate to round-off at this
            # size, so the solver may return one localized well: every
            # reported peak must sit at a predicted one, and there must be one
            z0 = p["predicted_peaks"][1]
            gate.true("ground-state peaks found", len(p["peaks"]) >= 1)
            for z in p["peaks"]:
                gate.within("ground-state peak vs prediction", abs(abs(z) - z0) / z0,
                            0.0, GROUND_PEAK_REL)
            gate.within("ground-state fidelity vs continuum", rel, 0.0, 0.02)

    return cli_task("verify.ground_state_cli", ["ground-state", "--config", path], check)


def _selftest_task() -> Task:
    def check(out: CliRun, gate: Gate, diag: dict):
        lines = out.stdout.strip().split("\n")
        passed = sum(line.startswith("[PASS]") for line in lines)
        gate.true(f"selftest summary {lines[-1]!r}", lines[-1] == f"{passed}/{passed} checks passed")
        gate.true("selftest ran no checks", passed > 0)

    return cli_task("verify.selftest_cli", ["selftest"], check)


# Sizes of one verify round.  Every size is fixed, so the round costs the
# same for every seed; the seed draws the states, couplings and labels.  The
# slow oracles (quadrature, integrator, ground state) form a ladder of sizes
# whose costs fill the range around the 90th percentile without gaps.
VERIFY_ROUND = {
    "full": {
        "teleport": {"max_entangled": (3, 200), "gaussian": (2, 100),
                     "su2_coherent": (1, 50), "noon": (2, 25)},
        "lindblad_nus": (4, 5, 6, 7, 8),
        # profile -> nu for (fidelity, entanglement) at N = 2, twice
        "continuum": {"flat": ((100, 10000), (1000, 300)),
                      "gaussian": ((300, 3000), (10000, 1000)),
                      "double_well": ((1000, 300), (100, 3000)),
                      "bimodal": ((100, 300), (300, 100))},
        "ground_state_nu": (200, 400),
        "mc_per_kind": 9,
    },
    "tiny": {
        "teleport": {"max_entangled": (2, 12), "noon": (1, 8)},
        "lindblad_nus": (4,),
        "continuum": {"flat": ((100, 150),), "double_well": ((120, 100),)},
        "ground_state_nu": (120,),
        "mc_per_kind": 1,
    },
}
AVERAGE_COMBOS = ((1, 3), (2, 4), (2, 6), (3, 5), (3, 6))
SUCCESS_COMBOS = ((1, 40), (2, 30), (3, 20))
# (N, nu) per Monte-Carlo estimator; the 1e5-sample estimators cost about the
# same whatever the input, and their 30 tasks per round hold the median task
MC_COMBOS = [(N, nu) for N in (1, 2, 3) for nu in (N, 4, 6)]
MC_SAMPLES = 100_000


def build_verify(seed: int, scale: str, write: ConfigWriter) -> list:
    rng = np.random.default_rng([seed, 3])
    plan = VERIFY_ROUND[scale]
    tasks = []
    for N in (1, 2, 3):
        for nu in range(N, 7):
            c, m = _haar(N, rng), _ginibre(nu, rng)
            labels = _outcome_labels(N, nu)
            for i in rng.choice(len(labels), size=2, replace=False):
                tasks.append(_outcome_task(N, nu, c, m, *labels[int(i)]))
    for N, nu in AVERAGE_COMBOS:
        tasks.append(_average_task(N, nu, _haar(N, rng), _ginibre(nu, rng)))
    for i, (name, (N, nu)) in enumerate(plan["teleport"].items()):
        resource = (_noise_resource(name, float(rng.uniform()), rng) if name != "noon"
                    else {"name": "noon"})
        tasks.append(_teleport_cli_task(write, N, nu, resource,
                                        _haar(N, rng) if i % 2 else None, int(rng.integers(1000))))
    for N, nu in SUCCESS_COMBOS:
        tasks.append(_success_task(N, nu, int(rng.integers(1000))))
    for kind in ("fidelity", "entanglement", "negativity"):
        for N, nu in MC_COMBOS[: plan["mc_per_kind"]]:
            tasks.append(_mc_task(kind, N, nu, _ginibre(nu, rng), MC_SAMPLES,
                                  int(rng.integers(1 << 30)), sigma_check=False))
    # the acceptance suite's own Monte-Carlo case, where 3 standard errors is
    # the gate; on freshly drawn cases that gate would fail by chance 0.27% of
    # the time, so there the estimator is checked against its recomputed samples
    acc_rho = _ginibre(4, np.random.default_rng(3))
    for kind, rng_seed in (("fidelity", 30), ("entanglement", 31), ("negativity", 32)):
        tasks.append(_mc_task(kind, 2, 4, acc_rho, MC_SAMPLES, rng_seed, sigma_check=True))
    for nu in plan["lindblad_nus"]:
        rates = tuple(float(r) for r in rng.uniform(0.1, 0.2, 5))
        tasks.append(_lindblad_task(nu, _ginibre(nu, rng), rates, float(rng.uniform(0.3, 0.4))))
    # parameters near the test suites' own (beta 0.8, gamma 10, gamma -2):
    # the adaptive quadrature's cost swings several-fold across wider ranges
    params = {"flat": (0.0, 0.0), "gaussian": (0.75, 0.85), "double_well": (8.0, 12.0),
              "bimodal": (-2.05, -1.95)}
    for name, ladder in plan["continuum"].items():
        for nus in ladder:
            for functional, nu in zip(("fidelity", "entanglement"), nus):
                tasks.append(_continuum_task(name, float(rng.uniform(*params[name])), functional,
                                             2, int(nu * rng.uniform(0.95, 1.05))))
    for gs_nu in plan["ground_state_nu"]:
        tasks.append(_ground_state_task(write, 2, gs_nu, float(rng.uniform(5.0, 10.0))))
        tasks.append(_ground_state_task(write, 2, gs_nu, float(rng.uniform(-2.1, -1.9))))
    tasks.append(_selftest_task())
    return interleave(tasks, rng)


GENERATORS = {"sweep": build_sweep, "noise": build_noise, "verify": build_verify}


def build(workload: str, seed: int, scale: str, workdir: str) -> list:
    return GENERATORS[workload](seed, scale, ConfigWriter(workdir))
