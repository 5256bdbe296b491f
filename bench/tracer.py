"""Per-layer tracing of telefock from outside the package.

`Tracer.install` wraps the public functions of every layer module on their
module objects, and rebinds every name the package bound by import to the
same function (``noise.fidelity_closed``, ``continuum.fidelity_closed_pure``,
...).  Each wrapped call records a span: name, start, end, parent span and
task id, kept in flat in-memory arrays and written out when the run ends.
A few foreign entry points get counters only: ``scipy.integrate.quad``
(evaluations), ``noise.solve_ivp`` (right-hand-side evaluations); and
``numpy.linalg.eigvalsh`` gets a span of its own (count and dimension).

Self time of a span is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "resources", "fock", "protocol", "noise", "continuum", "selftest")
TASK_SPAN = "bench.task"
VALIDATE = "fock.TwoModeDensityMatrix.__post_init__"
EIGVALSH = "fock.eigvalsh"

# span groups the per-layer metrics single out
GROUPS = {
    "fock.validate": ("fock.PureTwoModeState.__post_init__", VALIDATE),
    "fock.negativity": ("fock.negativity", "fock.negativity_partial_transpose"),
    "protocol.band_pure": ("protocol.fidelity_closed_pure", "protocol.avg_entanglement_closed_pure"),
    "protocol.band_dense": ("protocol.fidelity_closed", "protocol.avg_entanglement_closed"),
    "protocol.outcomes": ("protocol.teleport_outcome",),
    "protocol.oracle": ("protocol.teleport_outcome_dense", "protocol.two_mode_sector"),
    "protocol.monte_carlo": ("protocol.fidelity_monte_carlo", "protocol.entanglement_monte_carlo",
                             "protocol.pure_negativity_monte_carlo"),
    "noise.transform": ("noise.mix", "noise.dephase", "noise.particle_loss_analytic"),
    "noise.lindblad": ("noise.particle_loss_lindblad",),
    "noise.convergence": ("noise.noisy_convergence",),
    "resources.double_well": ("resources.double_well_ground_amplitudes",),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task = array("i")
        self._stack: list = []
        self.task_id = -1
        self.active = False
        self.counters: dict = defaultdict(float)
        self._hooks: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def task_span(self, task_id: int, fn):
        """Run one task under a root span carrying its id."""
        self.task_id = task_id
        idx = self.open(self._name_id(TASK_SPAN))
        try:
            return fn()
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, hook=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def count(self, fn, hook):
        """Counter-only wrapper: no span, so its time stays with the caller."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                hook(self.counters, args, kwargs, result)
            return result

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import scipy.integrate
        import telefock

        modules = {layer: sys.modules[f"telefock.{layer}"] for layer in LAYERS}
        self._hooks = _hooks()
        replaced: dict = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj, self._hooks.get(f"{layer}.{attr}")))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in (telefock, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        np.linalg.eigvalsh = self.wrap(EIGVALSH, np.linalg.eigvalsh, _eigvalsh_hook)
        scipy.integrate.quad = self.count(scipy.integrate.quad, _quad_hook)
        modules["noise"].solve_ivp = self.count(modules["noise"].solve_ivp, _ivp_hook)
        selftest = modules["selftest"]
        selftest.CHECKS = [(name, self._wrap_check(fn)) for name, fn in selftest.CHECKS]

    def _wrap_check(self, fn):
        traced = self.wrap("selftest.check", fn)

        def check(rng):
            passed = False
            try:
                passed = bool(traced(rng))
                return passed
            finally:
                if self.active:
                    self.counters["selftest.checks"] += 1
                    self.counters["selftest.failed"] += not passed

        return check

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj, self._hooks.get(name)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """Per-span arrays with self time computed."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": name, "parent": parent, "dur": dur, "self": dur - child}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("# span name_id start_ns end_ns parent_span task_id\n")
            for i, n in enumerate(self.names):
                fh.write(f"# name {i} {n}\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.task):
                fh.write("%d %d %d %d %d\n" % row)


def _size(result) -> int:
    if isinstance(result, np.ndarray):
        return result.size
    matrix = getattr(result, "matrix", None)
    return matrix.size if isinstance(matrix, np.ndarray) else 0


def _elements_hook(counters, args, kwargs, result):
    counters["resources.elements"] += _size(result)


def _validate_hook(counters, args, kwargs, result):
    dim = args[0].total_particles + 1
    counters["fock.dense_bytes_max"] = max(counters["fock.dense_bytes_max"], 16.0 * dim * dim)


def _nonzero_exit_hook(counters, args, kwargs, result):
    counters["cli.nonzero_exits"] += result != 0


def _samples_hook(fn):
    sig = inspect.signature(fn)

    def hook(counters, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        counters["protocol.monte_carlo.samples"] += bound.arguments["samples"]

    return hook


def _eigvalsh_hook(counters, args, kwargs, result):
    counters["fock.eigvalsh.dim_max"] = max(counters["fock.eigvalsh.dim_max"], np.shape(args[0])[-1])


def _quad_hook(counters, args, kwargs, result):
    counters["continuum.quad.calls"] += 1
    if kwargs.get("full_output") and len(result) > 2:
        counters["continuum.quad.neval"] += result[2]["neval"]


def _ivp_hook(counters, args, kwargs, result):
    counters["noise.lindblad.nfev"] += result.nfev


def _hooks() -> dict:
    from telefock import protocol, resources

    hooks = {f"resources.{name}": _elements_hook for name in dir(resources)
             if not name.startswith("_")}
    hooks[VALIDATE] = _validate_hook
    hooks["cli.main"] = _nonzero_exit_hook
    for name in GROUPS["protocol.monte_carlo"]:
        hooks[name] = _samples_hook(getattr(protocol, name.split(".", 1)[1]))
    return hooks


# ---------------------------------------------------------------------------
# Per-layer metrics: name, unit, the end-to-end metric it should move, and on
# which workload.
# ---------------------------------------------------------------------------

PER_LAYER = [
    ("import.telefock_cli_s", "s", "setup_s", "all"),
    ("import.modules_loaded", "count", "setup_s", "all"),
    ("import.scipy_loaded", "count", "setup_s", "all"),
    ("cli.invocations", "count", "task_p50_s, pass_frac", "sweep, noise"),
    ("cli.self_s", "s", "task_p50_s, pass_frac", "sweep, noise"),
    ("cli.bytes_out", "bytes", "task_p50_s, pass_frac", "sweep, noise"),
    ("cli.nonzero_exits", "count", "task_p50_s, pass_frac", "sweep, noise"),
    ("resources.calls", "count", "tasks_per_s, task_p90_s", "sweep"),
    ("resources.self_s", "s", "tasks_per_s, task_p90_s", "sweep"),
    ("resources.elements", "count", "tasks_per_s, task_p90_s", "sweep"),
    ("resources.double_well.self_s", "s", "tasks_per_s, task_p90_s", "sweep"),
    ("fock.states_built", "count", "tasks_per_s, task_p90_s", "noise (small on verify)"),
    ("fock.validate.self_s", "s", "tasks_per_s, task_p90_s", "noise (small on verify)"),
    ("fock.eigvalsh.calls", "count", "tasks_per_s, task_p90_s", "noise (small on verify)"),
    ("fock.eigvalsh.dim_max", "count", "tasks_per_s, task_p90_s", "noise (small on verify)"),
    ("fock.eigvalsh.self_s", "s", "tasks_per_s, task_p90_s", "noise (small on verify)"),
    ("fock.spectral_check_ratio", "1", "tasks_per_s, task_p90_s", "noise (small on verify)"),
    ("fock.dense_bytes_max", "bytes_computed", "peak_rss_mb", "noise"),
    ("fock.negativity.self_s", "s", "tasks_per_s", "verify"),
    ("protocol.band_pure.calls", "count", "tasks_per_s", "sweep"),
    ("protocol.band_pure.self_s", "s", "tasks_per_s", "sweep"),
    ("protocol.deficit_rel_err_max", "1", "none (correctness diagnostic)", "sweep"),
    ("protocol.band_dense.calls", "count", "tasks_per_s", "noise"),
    ("protocol.band_dense.self_s", "s", "tasks_per_s", "noise"),
    ("protocol.outcomes.count", "count", "tasks_per_s, task_p90_s", "verify"),
    ("protocol.outcomes.self_s", "s", "tasks_per_s, task_p90_s", "verify"),
    ("protocol.oracle.calls", "count", "tasks_per_s, task_p90_s", "verify"),
    ("protocol.oracle.self_s", "s", "tasks_per_s, task_p90_s", "verify"),
    ("protocol.monte_carlo.samples", "count", "tasks_per_s, task_p90_s", "verify"),
    ("protocol.monte_carlo.self_s", "s", "tasks_per_s, task_p90_s", "verify"),
    ("noise.transform.calls", "count", "tasks_per_s, task_p90_s", "noise"),
    ("noise.transform.self_s", "s", "tasks_per_s, task_p90_s", "noise"),
    ("noise.convergence.self_s", "s", "tasks_per_s, task_p90_s", "noise"),
    ("noise.lindblad.calls", "count", "tasks_per_s", "verify"),
    ("noise.lindblad.nfev", "count", "tasks_per_s", "verify"),
    ("noise.lindblad.self_s", "s", "tasks_per_s", "verify"),
    ("continuum.quad.calls", "count", "tasks_per_s, task_p90_s", "verify"),
    ("continuum.quad.neval", "count", "tasks_per_s, task_p90_s", "verify"),
    ("continuum.self_s", "s", "tasks_per_s, task_p90_s", "verify"),
    ("selftest.checks", "count", "pass_frac, tasks_per_s", "verify"),
    ("selftest.failed", "count", "pass_frac, tasks_per_s", "verify"),
    ("selftest.self_s", "s", "pass_frac, tasks_per_s", "verify"),
    ("trace.overhead_frac", "1", "none (traced vs untraced task latency)", "all"),
    ("trace.spans", "count", "none (trace volume)", "all"),
]


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric the traced worker can compute itself (the
    import and overhead figures are added by the caller)."""
    s = tracer.spans()
    names = tracer.names
    n_names = len(names)
    self_by = np.bincount(s["name"], weights=s["self"], minlength=n_names) / 1e9
    calls_by = np.bincount(s["name"], minlength=n_names)
    ids = {n: i for i, n in enumerate(names)}

    def self_s(*span_names):
        return float(sum(self_by[ids[n]] for n in span_names if n in ids))

    def calls(*span_names):
        return int(sum(calls_by[ids[n]] for n in span_names if n in ids))

    def layer(prefix):
        return [n for n in names if n.startswith(prefix + ".")]

    c = tracer.counters
    validations = calls(VALIDATE)
    checked = 0
    if EIGVALSH in ids and VALIDATE in ids:
        eig = s["name"] == ids[EIGVALSH]
        parents = s["parent"][eig]
        checked = int(np.sum(s["name"][parents[parents >= 0]] == ids[VALIDATE]))
    out = {
        "cli.invocations": calls("cli.main"),
        "cli.self_s": self_s(*layer("cli")),
        "cli.bytes_out": c["cli.bytes_out"],
        "cli.nonzero_exits": c["cli.nonzero_exits"],
        "resources.calls": calls(*layer("resources")),
        "resources.self_s": self_s(*layer("resources")),
        "resources.elements": c["resources.elements"],
        "resources.double_well.self_s": self_s(*GROUPS["resources.double_well"]),
        "fock.states_built": calls(*GROUPS["fock.validate"]),
        "fock.validate.self_s": self_s(*GROUPS["fock.validate"]),
        "fock.eigvalsh.calls": calls(EIGVALSH),
        "fock.eigvalsh.dim_max": c["fock.eigvalsh.dim_max"],
        "fock.eigvalsh.self_s": self_s(EIGVALSH),
        "fock.spectral_check_ratio": checked / validations if validations else 0.0,
        "fock.dense_bytes_max": c["fock.dense_bytes_max"],
        "fock.negativity.self_s": self_s(*GROUPS["fock.negativity"]),
        "continuum.quad.calls": c["continuum.quad.calls"],
        "continuum.quad.neval": c["continuum.quad.neval"],
        "continuum.self_s": self_s(*layer("continuum")),
        "selftest.checks": c["selftest.checks"],
        "selftest.failed": c["selftest.failed"],
        "selftest.self_s": self_s(*layer("selftest")),
        "protocol.monte_carlo.samples": c["protocol.monte_carlo.samples"],
        "noise.lindblad.nfev": c["noise.lindblad.nfev"],
        "trace.spans": len(s["dur"]),
    }
    for group in ("protocol.band_pure", "protocol.band_dense", "protocol.oracle",
                  "noise.transform", "noise.lindblad"):
        out[f"{group}.calls"] = calls(*GROUPS[group])
    out["protocol.outcomes.count"] = calls(*GROUPS["protocol.outcomes"])
    for group in ("protocol.band_pure", "protocol.band_dense", "protocol.outcomes",
                  "protocol.oracle", "protocol.monte_carlo", "noise.transform",
                  "noise.lindblad", "noise.convergence"):
        out[f"{group}.self_s"] = self_s(*GROUPS[group])

    task_s = float(np.sum(s["dur"][s["parent"] < 0])) / 1e9
    shares = {lay: self_s(*layer(lay)) / task_s if task_s else 0.0 for lay in (*LAYERS, "bench")}
    return {"metrics": out, "shares": shares, "task_s": task_s}
