"""Command-line driver: subcommands, exit codes, determinism, performance."""

import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from telefock import cli, continuum, fock, noise, protocol, resources
from telefock.cli import main

import reference
from helpers import CLI_RESOURCES, resource_id


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def teleport_config(**overrides):
    cfg = {
        "schema_version": 1,
        "kind": "teleport",
        "N": 1,
        "nu": 3,
        "resource": {"name": "max_entangled"},
    }
    cfg.update(overrides)
    return cfg


def sweep_config(**overrides):
    cfg = {
        "schema_version": 1,
        "kind": "sweep",
        "N": 1,
        "nu_grid": [10, 20, 50, 100, 200, 500, 1000],
        "resource": {"name": "max_entangled"},
    }
    cfg.update(overrides)
    return cfg


def test_teleport_max_entangled_report(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "teleport", "--config", write_config(tmp_path, teleport_config()),
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["fidelity"] == pytest.approx(11.0 / 12.0, abs=1e-12)
    assert payload["f_sep"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    probs = [row["probability"] for row in payload["outcomes"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_teleport_separable_report(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "teleport",
        "--config", write_config(
            tmp_path, teleport_config(resource={"name": "fock_separable", "k": 0})
        ),
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["fidelity"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    assert main(["teleport", "--config", str(path)]) == 2
    missing = write_config(tmp_path, {"schema_version": 1, "kind": "teleport"})
    assert main(["teleport", "--config", missing]) == 2
    wrong_version = write_config(tmp_path, teleport_config(schema_version=99))
    assert main(["teleport", "--config", wrong_version]) == 2
    unknown = write_config(
        tmp_path, teleport_config(resource={"name": "does_not_exist"})
    )
    assert main(["teleport", "--config", unknown]) == 2


def test_sweep_maxent_column_values(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, sweep_config())
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "nu,N,fidelity,avg_entanglement,f_sep,triangle_slack,wall_time_s"
    for line in lines[1:]:
        vals = line.split(",")
        nu, fid = int(vals[0]), float(vals[2])
        assert abs((1.0 - fid) - 1.0 / (3.0 * (nu + 1))) < 1e-12
        assert float(vals[5]) >= -1e-10


def test_unwritable_output_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config(nu_grid=[10]))
    out = tmp_path / "missing-dir" / "x.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("environment error:") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("overrides", [
    {"N": True},
    {"nu_grid": [True, 2]},
    {"resource": {"name": "gaussian", "beta": False}},
])
def test_bool_for_number_exits_2(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, sweep_config(**overrides))
    assert main(["sweep", "--config", cfg]) == 2
    assert capsys.readouterr().out == ""


def test_non_object_section_exits_2(tmp_path, capsys):
    resource = {"name": "max_entangled", "phases": "alt"}
    cfg = write_config(tmp_path, sweep_config(resource=resource))
    assert main(["sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "got str" in err and "missing config key" not in err


def noise_config(**overrides):
    cfg = {
        "schema_version": 1,
        "kind": "noise",
        "N": 2,
        "nu": 6,
        "resource": {"name": "max_entangled"},
        "noise": {"kind": "dephasing", "lambda3": 1.0, "lambda4": 1.0},
        "times": [0.0],
    }
    cfg.update(overrides)
    return cfg


MIXING = {"kind": "mixing", "undesired": {"name": "fock_separable", "k": 2}}


@pytest.mark.parametrize("overrides, key", [
    ({"times": ["a"]}, "times"),
    ({"times": [True, 0.5]}, "times"),
    ({"times": [float("nan")]}, "times"),
    ({"noise": MIXING, "weights": [None]}, "weights"),
])
def test_non_number_scan_entry_exits_2(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, noise_config(**overrides))
    assert main(["noise", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err


@pytest.mark.parametrize("psi", [[[1, 0], "x"], [[0, 0], [0, 0]]])
def test_malformed_psi_exits_2(tmp_path, capsys, psi):
    cfg = write_config(tmp_path, teleport_config(psi=psi))
    with np.errstate(all="raise"):
        assert main(["teleport", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "psi" in err
    assert "non-finite" not in err


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, sweep_config())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def readme_synopsis_options() -> set[str]:
    """The options in the code block that opens README's `## Command line`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return set(re.findall(r"--[a-z][a-z-]*", block))


def test_readme_synopsis_lists_each_subcommand_option(tmp_path, capsys):
    synopsis = readme_synopsis_options()
    subparsers = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    for name, sub in subparsers.choices.items():
        options = {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        want = synopsis - {"--config"} if name == "selftest" else synopsis
        assert options - {"--help"} == want, name
    # an option the synopsis does not list is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", write_config(tmp_path, sweep_config()), "--threads", "4"])
    assert exc.value.code == 2 and "--threads" in capsys.readouterr().err


def readme_key_lists(section: str) -> dict[str, set[str]]:
    """name -> keys, from README's list of the keys of a `resource` or `family` section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split(f"* `{section}`", 1)[1].split("\n\n", 1)[0].split("\n* ", 1)[0]
    keys = {}
    for item in block.split("\n  * ")[1:]:
        names, body = item.split(":", 1)
        keys.update(dict.fromkeys(re.findall(r"`(\w+)`", names), set(re.findall(r"`(\w+)`", body))))
    return keys


@pytest.mark.parametrize("section, keys", [("resource", cli.RESOURCE_KEYS),
                                           ("family", cli.FAMILY_KEYS)])
def test_readme_lists_the_keys_of_each_resource_and_family(section, keys):
    # `phases`, which README names once for every vector resource, aside
    assert readme_key_lists(section) == {name: set(k) - {"phases"} for name, k in keys.items()}


def test_readme_lists_the_top_level_keys_of_each_subcommand():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    item = text.split("* the top level", 1)[1].split("\n* ", 1)[0]
    listed = {name: tuple(re.findall(r"`(\w+)`", body))
              for name, body in re.findall(r"`([\w-]+)`: ([^;]+)", item)}
    assert listed == cli.CONFIG_KEYS


def test_cli_resources_name_each_resource_and_phases_go_on_vectors_only():
    assert sorted({spec["name"] for spec in CLI_RESOURCES}) == sorted(cli.RESOURCE_KEYS)
    for spec in CLI_RESOURCES:
        unphased = {key: value for key, value in spec.items() if key != "phases"}
        vector = isinstance(cli.resolve_resource(unphased, 6), np.ndarray)
        assert ("phases" in cli.RESOURCE_KEYS[spec["name"]]) == vector, spec


# each resource and each family with one misspelt key
MISSPELT = [
    ("resource", {"name": "max_entangled", "phase": {"kind": "alternating"}}, "phase"),
    ("resource", {"name": "noon", "phase": {"kind": "alternating"}}, "phase"),
    ("resource", {"name": "fock_separable", "n": 2}, "n"),
    ("resource", {"name": "gaussian", "centre": 5.0, "sigma": 3.0}, "centre"),
    ("resource", {"name": "su2_coherent", "theta": 1.1, "Phi": 0.4}, "Phi"),
    ("resource", {"name": "double_well", "gama": 3.0}, "gama"),
    ("resource", {"name": "four_coherence", "a": 0.35, "b": 0.15, "c": 0.15, "d": 0.35,
                  "x": -0.1, "z": 0.3}, "z"),
    ("family", {"name": "flat", "beta": 0.5}, "beta"),
    ("family", {"name": "gaussian", "betta": 0.75}, "betta"),
    ("family", {"name": "noon", "phases": {"kind": "alternating"}}, "phases"),
    ("family", {"name": "fock", "k": 2}, "k"),
    ("family", {"name": "double_well", "gamma": 3.0, "tau": 0.5}, "tau"),
]


@pytest.mark.parametrize("section, spec, key", MISSPELT,
                         ids=[f"{section}-{spec['name']}-{key}" for section, spec, key in MISSPELT])
def test_a_misspelt_resource_or_family_key_exits_2_naming_it(tmp_path, capsys, section, spec, key):
    if section == "resource":
        kind, cfg = "sweep", sweep_config(N=2, nu_grid=[10], resource=spec)
    else:
        kind, cfg = "converge", {"schema_version": 1, "kind": "converge", "N": 2,
                                 "nu_grid": [20, 40, 80], "family": spec}
    assert main([kind, "--config", write_config(tmp_path, cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert repr(key) in err


CONVERGE = {"schema_version": 1, "kind": "converge", "N": 2, "nu_grid": [20, 40, 80, 160]}
LOSS = {"kind": "loss", "channels": [{"rate": 0.5, "m": 1, "n": 1}]}
# one misspelt key in each of the other sections and at each top level
MISSPELT_ELSEWHERE = [
    ("sweep", sweep_config(nu_grid=[10], nu_gird=[5]), "nu_gird"),
    ("sweep", sweep_config(nu_grid=[10], resource={
        "name": "max_entangled", "phases": {"kind": "alternating", "coefficient": 0.3}}),
     "coefficient"),
    ("sweep", sweep_config(nu_grid=[10], resource={
        "name": "noon", "phases": {"kind": "linear", "coefficent": 0.3}}), "coefficent"),
    ("teleport", {"schema_version": 1, "kind": "teleport", "N": 1, "nu": 3,
                  "resource": {"name": "max_entangled"}, "seed": 4}, "seed"),
    ("ground-state", {"schema_version": 1, "N": 2, "nu": 40, "gamma": 3.0, "tau": 1.0}, "tau"),
    ("noise", noise_config(time=[0.0]), "time"),
    ("noise", noise_config(noise={"kind": "dephasing", "lambda3": 1.0, "lambda_4": 1.0}),
     "lambda_4"),
    ("noise", noise_config(noise={**LOSS, "rates": [0.5]}), "rates"),
    ("noise", noise_config(noise={"kind": "loss", "channels": [{"rate": 0.5, "m": 1, "k": 1}]}),
     "k"),
    ("noise", noise_config(noise={**MIXING, "undesire": {}}, weights=[0.0]), "undesire"),
    ("noise", noise_config(times={"start": 0.0, "stop": 0.3, "number": 4}), "number"),
    ("converge", {**CONVERGE, "family": {"name": "flat"}, "familly": {"name": "flat"}},
     "familly"),
    ("converge", {**CONVERGE, "superposition": {"a": {"name": "flat"}, "b": {"name": "noon"},
                                                "c1": 0.6, "c2": 0.8, "c3": 0.0}}, "c3"),
    ("converge", {**CONVERGE, "family": {"name": "flat"}, "noise": LOSS,
                  "time_rule": {"exponent": -2.5, "scael": 1.0}}, "scael"),
]


@pytest.mark.parametrize("kind, cfg, key", MISSPELT_ELSEWHERE,
                         ids=[f"{kind}-{key}" for kind, _, key in MISSPELT_ELSEWHERE])
def test_a_misspelt_key_in_any_other_section_exits_2_naming_it(tmp_path, capsys, kind, cfg, key):
    assert main([kind, "--config", write_config(tmp_path, cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: unknown config key")
    assert len(err.strip().splitlines()) == 1 and repr(key) in err


def test_consecutive_calls_share_no_options(tmp_path):
    cfg = write_config(tmp_path, sweep_config(nu_grid=[10, 20]))
    timed, plain = tmp_path / "timed.json", tmp_path / "plain.csv"
    assert main(["sweep", "--config", cfg, "--out", str(timed),
                 "--timings", "--format", "json"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(plain)]) == 0
    assert cli._parser() is cli._parser()
    fresh = tmp_path / "fresh.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-m", "telefock.cli", "sweep", "--config", cfg,
                    "--out", str(fresh)], check=True, env={**os.environ, "PYTHONPATH": src})
    assert plain.read_bytes() == fresh.read_bytes()
    assert all(row["wall_time_s"] > 0.0 for row in json.loads(timed.read_text()))


def phased_uniform_fidelity(N, nu, c):
    """f = 2/(N+2) + sum_d 2(N+1-d)(nu+1-d) cos(c d) / ((nu+1)(N+1)(N+2)) for the
    uniform resource with phases e^{i c k}."""
    band = sum(2 * (N + 1 - d) * (nu + 1 - d) * math.cos(c * d) for d in range(1, N + 1))
    return 2.0 / (N + 2) + band / ((nu + 1) * (N + 1) * (N + 2))


@pytest.mark.parametrize("phases, c", [
    ({"kind": "linear", "coefficient": -0.05}, -0.05),
    ({"kind": "linear", "coefficient": 0.03}, 0.03),
    ({"kind": "alternating"}, math.pi),
])
def test_sweep_phases_match_closed_form(tmp_path, capsys, phases, c):
    grid = [10, 100, 1000, 4096]
    for N in (1, 4):
        plain = sweep_config(N=N, nu_grid=grid)
        phased = sweep_config(N=N, nu_grid=grid,
                              resource={"name": "max_entangled", "phases": phases})
        assert main(["sweep", "--config", write_config(tmp_path, plain), "--format", "json"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["sweep", "--config", write_config(tmp_path, phased), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row, ref in zip(rows, base):
            nu = row["nu"]
            assert abs(row["fidelity"] - phased_uniform_fidelity(N, nu, c)) < 1e-12
            assert abs(row["avg_entanglement"] - ref["avg_entanglement"]) < 1e-12


LINEAR = {"kind": "linear", "coefficient": 0.3}
PHASED_ROWS = [
    ({"name": "max_entangled", "phases": LINEAR}, []),
    ({"name": "gaussian", "beta": 0.6, "phases": {"kind": "linear", "coefficient": -1.7}}, []),
    ({"name": "double_well", "gamma": 3.0, "phases": {"kind": "linear", "coefficient": 2.5}}, []),
    ({"name": "noon", "phases": {"kind": "alternating"}}, []),
    # SU(2) is its real moduli with the one slope phi + 0.3 on their band
    ({"name": "su2_coherent", "theta": 1.1, "phi": 0.4, "phases": LINEAR}, []),
]


@pytest.mark.parametrize("resource, phase_vectors", PHASED_ROWS,
                         ids=[resource_id(r) for r, _ in PHASED_ROWS])
def test_sweep_forms_a_phase_vector_for_complex_resources_only(tmp_path, capsys, monkeypatch,
                                                               resource, phase_vectors):
    # a real vector's phases act on its band (protocol.phased_band)
    grid, N = [10, 300], 3
    want = [protocol.performance_report(cli.resolve_resource(resource, nu), N) for nu in grid]
    calls = []
    original = resources.linear_phase
    monkeypatch.setattr(resources, "linear_phase", lambda *a: calls.append(a) or original(*a))
    cfg = write_config(tmp_path, sweep_config(N=N, nu_grid=grid, resource=resource))
    assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
    assert calls == phase_vectors
    for row, ref in zip(json.loads(capsys.readouterr().out), want):
        assert row["fidelity"] == pytest.approx(ref.fidelity, rel=0.0, abs=1e-14)
        assert row["avg_entanglement"] == pytest.approx(ref.avg_entanglement, rel=0.0, abs=1e-14)


def test_an_su2_sweep_row_reads_one_real_vector(tmp_path, capsys, monkeypatch):
    # its real moduli take one pass of lag sums, and phi acts on their band:
    # no phase table, no complex vector and no second pass over |x|
    calls = {"_shifted_dots": 0, "linear_phase": 0}

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    spy(protocol, "_shifted_dots")
    spy(resources, "linear_phase")
    resource = {"name": "su2_coherent", "theta": 1.1, "phi": 0.4}
    cfg = write_config(tmp_path, sweep_config(N=64, nu_grid=[2 ** 12], resource=resource))
    assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
    assert calls == {"_shifted_dots": 1, "linear_phase": 0}
    [row] = json.loads(capsys.readouterr().out)
    want = protocol.performance_report(resources.su2_coherent_amplitudes(2 ** 12, 1.1, 0.4), 64)
    assert row["fidelity"] == pytest.approx(want.fidelity, rel=0.0, abs=1e-14)
    assert row["avg_entanglement"] == pytest.approx(want.avg_entanglement, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("times", [
    {"start": 0.0, "stop": 0.4, "num": -2},
    {"start": 0.0, "stop": 0.4, "num": 0},
    {"start": 0.0, "stop": 0.4, "num": 2.5},
    {"start": 0.0, "stop": 0.4, "num": "3"},
    {"start": 0.0, "stop": 0.4, "num": True},
    {"start": 0.0, "stop": 0.4},
])
def test_bad_times_num_exits_2(tmp_path, capsys, times):
    cfg = write_config(tmp_path, noise_config(times=times))
    assert main(["noise", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "times.num" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("kind, overrides, key", [
    ("sweep", {"resource": {"name": "max_entangled",
                            "phases": {"kind": "linear", "coefficient": math.inf}}},
     "coefficient"),
    ("sweep", {"resource": {"name": "gaussian", "beta": math.nan}}, "beta"),
    ("sweep", {"resource": {"name": "gaussian", "beta": 10 ** 400}}, "beta"),
    ("noise", {"noise": {"kind": "dephasing", "lambda3": -math.inf, "lambda4": 1.0}},
     "lambda3"),
    ("noise", {"times": {"start": 0.0, "stop": math.nan, "num": 3}}, "stop"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, kind, overrides, key):
    base = sweep_config if kind == "sweep" else noise_config
    cfg = write_config(tmp_path, base(**overrides))
    assert main([kind, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and repr(key) in err
    assert len(err.strip().splitlines()) == 1


SAMPLE_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SAMPLE_CONFIGS, ids=lambda p: p.stem)
def test_sample_config_runs(path, capsys):
    kind = json.loads(path.read_text())["kind"]
    assert main([kind, "--config", str(path), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


def test_sweep_empty_grid_exits_2(tmp_path):
    cfg = write_config(tmp_path, sweep_config(nu_grid=[]))
    assert main(["sweep", "--config", cfg]) == 2
    cfg = write_config(tmp_path, sweep_config(nu_grid=[10, 10, 20]))
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_row_performance_budget(tmp_path):
    # one closed-form row at nu=5000, N=2 must stay under 50 ms
    spec = {"name": "gaussian", "beta": 1.25}
    cli.resolve_resource(spec, 100)  # warm import paths
    start = time.perf_counter()
    row = cli._sweep_row(5000, 2, spec, timings=False)
    elapsed = time.perf_counter() - start
    assert row["fidelity"] > 0.99
    assert elapsed < 0.050


def test_noise_dephasing_threshold_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "noise",
        "N": 4,
        "nu": 4,
        "resource": {"name": "four_coherence", "a": 0.35, "b": 0.15,
                     "c": 0.15, "d": 0.35, "x": -0.1, "y": 0.3},
        "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
        "times": {"start": 0.0, "stop": 0.3, "num": 7},
    })
    out = tmp_path / "noise.json"
    assert main(["noise", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["threshold"]["t_star"] == pytest.approx(np.log(1.5) / 4.0, abs=1e-12)
    assert payload["threshold"]["verified"]
    fids = [row["fidelity"] for row in payload["rows"]]
    assert fids[0] > 2.0 / 6.0 > fids[-1]


def test_noise_loss_bound_column(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "noise",
        "N": 2,
        "nu": 6,
        "resource": {"name": "max_entangled"},
        "noise": {"kind": "loss",
                  "channels": [{"rate": 0.5, "m": 1, "n": 1}]},
        "times": {"start": 0.0, "stop": 0.4, "num": 9},
    })
    out = tmp_path / "loss.csv"
    assert main(["noise", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    fi, bi = header.index("fidelity"), header.index("lower_bound")
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[fi] >= vals[bi] - 1e-12


def test_noise_single_zero_time_matches_clean(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "noise",
        "N": 2,
        "nu": 6,
        "resource": {"name": "max_entangled"},
        "noise": {"kind": "dephasing", "lambda3": 1.0, "lambda4": 1.0},
        "times": [0.0],
    })
    out = tmp_path / "zero.json"
    assert main(["noise", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    clean = protocol.fidelity_closed(resources.max_entangled(6), 2)
    assert payload["rows"][0]["fidelity"] == pytest.approx(clean, abs=1e-15)


def test_noise_mixing_weight_scan(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "noise",
        "N": 2,
        "nu": 5,
        "resource": {"name": "max_entangled"},
        "noise": {"kind": "mixing",
                  "undesired": {"name": "fock_separable", "k": 2}},
        "weights": [0.0, 1.0, 10.0, 1000.0],
    })
    out = tmp_path / "mix.json"
    assert main(["noise", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    f_rho = protocol.fidelity_closed(resources.max_entangled(5), 2)
    f_sep = protocol.separable_fidelity(2)
    for row in payload["rows"]:
        s = row["t"]
        assert row["fidelity"] == pytest.approx((f_rho + s * f_sep) / (1 + s), abs=1e-12)
        assert row["fidelity"] > f_sep


def test_mixing_section_with_s_exits_2(tmp_path, capsys):
    # the scan runs over `weights`: an `s` in the section would be ignored
    cfg = write_config(tmp_path, noise_config(nu=8, resource={"name": "max_entangled"},
                                              noise={**MIXING, "s": 5.0}, weights=[0.0]))
    assert main(["noise", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "weights" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_mixing_section_without_s_scans_weights(tmp_path):
    cfg = write_config(tmp_path, noise_config(nu=8, noise=MIXING, weights=[0.0, 5.0]))
    out = tmp_path / "mix.json"
    assert main(["noise", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())["rows"]
    f_rho = protocol.fidelity_closed(resources.max_entangled(8), 2)
    f_sep = protocol.separable_fidelity(2)
    assert [row["t"] for row in rows] == [0.0, 5.0]
    assert rows[0]["fidelity"] == pytest.approx(f_rho, abs=1e-15)
    assert rows[1]["fidelity"] == pytest.approx((f_rho + 5.0 * f_sep) / 6.0, abs=1e-12)


def test_converge_command(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "converge",
        "N": 1,
        "nu_grid": [50, 100, 200, 400],
        "family": {"name": "flat"},
    })
    out = tmp_path / "converge.json"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["converges"]
    assert payload["hypothesis_flags"] == []


def test_converge_superposition(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "converge",
        "N": 2,
        "nu_grid": [100, 200, 400, 800],
        "family": {"name": "flat"},
        "superposition": {
            "a": {"name": "gaussian", "beta": 0.75},
            "b": {"name": "gaussian", "beta": 0.75},
            "c1": 0.7071067811865476,
            "c2": 0.7071067811865476,
        },
    })
    out = tmp_path / "sup.json"
    # identical components: flagged as non-orthogonal but still converging
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "components-not-asymptotically-orthogonal" in payload["hypothesis_flags"]


def test_converge_with_noise(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "converge",
        "N": 2,
        "nu_grid": [100, 200, 400, 800],
        "family": {"name": "gaussian", "beta": 0.75},
        "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
        "time_rule": {"exponent": -2.5},
    })
    out = tmp_path / "noisy.json"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["converges"]


def test_converge_constant_deficit_fits_exponent_zero(tmp_path):
    # dephasing for a time ~1/nu leaves N00N's 1 - f at exactly 2/3 on every
    # point; its tail exponent is 0, not a least-squares slope of round-off
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "converge",
        "N": 4,
        "nu_grid": [40, 80, 160, 320],
        "family": {"name": "noon"},
        "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
        "time_rule": {"exponent": -1.0},
    })
    out = tmp_path / "noon.json"
    assert main(["converge", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(set(payload["one_minus_f"])) == 1
    assert payload["fitted_exponent"] == 0.0
    assert not payload["converges"]


def test_sweep_gnuplot_companion(tmp_path):
    cfg = write_config(tmp_path, sweep_config())
    out = tmp_path / "rows.csv"
    script = tmp_path / "rows.gp"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--gnuplot", str(script)]) == 0
    text = script.read_text()
    assert str(out) in text
    assert "plot" in text


def test_ground_state_command(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "ground-state",
        "N": 2,
        "nu": 200,
        "gamma": 5.0,
    })
    out = tmp_path / "gs.json"
    assert main(["ground-state", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["imbalance_variance"] == pytest.approx(
        payload["predicted_variance"], rel=0.10
    )
    assert payload["fidelity"] == pytest.approx(payload["fidelity_continuum"], rel=0.01)


def test_ground_state_command_attractive(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1,
        "kind": "ground-state",
        "N": 2,
        "nu": 200,
        "gamma": -2.0,
    })
    out = tmp_path / "gs2.json"
    assert main(["ground-state", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["peaks"]) == 2
    assert payload["peaks"][0] == pytest.approx(payload["predicted_peaks"][0], rel=0.05)
    assert payload["fidelity"] == pytest.approx(payload["fidelity_continuum"], rel=0.02)


def test_selftest_command_passes():
    assert main(["selftest"]) == 0


def test_selftest_detects_corrupted_fidelity_kernel(monkeypatch):
    # widen the fidelity band by one: every closed-form baseline shifts
    from telefock import protocol as protocol_module

    def corrupted(rho, N):
        if isinstance(rho, protocol_module.TwoModeDensityMatrix):
            matrix = rho.matrix
        else:
            matrix = np.asarray(rho)
        nu = matrix.shape[0] - 1
        weight = float(np.trace(matrix).real)
        band = 0.0
        for d in range(1, min(N + 1, nu) + 1):
            band += (N + 2 - d) * 2.0 * float(np.trace(matrix, offset=d).real)
        return 2.0 * weight / (N + 2) + band / ((N + 1) * (N + 2))

    monkeypatch.setattr(protocol_module, "fidelity_closed", corrupted)
    from telefock.selftest import run_selftest

    assert run_selftest(verbose=False) == 1


@pytest.mark.parametrize("kind, overrides, key", [
    ("sweep", {"nu_grid": [10 ** 30]}, "nu_grid"),
    ("teleport", {"nu": 10 ** 24}, "'nu'"),
    ("noise", {"nu": -(10 ** 20)}, "'nu'"),
])
def test_integer_beyond_int64_exits_2(tmp_path, capsys, kind, overrides, key):
    base = {"sweep": sweep_config, "teleport": teleport_config, "noise": noise_config}[kind]
    assert main([kind, "--config", write_config(tmp_path, base(**overrides))]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and key in err
    assert "64-bit" in err and len(err.strip().splitlines()) == 1


def test_integer_beyond_parser_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(sweep_config(nu_grid=[0])).replace("[0]", "[" + "9" * 5000 + "]"))
    assert main(["sweep", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "digits" in err
    assert len(err.strip().splitlines()) == 1


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # what numpy raises for a grid point such as nu = 10**12
    def exhausted(nu):
        raise MemoryError(f"Unable to allocate {8 * (nu + 1)} bytes")

    monkeypatch.setattr(resources, "max_entangled_amplitudes", exhausted)
    assert main(["sweep", "--config", write_config(tmp_path, sweep_config())]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("environment error: out of memory")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("x, y", [(0.1, 0.3), (-0.1, 0.15)])  # x >= 0; no initial advantage
def test_dephasing_scan_without_crossing_reports_null_threshold(tmp_path, capsys, x, y):
    resource = {"name": "four_coherence", "a": 0.35, "b": 0.15, "c": 0.15, "d": 0.35,
                "x": x, "y": y}
    cfg = write_config(tmp_path, noise_config(N=4, nu=4, resource=resource,
                                              times=[0.0, 0.1, 0.2]))
    assert main(["noise", "--config", cfg, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["threshold"] is None and err == ""
    assert [row["t"] for row in payload["rows"]] == [0.0, 0.1, 0.2]
    csv_out = tmp_path / "scan.csv"
    assert main(["noise", "--config", cfg, "--out", str(csv_out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(csv_out.read_text().strip().splitlines()) == 4


@pytest.mark.parametrize("resource", [
    {"name": "su2_coherent", "theta": 1.1, "phi": 0.7},
    {"name": "gaussian", "beta": 0.6, "phases": {"kind": "linear", "coefficient": 0.3}},
    {"name": "double_well", "gamma": -2.0, "phases": {"kind": "alternating"}},
])
def test_sweep_fidelity_goes_through_the_pure_fidelity_attribute(tmp_path, capsys, monkeypatch,
                                                                 resource):
    # a shifted protocol.fidelity_closed_pure must shift every sweep row, as
    # the benchmark's corrupted-fidelity gate assumes (phased resources: a
    # nonnegative one has triangle slack 0, so the shift makes it exit 3)
    cfg = write_config(tmp_path, sweep_config(N=2, nu_grid=[10, 200], resource=resource))

    def fidelities():
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        return np.array([row["fidelity"] for row in json.loads(capsys.readouterr().out)])

    clean = fidelities()
    original = protocol.fidelity_closed_pure
    monkeypatch.setattr(protocol, "fidelity_closed_pure", lambda x, N: original(x, N) + 1e-6)
    assert np.allclose(fidelities() - clean, 1e-6, rtol=1e-6, atol=0.0)


def test_attractive_ground_state_is_symmetric_with_both_peaks(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "ground-state",
                                  "N": 2, "nu": 1000, "gamma": -3.0})
    assert main(["ground-state", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["imbalance_mean"] == 0.0
    peaks, predicted = payload["peaks"], payload["predicted_peaks"]
    assert len(peaks) == 2
    for z, z0 in zip(peaks, predicted):
        assert abs(z - z0) / abs(z0) < 0.05


@pytest.mark.parametrize("kind, cfg", [
    ("sweep", sweep_config(nu_grid=[10])),
    ("teleport", teleport_config()),
])
def test_violated_triangle_bound_exits_3(tmp_path, capsys, monkeypatch, kind, cfg):
    monkeypatch.setattr(protocol, "avg_entanglement_closed", lambda rho, N: 0.0)
    assert main([kind, "--config", write_config(tmp_path, cfg), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical error: triangle inequality violated")
    assert len(err.strip().splitlines()) == 1


def test_mixing_scan_writes_gnuplot_script(tmp_path):
    cfg = write_config(tmp_path, noise_config(noise=MIXING, weights=[0.0, 0.5, 1.0]))
    out, script = tmp_path / "mix.csv", tmp_path / "mix.gp"
    assert main(["noise", "--config", cfg, "--out", str(out), "--gnuplot", str(script)]) == 0
    text = script.read_text()
    assert f"'{out}' using 1:3" in text and "title 'fidelity'" in text


def test_loss_channel_with_huge_m_exits_0_quickly(tmp_path, capsys):
    channel = {"rate": 0.5, "m": 2 ** 62, "n": 0}
    cfg = write_config(tmp_path, noise_config(
        noise={"kind": "loss", "channels": [channel]}, times=[0.0, 0.5]))
    start = time.perf_counter()
    assert main(["noise", "--config", cfg, "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    rows = json.loads(capsys.readouterr().out)["rows"]
    # no mode holds 2**62 particles, so every rate is zero and nothing decays
    assert rows[1]["fidelity"] == rows[0]["fidelity"]
    assert rows[1]["lower_bound"] == rows[0]["fidelity"]


def test_ground_state_with_zero_particles_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "ground-state",
                                  "N": 2, "nu": 0, "gamma": 1.0})
    assert main(["ground-state", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "particle" in err


@pytest.mark.parametrize("resource", [
    {"name": "double_well", "tau": 1e300, "U": 1.0},  # gamma = 1e-299
    {"name": "double_well", "tau": 1e160, "U": 0.0},
])
def test_double_well_with_a_huge_tau_solves_in_gamma(tmp_path, capsys, resource):
    # the hops of H itself overflow when the eigensolver squares them; those
    # of H / tau do not, and the ground state depends on gamma alone
    rows = []
    for spec in (resource, {"name": "double_well", "gamma": 0.0}):
        cfg = write_config(tmp_path, sweep_config(N=2, nu_grid=[3, 10, 1000], resource=spec))
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        rows.append(json.loads(capsys.readouterr().out))
    got, want = rows
    assert [row["nu"] for row in got] == [3, 10, 1000]
    for g, w in zip(got, want):
        assert all(math.isfinite(g[c]) for c in ("fidelity", "avg_entanglement"))
        assert g["fidelity"] == pytest.approx(w["fidelity"], abs=1e-12)
        assert g["avg_entanglement"] == pytest.approx(w["avg_entanglement"], abs=1e-12)


# (U, tau, nu, exit code): the solve builds H / tau, whose row sums reach
# |U / tau| nu (nu-1) + 2 (nu+1); a sector of more than 1025 levels also
# needs 4 times that for its window's Sturm count
EXTREME_DOUBLE_WELLS = [
    (1e283, 1e-20, 10000, 2),  # (U / tau) nu (nu-1) = 1e311 once overflowed and exited 3
    (-1e283, 1e-20, 10000, 2),
    (1e283, 1e-20, 3, 0),
    (1e308 / (4097 * 4096), 1.0, 4097, 2),  # row sums below the floats, 4 times them not
    (4e307 / (4097 * 4096), 1.0, 4097, 0),
    (-4e307 / (4097 * 4096), 1.0, 4097, 0),
    (1.7e308 / (1000 * 999), 1.0, 1000, 0),  # whole sector: no Sturm count
    (8.5e307, 1.0, 2, 0),  # gamma = 1.7e308, in closed form
    (1e-300, 5e-324, 10000, 0),
    (-1e-320, 1e-10, 10000, 0),
    (1e-308, 1e308, 10000, 0),
    (1.0, 5e-324, 10, 2),  # U / tau overflows
    (1e308, 1e308, 10000, 0),  # gamma = nu (U / tau) = 1e4; nu U once overflowed and exited 2
    (1.7e308, 1e-300, 1, 2),
]


@pytest.mark.parametrize("U, tau, nu, code", EXTREME_DOUBLE_WELLS,
                         ids=[f"U={U:.3g}-tau={tau:.3g}-nu={nu}" for U, tau, nu, _ in EXTREME_DOUBLE_WELLS])
def test_extreme_double_well_pairs_solve_or_exit_2_without_a_warning(tmp_path, capsys, U, tau, nu, code):
    resource = {"name": "double_well", "U": U, "tau": tau}
    path = write_config(tmp_path, sweep_config(N=2, nu_grid=[nu], resource=resource))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--config", path, "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == code, err
    if code == 0:
        [row] = json.loads(out)
        assert all(math.isfinite(row[c]) for c in ("fidelity", "avg_entanglement"))
    else:
        assert out == "" and err.startswith("config error:") and len(err.strip().splitlines()) == 1


def test_ground_state_reads_the_populations_once(capsys, monkeypatch):
    # one norm check in `band` for f and E, one in the reader of the
    # populations that the moments and the peaks share
    counted = mock.Mock(wraps=fock._check_normalized)
    monkeypatch.setattr(fock, "_check_normalized", counted)
    monkeypatch.setattr(protocol, "_check_normalized", counted)
    config = next(p for p in SAMPLE_CONFIGS if p.stem == "ground_state_attractive")
    assert main(["ground-state", "--config", str(config), "--format", "json"]) == 0
    assert counted.call_count == 2
    golden = config.parent.parent / "tests" / "golden" / f"{config.stem}.json"
    assert capsys.readouterr().out == golden.read_text()


CONVERGE_OVERFLOW = {
    "schema_version": 1, "kind": "converge", "N": 2, "nu_grid": [40, 80, 160, 320],
    "family": {"name": "gaussian", "beta": 0.75},
    "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
    "time_rule": {"exponent": 1e308, "scale": 1e308},
}


@pytest.mark.parametrize("kind, cfg, exc", [
    ("sweep", sweep_config(nu_grid=[2 ** 62]), "ValueError"),
    ("teleport", teleport_config(nu=2 ** 62), "ValueError"),
    ("converge", CONVERGE_OVERFLOW, "OverflowError"),
])
def test_unexpected_exception_exits_3(tmp_path, capsys, kind, cfg, exc):
    assert main([kind, "--config", write_config(tmp_path, cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"numerical error: {exc}:")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("resource", [
    {"name": "fock_separable", "k": 2},
    {"name": "four_coherence", "a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25,
     "x": -0.2, "y": 0.24},
])
def test_phases_on_a_state_resource_exits_2(tmp_path, capsys, resource):
    resource = {**resource, "phases": {"kind": "alternating"}}
    cfg = write_config(tmp_path, noise_config(N=3, resource=resource))
    assert main(["noise", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "'phases'" in err


# runs one CLI command and reports its own exit code, wall time and peak RSS
# The child's own peak is VmHWM: its ru_maxrss can carry the peak of the
# process that started it (the pytest process, across vfork and exec).
MEASURED_RUN = """
import json, resource, sys, time
from telefock.cli import main
start = time.perf_counter()
rc = main(sys.argv[1:])
wall = time.perf_counter() - start
try:
    with open("/proc/self/status") as fh:
        rss_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rc": rc, "wall_s": wall, "rss_mb": rss_kb / 1024.0}), file=sys.stderr)
"""
MILLION = 10 ** 6


@pytest.mark.parametrize("kind, cfg", [
    ("noise", {"schema_version": 1, "kind": "noise", "N": 4, "nu": MILLION,
               "resource": {"name": "gaussian", "beta": 0.75},
               "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
               "times": [0.0, 1e-12, 1e-11, 1e-10, 1e-9]}),
    ("converge", {"schema_version": 1, "kind": "converge", "N": 2,
                  "nu_grid": [1000, 10000, 100000, MILLION],
                  "family": {"name": "gaussian", "beta": 0.75},
                  "noise": {"kind": "loss", "channels": [{"rate": 0.1, "m": 1, "n": 0},
                                                         {"rate": 0.15, "m": 2, "n": 0}]},
                  "time_rule": {"exponent": -2.5}}),
], ids=["noise-dephasing", "converge-loss"])
def test_noise_at_a_million_particles_in_bounded_memory(tmp_path, kind, cfg):
    out = tmp_path / "out.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MEASURED_RUN, kind, "--config", write_config(tmp_path, cfg),
         "--out", str(out), "--format", "json"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    stats = json.loads(proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == 0 and stats["rc"] == 0
    assert stats["rss_mb"] < 200.0, stats
    payload = json.loads(out.read_text())
    if kind == "noise":
        fids = [row["fidelity"] for row in payload["rows"]]
        assert all(a > b for a, b in zip(fids, fids[1:])) and fids[-1] > 1.0 / 3.0
    else:
        assert payload["nu_grid"][-1] == MILLION and payload["converges"]
        assert payload["hypothesis_flags"] == []


@pytest.mark.parametrize("resource", [
    {"name": "max_entangled"},
    {"name": "four_coherence", "a": 0.35, "b": 0.15, "c": 0.15, "d": 0.35, "x": -0.1, "y": 0.3},
])
def test_noise_scan_beyond_memory_exits_3(tmp_path, capsys, monkeypatch, resource):
    # numpy refuses a 2**62-entry diagonal before allocating anything
    cfg = write_config(tmp_path, noise_config(nu=2 ** 62, resource=resource))
    assert main(["noise", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical error: ValueError:")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def exhausted(spec, nu):
        raise MemoryError(f"Unable to allocate {8 * (nu + 1)} bytes")

    monkeypatch.setattr(noise, "eta_rates", exhausted)
    loss = {"kind": "loss", "channels": [{"rate": 0.5, "m": 1, "n": 0}]}
    cfg = write_config(tmp_path, noise_config(resource=resource, noise=loss), "loss.json")
    assert main(["noise", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("environment error: out of memory")
    assert len(err.strip().splitlines()) == 1


def test_teleport_on_fock_separable_runs_no_factorization(tmp_path, monkeypatch):
    # a diagonal resource is PSD iff its populations are: no Cholesky needed
    # for it (the 2 x 2 teleported states are still certified)
    certified = fock._psd_certified

    def refuse(m):
        assert m.shape[0] < 41, "factorized a diagonal resource"
        return certified(m)

    monkeypatch.setattr(fock, "_psd_certified", refuse)
    out = tmp_path / "report.json"
    cfg = teleport_config(nu=40, resource={"name": "fock_separable", "k": 17})
    assert main(["teleport", "--config", write_config(tmp_path, cfg),
                 "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["fidelity"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_config_kind_must_match_the_subcommand(capsys):
    teleport = next(p for p in SAMPLE_CONFIGS if p.stem == "teleport_maxent")
    assert main(["sweep", "--config", str(teleport)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:") and "'teleport'" in err and "'sweep'" in err
    assert len(err.strip().splitlines()) == 1


def test_config_without_kind_is_accepted(tmp_path, capsys):
    cfg = sweep_config(nu_grid=[10])
    del cfg["kind"]
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


def _sweep_fidelities(tmp_path, capsys, resource, grid):
    cfg = write_config(tmp_path, sweep_config(N=2, nu_grid=grid, resource=resource))
    assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
    return [(row["fidelity"], row["avg_entanglement"])
            for row in json.loads(capsys.readouterr().out)]


def _library_fidelities(amplitudes_of_nu, grid):
    reports = [protocol.performance_report(amplitudes_of_nu(nu), 2) for nu in grid]
    return [(r.fidelity, r.avg_entanglement) for r in reports]


@pytest.mark.parametrize("resource, amplitudes_of_nu", [
    ({"name": "gaussian", "center": 12.5, "sigma": 3.0},
     lambda nu: resources.gaussian_amplitudes(
         resources.GaussianSpec(nu=nu, center=12.5, sigma=3.0))),
    ({"name": "gaussian", "sigma": 3.0},
     lambda nu: resources.gaussian_amplitudes(
         resources.GaussianSpec(nu=nu, center=nu / 2.0, sigma=3.0))),
    ({"name": "su2_coherent", "theta": 1.1, "phi": 0.4},
     lambda nu: protocol.phased_band(resources.su2_coherent_moduli(nu, 1.1), 0.4, 2)),
    ({"name": "su2_coherent", "theta": 1.1},
     lambda nu: protocol.phased_band(resources.su2_coherent_moduli(nu, 1.1), 0.0, 2)),
    ({"name": "double_well", "gamma": 3.0, "tau": 0.5},
     lambda nu: resources.double_well_ground_amplitudes(
         resources.BoseHubbardParams.from_gamma(nu, 3.0, 0.5))),
    ({"name": "double_well", "tau": 0.5, "U": 0.02},
     lambda nu: resources.double_well_ground_amplitudes(
         resources.BoseHubbardParams(nu=nu, tau=0.5, U=0.02))),
], ids=["gaussian_center_sigma", "gaussian_sigma", "su2_theta_phi", "su2_theta",
        "double_well_gamma_tau", "double_well_tau_U"])
def test_sweep_resource_keys_match_the_library(tmp_path, capsys, resource, amplitudes_of_nu):
    grid = [20, 40, 80]
    assert (_sweep_fidelities(tmp_path, capsys, resource, grid)
            == _library_fidelities(amplitudes_of_nu, grid))


@pytest.mark.parametrize("family, profile_of", [
    ({"name": "fock"},
     lambda: continuum.discrete_only_family(lambda nu: np.arange(nu + 1) == nu)),
    ({"name": "double_well", "gamma": 3.0}, lambda: continuum.double_well_family(3.0)),
], ids=["fock", "double_well"])
def test_converge_families_match_the_library(tmp_path, family, profile_of):
    grid = [20, 40, 80, 160]
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "converge", "N": 2,
                                  "nu_grid": grid, "family": family})
    out = tmp_path / "converge.json"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    expected = continuum.check_proposition2(profile_of(), 2, grid)
    assert payload["one_minus_f"] == list(expected.one_minus_f)
    assert payload["converges"] == expected.converges
    if family["name"] == "fock":
        # a Fock state teleports no better than the separable baseline 2/(N+2)
        assert payload["one_minus_f"] == pytest.approx([0.5] * len(grid), abs=1e-12)
        assert not payload["converges"]


def test_teleport_text_output_with_out_writes_the_json_report(tmp_path, capsys):
    cfg = write_config(tmp_path, teleport_config())
    assert main(["teleport", "--config", cfg, "--format", "json"]) == 0
    as_json = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["teleport", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("resource=max_entangled  N=1  nu=3\n")
    assert "fidelity          = 0.916666666667" in text
    assert len(text.splitlines()) == 2 + len(json.loads(as_json)["outcomes"]) + 4
    assert out.read_text() == as_json


@pytest.mark.parametrize("spec", CLI_RESOURCES, ids=resource_id)
def test_teleport_and_sweep_report_the_same_functionals(tmp_path, capsys, spec):
    # both read the resolved resource, so the numbers agree bit for bit
    grid = [37, 100, 211]
    for N in (1, 2, 3):
        cfg = write_config(tmp_path, sweep_config(N=N, nu_grid=grid, resource=spec))
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        swept = json.loads(capsys.readouterr().out)
        for nu, row in zip(grid, swept):
            cfg = write_config(tmp_path, teleport_config(N=N, nu=nu, resource=spec))
            assert main(["teleport", "--config", cfg, "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            for key in ("fidelity", "avg_entanglement", "triangle_slack"):
                assert report[key] == row[key], (N, nu, key)


def test_commands_build_no_dense_resource(tmp_path, capsys, monkeypatch):
    runs = [[json.loads(p.read_text())["kind"], "--config", str(p), "--format", "json"]
            for p in SAMPLE_CONFIGS]
    runs += [["teleport", "--format", "json", "--config", write_config(
        tmp_path, teleport_config(N=2, nu=9, resource=spec), f"{resource_id(spec)}.json")]
        for spec in CLI_RESOURCES]

    def outputs():
        got = []
        for argv in runs:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
            got.append(capsys.readouterr().out)
        return got

    want = outputs()

    def refuse(*args):
        raise AssertionError("built a dense (nu+1)^2 resource")

    monkeypatch.setattr(fock, "dense_state", refuse)
    monkeypatch.setattr(fock.ResourceState, "from_amplitudes", classmethod(refuse))
    monkeypatch.setattr(fock.Diagonals, "state", refuse)
    assert outputs() == want


@pytest.mark.parametrize("kind, cfg", [
    ("teleport", {"schema_version": 1, "kind": "teleport", "N": 1, "nu": 20000,
                  "resource": {"name": "max_entangled"}}),
    ("ground-state", {"schema_version": 1, "kind": "ground-state", "N": 2, "nu": MILLION,
                      "gamma": 7.368062997280773}),
    ("ground-state", {"schema_version": 1, "kind": "ground-state", "N": 2, "nu": MILLION,
                      "gamma": -2.0}),
], ids=["teleport", "ground-state-repulsive", "ground-state-attractive"])
def test_teleport_and_ground_state_at_scale_in_bounded_memory(tmp_path, kind, cfg):
    # a dense resource would take 6.4 GB (teleport) and 16 TB (ground-state)
    out = tmp_path / "out.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MEASURED_RUN, kind, "--config", write_config(tmp_path, cfg),
         "--out", str(out), "--format", "json"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    stats = json.loads(proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == 0 and stats["rc"] == 0
    assert stats["rss_mb"] < 200.0, stats
    payload = json.loads(out.read_text())
    nu = cfg["nu"]
    if kind == "teleport":
        assert len(payload["outcomes"]) == 2 * (nu + 1)
        assert sum(row["probability"] for row in payload["outcomes"]) == pytest.approx(1.0)
        assert payload["fidelity"] == pytest.approx(1.0 - 1.0 / (3.0 * (nu + 1)), abs=1e-12)
    elif "predicted_variance" in payload:
        assert payload["imbalance_variance"] == pytest.approx(
            payload["predicted_variance"], rel=0.10)
    else:
        assert len(payload["peaks"]) == 2
        assert payload["peaks"] == pytest.approx(payload["predicted_peaks"], rel=0.05)


@pytest.mark.parametrize("resource", [{"name": "gaussian", "beta": 0.5},
                                      {"name": "fock_separable", "k": 3}], ids=resource_id)
def test_teleport_computes_one_negativity_per_sector(tmp_path, monkeypatch, resource):
    N, nu, psi_cfg = 2, 6, [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8]]
    psi = fock.PureTwoModeState(N, cli._psi_amplitudes(psi_cfg, N))
    outcomes = list(protocol.iter_outcomes(psi, cli.resolve_resource(resource, nu)))
    # the per-outcome form: one negativity per outcome, 0 where the state is undefined
    want = [{"l": o.l, "lam": o.lam, "probability": o.probability,
             "negativity": fock.negativity(o.state) if o.state is not None else 0.0}
            for o in outcomes]
    sectors = {o.l for o in outcomes if o.probability > 0.0}
    assert 0 < len(sectors) < len(outcomes)
    calls = []
    real = fock.negativity
    monkeypatch.setattr(fock, "negativity", lambda state: calls.append(state) or real(state))
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path, teleport_config(N=N, nu=nu, psi=psi_cfg, resource=resource))
    assert main(["teleport", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    assert len(calls) == len(sectors)
    got = json.loads(out.read_text())["outcomes"]
    assert [r.keys() for r in got] == [r.keys() for r in want]
    assert [[v.hex() if isinstance(v, float) else v for v in r.values()] for r in got] == \
        [[v.hex() if isinstance(v, float) else v for v in r.values()] for r in want]


def test_sweep_of_the_uniform_resource_at_ten_million(tmp_path):
    # the normalization check once rejected this resource above nu ~ 2.7e6
    nu = 10_000_000
    out = tmp_path / "sweep.json"
    cfg = write_config(tmp_path, sweep_config(nu_grid=[nu]))
    assert main(["sweep", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    [row] = json.loads(out.read_text())
    assert abs(row["fidelity"] - (1.0 - 1.0 / (3.0 * (nu + 1)))) <= 1e-12


def test_ground_state_reads_its_vector_once(tmp_path, capsys, monkeypatch):
    calls = {"_check_normalized": 0, "_shifted_dots": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(protocol, name, counted(name, getattr(protocol, name)))
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "ground-state",
                                  "N": 2, "nu": 100, "gamma": 3.0})
    assert main(["ground-state", "--config", cfg, "--format", "json"]) == 0
    assert calls == {"_check_normalized": 1, "_shifted_dots": 1}
    monkeypatch.undo()
    payload = json.loads(capsys.readouterr().out)
    x = resources.double_well_ground_amplitudes(resources.BoseHubbardParams.from_gamma(100, 3.0))
    assert payload["fidelity"] == protocol.fidelity_closed(x, 2)
    assert payload["avg_entanglement"] == protocol.avg_entanglement_closed(x, 2)


@pytest.mark.parametrize("gamma", [-50.0, -70.0, -100.0, -1e4])
def test_ground_state_continuum_fidelity_of_bumps_at_the_edge(tmp_path, capsys, gamma):
    # at nu = 1000 these bumps sit within about one width of the edge of the
    # square, which cuts each in half; the continuum fidelity still matches
    # the 40-digit reference
    nu, N = 1000, 2
    cfg = write_config(tmp_path, {"schema_version": 1, "kind": "ground-state",
                                  "N": N, "nu": nu, "gamma": gamma})
    assert main(["ground-state", "--config", cfg, "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["fidelity_continuum"]
    want, _ = reference.functionals(continuum.double_well_family(gamma).mixture_of_nu(nu), nu, N)
    assert abs(got - want) <= 1e-13 * want


def ground_state_config(gamma):
    return {"schema_version": 1, "kind": "ground-state", "N": 1, "nu": 10, "gamma": gamma}


def sweep_at_ten(resource):
    return sweep_config(nu_grid=[10], resource=resource)


@pytest.mark.parametrize("cfg, key", [
    (sweep_at_ten({"name": "gaussian", "sigma": 1e-300}), "sigma"),
    (sweep_at_ten({"name": "gaussian", "sigma": 1e-160}), "sigma"),
    (sweep_at_ten({"name": "gaussian", "sigma": 1e200}), "sigma"),
    (sweep_at_ten({"name": "gaussian", "beta": 400.0}), "beta"),
    (sweep_at_ten({"name": "gaussian", "sigma": 1.0, "center": 1e300}), "center"),
    (sweep_at_ten({"name": "max_entangled",
                   "phases": {"kind": "linear", "coefficient": 1e308}}), "coefficient"),
    (sweep_at_ten({"name": "double_well", "gamma": 1e308}), "gamma"),
    (ground_state_config(1e308), "gamma"),
    (ground_state_config(-1.0), "gamma > -1"),
], ids=["sigma-1e-300", "sigma-1e-160", "sigma-1e200", "beta-400", "center-1e300",
        "phase-coefficient-1e308", "double-well-gamma-1e308", "ground-state-gamma-1e308",
        "ground-state-gamma-minus-1"])
def test_extreme_parameters_exit_2_under_any_warning_filter(tmp_path, capsys, cfg, key):
    # the exit code must not depend on whether a numpy warning is an error
    path = write_config(tmp_path, cfg)
    for action in ("always", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            rc = main([cfg["kind"], "--config", path, "--format", "json"])
        out, err = capsys.readouterr()
        assert (rc, out, [str(w.message) for w in caught]) == (2, "", []), (action, err)
        assert err.startswith("config error:") and key in err, err
        assert len(err.strip().splitlines()) == 1
