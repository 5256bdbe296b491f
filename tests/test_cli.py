"""Command-line driver: subcommands, exit codes, determinism, performance."""

import json
import time

import numpy as np
import pytest

from telefock import cli, protocol, resources
from telefock.cli import main


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
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
