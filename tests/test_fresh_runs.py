"""The fresh-process runner of `tests/fresh_runs.py`, on two small rows, and its table."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fresh_runs
from telefock import cli

# the runner alone in a small process, on a Gaussian sweep row at nu = 2^22
# and then the threshold sample, through the module rather than a console script
SMOKE = """
import json, sys
import fresh_runs
rows = [("Gaussian sweep row at nu = 2^22", "sweep", {**fresh_runs.SWEEP, "nu_grid": [2 ** 22],
         "resource": {"name": "gaussian", "beta": 0.75}}, 300),
        next(row for row in fresh_runs.ROWS if row[0] == "dephasing threshold sample")]
print(json.dumps(fresh_runs.run(rows, [sys.executable, "-m", "telefock.cli"])))
"""


def test_each_row_reads_the_peak_of_its_own_process():
    tests = Path(__file__).resolve().parent
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SMOKE], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": f"{tests}{os.pathsep}{src}"})
    assert proc.returncode == 0, proc.stderr
    (rc, _, gaussian_mb, failure), (rc2, _, threshold_mb, failure2) = json.loads(
        proc.stdout.splitlines()[-1])
    assert rc == rc2 == 0 and failure is failure2 is None, proc.stdout
    # a running maximum over all children, as RUSAGE_CHILDREN keeps, would not fall
    assert threshold_mb < gaussian_mb, proc.stdout


def test_every_row_config_loads_and_names_its_own_subcommand(tmp_path):
    golden = [config for _, _, config, bound in fresh_runs.ROWS if bound is None]
    assert golden == sorted((fresh_runs.ROOT / "configs").glob("*.json"))
    for i, (label, subcommand, config, _) in enumerate(fresh_runs.ROWS):
        if config is None:
            assert subcommand == "selftest", label
            continue
        if isinstance(config, dict):
            config = tmp_path / f"config{i}.json"
            config.write_text(json.dumps(fresh_runs.ROWS[i][2]))
        assert cli.load_config(str(config))["kind"] == subcommand, label
