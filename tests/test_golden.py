"""Sample-config outputs against recorded ones.

`tests/golden/<config>.json` holds the `--format json` output of each
`configs/<config>.json`.  Current output must match it exactly, except that
floats may move by 1e-14 relative, so a change meant to keep the numbers
shows every value it moves.  Regenerate a file only for an intended change
of output, and record the change.
"""

import json
import math
from pathlib import Path

import pytest

from telefock.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
FLOAT_REL_TOL = 1e-14


def assert_matches(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def test_every_sample_config_has_a_golden_output():
    assert [p.stem for p in CONFIGS] == sorted(
        p.stem for p in (ROOT / "tests" / "golden").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_sample_config_output_matches_golden(path, capsys):
    kind = json.loads(path.read_text())["kind"]
    assert main([kind, "--config", str(path), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((ROOT / "tests" / "golden" / f"{path.stem}.json").read_text())
    assert_matches(got, want)


@pytest.mark.parametrize("path", [p for p in CONFIGS
                                  if json.loads(p.read_text())["kind"] in ("sweep", "noise")],
                         ids=lambda p: p.stem)
def test_sample_config_csv_matches_golden(path, capsys):
    # CSV, the default format, holds the rows of the JSON output (a noise
    # config's threshold goes to stderr); %.17g writes 0.0 as "0", so each
    # cell is parsed as the type of the golden value it stands for
    kind = json.loads(path.read_text())["kind"]
    assert main([kind, "--config", str(path)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    golden = json.loads((ROOT / "tests" / "golden" / f"{path.stem}.json").read_text())
    want = golden if kind == "sweep" else golden["rows"]
    assert header.split(",") == list(want[0])
    got = [{key: type(value)(cell)
            for (key, value), cell in zip(row.items(), line.split(","), strict=True)}
           for row, line in zip(want, lines, strict=True)]
    assert_matches(got, want)
