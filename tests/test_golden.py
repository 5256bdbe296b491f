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
