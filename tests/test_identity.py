"""tools/identity.py: a planted change in the package shows up in its comparison."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORIGINAL = "a[:, None] * g * a"
PLANTED = "a[:, None] * (g * a)"


@pytest.fixture
def identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_a_planted_reassociation_shows_in_the_report_and_the_trace(identity, tmp_path):
    planted = tmp_path / "planted" / "src"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    certify = planted / "medsolve" / "certify.py"
    text = certify.read_text()
    assert text.count(ORIGINAL) == 1  # the line to plant in is where this test expects it
    certify.write_text(text.replace(ORIGINAL, PLANTED))

    work = tmp_path / "inputs"
    work.mkdir()
    [problem] = [p for p in identity.inputs.batch_small(0) if p.name == "10-m5-gram"]
    path = identity.inputs.write(work / f"{problem.name}.json", problem.to_dict())
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([("solve", ["solve", str(path), *identity.SOLVE_FLAGS])]))
    here, there = tmp_path / "out-here", tmp_path / "out-planted"
    theirs = identity._child(ROOT / "src", work, here, ops)
    ours = identity._child(planted, work, there, ops)
    diffs = identity.compare(ours, theirs, there, here)

    assert "solve: 10-m5-gram-report.json bytes differ" in diffs
    assert "solve: 10-m5-gram-trace.csv bytes differ" in diffs
    deltas = {line.split(":")[0].strip() for line in diffs if line.startswith("    ")}
    assert {"first_residual", "final_residual", "log10_hs_residual"} <= deltas
