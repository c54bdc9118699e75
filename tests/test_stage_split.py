"""A smoke run of tools/stage_split.py on a few det-large words."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "stage_split.py"
_SPEC = importlib.util.spec_from_file_location("stage_split", _PATH)
stage_split = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stage_split)


def run(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--words", "5", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_stage_split_times_every_stage_of_five_words():
    rounds = json.loads(run("--rounds", "2", "--json"))
    assert len(rounds) == 2
    for spent in rounds:
        assert list(spent) == list(stage_split.STAGES)
        assert all(seconds > 0 for seconds in spent.values())
    lines = run("--rounds", "1").splitlines()
    assert [line.split()[0] for line in lines[1:]] == [*stage_split.STAGES, "front", "total"]
    assert lines[-1].split()[-1] == "100.0%"
