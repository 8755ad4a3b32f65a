"""tools/stage_times.py, run as a script on two 8-period grid instances."""
import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "stage_times.py"
_STAGES = {"sdp", "cycle_table", "free_minima", "bs", "mp", "pricing"}


def test_script_prints_stage_medians():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(_PATH), "--horizon", "8", "--every", "135",
         "--rounds", "3"],
        capture_output=True, text=True, check=True, env=env, cwd=_ROOT)
    record = json.loads(out.stdout)
    assert (record["horizon"], record["every"], record["instances"],
            record["rounds"]) == (8, 135, 2, 3)
    medians, rounds = record["ms_per_instance"], record["rounds_ms"]
    assert set(medians) == set(rounds) == _STAGES
    for stage, values in rounds.items():
        assert len(values) == 3 and all(v > 0.0 for v in values), stage
        assert medians[stage] == sorted(values)[1], stage
    assert record["total_ms"] > 0.0
    assert record["pricing_s_per_M_period_reps"] > 0.0
    assert record["seconds"] >= 0.0


def test_script_rejects_bad_counts():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    for flag in ("--every", "--rounds"):
        out = subprocess.run(
            [sys.executable, str(_PATH), "--horizon", "8", flag, "0"],
            capture_output=True, text=True, env=env, cwd=_ROOT)
        assert out.returncode == 2 and f"{flag} must be >= 1" in out.stderr
