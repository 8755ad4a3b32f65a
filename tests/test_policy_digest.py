"""tools/policy_digest.py, run as a script on two 8-period grid instances,
against the same digest computed in this process."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sspolicy.testbed import BenchmarkConfig, build_instances

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "policy_digest.py"
_SPEC = importlib.util.spec_from_file_location("policy_digest", _PATH)
policy_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(policy_digest)


def test_script_digest_matches_in_process():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(_PATH), "--horizon", "8", "--every", "135"],
        capture_output=True, text=True, check=True, env=env, cwd=_ROOT)
    record = json.loads(out.stdout)
    config = BenchmarkConfig(horizon=8)
    instances = build_instances(config)[::135]
    assert len(instances) == record["instances"] == 2
    assert (record["horizon"], record["every"], record["unit_cost"]) == (8, 135, 0.0)
    assert record["sha256"] == policy_digest.digest(
        instances, config.heuristic_config())
    assert record["seconds"] >= 0.0

