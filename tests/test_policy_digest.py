"""tools/policy_digest.py, run as a script on two 8-period grid instances,
against the same digest computed in this process, and the digests of the
grids it is used on."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert record["oracle_sha256"] == policy_digest.oracle_digest(instances)
    assert record["segment_sha256"] == policy_digest.segment_digest(
        instances, config.heuristic_config())
    assert record["seconds"] >= 0.0


@pytest.mark.parametrize("horizon, unit_cost, every, sha256", [
    (8, 0.0, 1, "c7445335fadb56d134f775a4f50ad5d0acd45ddf2738f6da658f49aa208ab935"),
    (8, 1.5, 1, "940752fb5d8dbdfc7e532c1c1e9aeb3d91d68e07acd70b318b26461099411a90"),
    (25, 0.0, 10, "16e26e16fb7db0623affa2fab54e01b62e612e161774aa9251a8c81dc9944647"),
    (25, 1.5, 10, "c9bf70e10afaab7a7c7ab8a03712b11f8969bd9a6fef2f661ddaa72dc94fdf0d"),
], ids=["grid8", "grid8-c1.5", "grid25-every10", "grid25-c1.5"])
def test_grid_policy_bits(horizon, unit_cost, every, sha256):
    """The bs and mp policies and work counters of the full 8-period grid
    and of every 10th 25-period instance, at c = 0 and c = 1.5, bit for
    bit, as recorded with numpy 2.4.6 and scipy 1.17.1."""
    config = BenchmarkConfig(horizon=horizon, unit_cost=unit_cost)
    instances = build_instances(config)[::every]
    assert policy_digest.digest(instances, config.heuristic_config()) == sha256


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="bs and mp on all 270 25-period instances; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
def test_full_grid_policy_bits():
    """The bs and mp policies and work counters of every 25-period
    instance, bit for bit, as recorded with numpy 2.4.6 and scipy 1.17.1;
    test_grid_policy_bits pins only every 10th."""
    config = BenchmarkConfig(horizon=25)
    assert policy_digest.digest(build_instances(config), config.heuristic_config()) \
        == "aabc3ac7fc83e3fc8b2f71093a618a2c7ee91caa0c8448dca14c072135462dcf"


@pytest.mark.parametrize("horizon, unit_cost, every, sha256", [
    (8, 0.0, 1, "b6dedcf084fdb05b714f7e21975f9bed413828cba81618997ba6de2e684a3048"),
    (8, 1.5, 1, "7ebd49b1dbc1afe57a54fa3051f6c964ab9e9f1b1843cae8606dae22dabe9455"),
    (25, 0.0, 10, "9f269d7aca1132c7cbc243d2a8573cb4791eeb89109be51f070da22dd9ad6153"),
], ids=["grid8", "grid8-c1.5", "grid25-every10"])
def test_grid_oracle_bits(horizon, unit_cost, every, sha256):
    """The SDP oracle's policy, expected cost, demand atom counts and G and
    C tables on the same grids, bit for bit, as recorded with numpy 2.4.6
    and scipy 1.17.1 while the solution still stored its G tables;
    grid8-c1.5's G and C tables span default_grid's K/(b - c) deep
    never-order band, and its policies and costs equal those over the
    K/b band."""
    config = BenchmarkConfig(horizon=horizon, unit_cost=unit_cost)
    instances = build_instances(config)[::every]
    assert policy_digest.oracle_digest(instances) == sha256


@pytest.mark.parametrize("horizon, sha256", [
    (8, "746314232f684a8bb8f487fdc2148b0b9fadc336e69078a05b61f23ed0f63867"),
    (25, "7b2c85f866574ce2585be0dc4309fe01b3ec413cc3e25bb51ffee0e8b2eb0d23"),
], ids=["grid8-every10", "grid25-every10"])
def test_grid_segment_bits(horizon, sha256):
    """Every row array of the segments of every 10th instance (breakpoints,
    means, error bounds, slopes, lines and cuts at the grid's default
    partition), bit for bit, as recorded with numpy 2.4.6 and scipy 1.17.1
    from the per-piece segment data that the row record replaced."""
    config = BenchmarkConfig(horizon=horizon)
    instances = build_instances(config)[::10]
    assert policy_digest.segment_digest(
        instances, config.heuristic_config()) == sha256
