import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspolicy.domain import (
    CostParameters, Instance, NormalDemand, PolicyParameters,
    ValidationError, make_instance, read_instance, validate, write_instance,
)
from sspolicy.sdp import solve_sdp
from sspolicy.testbed import BenchmarkConfig, build_instances


def example4() -> Instance:
    """The 4-period worked example: K=100, h=1, b=10, c=0, cv=0.25."""
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25, name="example4")


def test_worked_example_is_valid():
    inst = example4()
    assert validate(inst) is inst
    assert inst.horizon == 4
    assert inst.std_devs == (5.0, 10.0, 15.0, 10.0)


def test_empty_horizon_rejected():
    inst = Instance(costs=CostParameters(100, 0, 1, 10), demands=())
    with pytest.raises(ValidationError, match="empty horizon"):
        validate(inst)


def test_negative_std_dev_rejected():
    inst = Instance(
        costs=CostParameters(100, 0, 1, 10),
        demands=(NormalDemand(20, 5), NormalDemand(40, -1.0)),
    )
    with pytest.raises(ValidationError, match="negative std_dev in period 2"):
        validate(inst)


@pytest.mark.parametrize("field,value,msg", [
    ("K", -1, "fixed ordering"),
    ("h", 0, "holding"),
    ("b", -2, "penalty"),
    ("c", -0.5, "unit cost"),
])
def test_cost_invariants(field, value, msg):
    kwargs = dict(horizon=1, K=10, h=1, b=5, c=0, means=[3], std_devs=[1])
    kwargs[field] = value
    with pytest.raises(ValidationError, match=msg):
        make_instance(**kwargs)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field,msg", [
    ("K", "non-finite fixed ordering cost K"),
    ("c", "non-finite unit cost c"),
    ("h", "non-finite holding cost h"),
    ("b", "non-finite penalty cost b"),
    ("means", "non-finite mean demand in period 2"),
    ("std_devs", "non-finite std_dev in period 2"),
], ids=["K", "c", "h", "b", "mean", "std_dev"])
def test_non_finite_values_named(field, msg, value):
    """A non-finite value is reported as non-finite, not as negative."""
    kwargs = dict(horizon=2, K=10, h=1, b=5, c=0, means=[3, 4], std_devs=[1, 1])
    if field in ("means", "std_devs"):
        kwargs[field] = [kwargs[field][0], value]
    else:
        kwargs[field] = value
    with pytest.raises(ValidationError, match=f"^{msg} ?[=:] {value}$"):
        make_instance(**kwargs)


def test_unit_cost_at_penalty_rejected():
    """h8-STA-K200-b20-cv0.1 with c = 20: ordering never pays in the last
    period, so its reorder point is -inf and no SDP grid can hold it. The
    instance is rejected by name before any solver runs."""
    (inst,) = build_instances(BenchmarkConfig(
        patterns=("STA",), fixed_costs=(200.0,), penalty_costs=(20.0,),
        cvs=(0.1,), unit_cost=20.0))
    assert inst.name == "h8-STA-K200-b20-cv0.1"
    msg = ("unit cost c = 20.0 is not below penalty b = 20.0: "
           "the last period would never order")
    with pytest.raises(ValidationError, match=msg):
        validate(inst)
    with pytest.raises(ValidationError, match=msg):
        solve_sdp(inst)
    below = dataclasses.replace(
        inst, costs=dataclasses.replace(inst.costs, unit=19.5))
    assert validate(below) is below


def test_never_order_depth():
    """K/(b - c), the never-order band's depth that the SDP grid, the
    model's level bounds and the bisection's bracket all read; at c = 0
    it is K/b bit for bit."""
    assert CostParameters(fixed=100.0, penalty=10.0).never_order_depth == 100.0 / 10.0
    assert CostParameters(fixed=5.0, unit=0.9, penalty=1.0).never_order_depth \
        == 5.0 / (1.0 - 0.9)


def test_validate_idempotent():
    inst = example4()
    assert validate(validate(inst)) == inst


def test_policy_requires_s_below_S():
    with pytest.raises(ValidationError, match="s_2"):
        PolicyParameters(reorder_points=(1.0, 5.0), order_up_to_levels=(2.0, 4.0))
    pol = PolicyParameters(reorder_points=(1.0, 3.0), order_up_to_levels=(2.0, 4.0))
    assert pol.pair(2) == (3.0, 4.0)


@pytest.mark.parametrize("ss,big_ss,msg", [
    ((math.nan, 5.0), (20.0, 30.0), "reorder point s_1 is NaN"),
    ((0.0, 5.0), (20.0, math.nan), "order-up-to level S_2 = nan is not finite"),
    ((0.0, 5.0), (math.inf, 30.0), "order-up-to level S_1 = inf is not finite"),
    ((0.0, -math.inf), (20.0, -math.inf),
     "order-up-to level S_2 = -inf is not finite"),
], ids=["nan-s", "nan-S", "inf-S", "minus-inf-S"])
def test_policy_rejects_non_finite(ss, big_ss, msg):
    """A NaN s_t would never order without a word, and a non-finite S_t
    makes every simulated cost NaN."""
    with pytest.raises(ValidationError, match=msg):
        PolicyParameters(reorder_points=ss, order_up_to_levels=big_ss)


def test_policy_allows_never_order():
    pol = PolicyParameters(reorder_points=(-math.inf, 5.0),
                           order_up_to_levels=(20.0, 30.0))
    assert pol.pair(1) == (-math.inf, 20.0)


def test_round_trip_worked_example(tmp_path):
    path = tmp_path / "example4.json"
    write_instance(example4(), path)
    inst = read_instance(path)
    assert inst.horizon == 4
    assert inst == example4()
    # write(read(f)) == read(f)
    path2 = tmp_path / "copy.json"
    write_instance(inst, path2)
    assert read_instance(path2) == inst


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ValidationError, match="empty file"):
        read_instance(path)


def test_read_version_mismatch(tmp_path):
    path = tmp_path / "v9.json"
    doc = {"version": 9, "horizon": 1, "K": 1, "c": 0, "h": 1, "b": 1,
           "initial_inventory": 0, "demand_means": [1], "demand_std_devs": [0]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="schema-version mismatch"):
        read_instance(path)


def test_read_reports_parse_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "horizon": }')
    with pytest.raises(ValidationError, match="line 2"):
        read_instance(path)


@pytest.mark.parametrize("field, value, message", [
    ("horizon", 2.7, "horizon must be an integer, got 2.7"),
    ("horizon", True, "horizon must be an integer, got True"),
    ("horizon", "3", "horizon must be an integer, got '3'"),
    ("K", True, "K must be a number, got True"),
    ("K", "5", "K must be a number, got '5'"),
    ("c", None, "c must be a number, got None"),
    ("h", [1], "h must be a number, got [1]"),
    ("b", False, "b must be a number, got False"),
    ("initial_inventory", "0", "initial_inventory must be a number, got '0'"),
    ("demand_means", "123", "demand_means must be a list of numbers, got '123'"),
    ("demand_means", [1, "2", 3], "demand_means must be a list of numbers"),
    ("demand_means", [1, True, 3], "demand_means must be a list of numbers"),
    ("demand_std_devs", {"0": 1}, "demand_std_devs must be a list of numbers"),
    ("demand_std_devs", [0, 0, None], "demand_std_devs must be a list of numbers"),
])
def test_read_rejects_malformed_fields(tmp_path, field, value, message):
    """Each field takes only its JSON type: no string, bool or truncated
    float runs as a number, and the error names the file and field."""
    path = tmp_path / "bad.json"
    doc = {"version": 1, "horizon": 3, "K": 100, "c": 0, "h": 1, "b": 10,
           "initial_inventory": 0, "demand_means": [1, 2, 3],
           "demand_std_devs": [0.5, 0.5, 0.5], field: value}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        read_instance(path)
    assert str(err.value).startswith(f"{path}: {message}")


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def _unit_below_penalty(draw):
    """(c, b) with 0 <= c < b, the range validate() accepts."""
    b = draw(st.floats(min_value=1e-6, max_value=1e4))
    return draw(st.floats(min_value=0.0, max_value=b, exclude_max=True)), b


@settings(max_examples=60, deadline=None)
@given(
    K=finite, cb=_unit_below_penalty(),
    h=st.floats(min_value=1e-6, max_value=1e4),
    i0=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    demands=st.lists(st.tuples(finite, finite), min_size=1, max_size=12),
)
def test_round_trip_lossless(tmp_path_factory, K, cb, h, i0, demands):
    c, b = cb
    inst = make_instance(horizon=len(demands), K=K, h=h, b=b, c=c,
                         means=[d[0] for d in demands],
                         std_devs=[d[1] for d in demands],
                         initial_inventory=i0)
    path = tmp_path_factory.mktemp("io") / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.costs == inst.costs
    assert back.demands == inst.demands
    assert math.isclose(back.initial_inventory, inst.initial_inventory, rel_tol=0, abs_tol=0) or \
        back.initial_inventory == inst.initial_inventory


def test_suffix_instance():
    inst = example4()
    suf = inst.suffix(3)
    assert suf.horizon == 2
    assert suf.means == (60.0, 40.0)
    with pytest.raises(ValueError):
        inst.suffix(5)
