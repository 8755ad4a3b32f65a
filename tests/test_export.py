import pytest

from lp_support import parse_lp, solve_lp
from sspolicy.domain import make_instance
from sspolicy.export import export_lp, render_lp
from sspolicy.model import build_joint, build_minlp_s, build_minlp_S, build_segments
from sspolicy.solver import import_solution, solve_exact


@pytest.fixture(scope="module")
def example4():
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25)


@pytest.fixture(scope="module")
def segments4(example4):
    return build_segments(example4, segments=10, strategy="minimax")


def test_objective_sense_is_minimize(example4, segments4):
    text = render_lp(build_joint(example4, segments4))
    assert text.splitlines()[1] == "Minimize"


def test_reexport_byte_identical(example4, segments4, tmp_path):
    model = build_joint(example4, segments4)
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    export_lp(model, p1)
    export_lp(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_all_delta_fixed_is_pure_lp(example4):
    """A single-period no-order model has every binary structurally fixed."""
    inst = example4.suffix(4)
    segs = build_segments(inst, segments=10, strategy="minimax")
    model = build_minlp_s(inst, segs, initial_inventory=50.0)
    text = render_lp(model)
    assert "Binary" not in text
    obj_ext, _ = solve_lp(text)
    res = solve_exact(model)
    assert obj_ext == pytest.approx(res.objective, abs=1e-6)


@pytest.mark.parametrize("builder", [build_minlp_s, build_minlp_S, build_joint])
def test_external_solver_agrees(example4, segments4, builder):
    model = builder(example4, segments4)
    obj_ext, _ = solve_lp(render_lp(model))
    assert obj_ext == pytest.approx(solve_exact(model).objective, abs=1e-4)


def test_external_solver_agrees_with_unit_cost():
    """Unit cost exercises the objective constant carried by the ONE column."""
    inst = make_instance(horizon=3, K=60, h=1, b=8, c=1.5,
                         means=[15, 25, 10], cv=0.2)
    segs = build_segments(inst, segments=7)
    model = build_minlp_s(inst, segs)
    text = render_lp(model)
    assert " ONE " in text or " ONE\n" in text
    obj_ext, _ = solve_lp(text)
    assert obj_ext == pytest.approx(solve_exact(model).objective, abs=1e-4)


def test_external_solution_imports_cleanly(example4, segments4, tmp_path):
    """External optimum -> solution file -> import validates and agrees."""
    model = build_joint(example4, segments4)
    obj_ext, values = solve_lp(render_lp(model))
    path = tmp_path / "external.sol"
    with open(path, "w") as fh:
        for name, value in values.items():
            fh.write(f"{name} {value!r}\n")
    imported = import_solution(model, path)
    assert imported.objective == pytest.approx(obj_ext, abs=1e-6)
    assert imported.objective == pytest.approx(solve_exact(model).objective,
                                               abs=1e-4)


def test_parse_round_trip_structure(example4, segments4):
    model = build_minlp_s(example4, segments4)
    objective, rows, bounds, binaries = parse_lp(render_lp(model))
    # freely varying binaries: delta_2..4 and P_jt for t >= 2
    assert "delta_s_2" in binaries
    assert "delta_s_1" not in binaries          # fixed, substituted away
    assert any(n.startswith("I_s_") for n in bounds)
    assert len(rows) > 0
    assert objective["H_s_1"] == 1.0
    assert objective["B_s_3"] == 10.0


@pytest.mark.parametrize("build", [build_minlp_s, build_joint])
def test_zero_std_period_matches_external_solver(build):
    """A deterministic period exports with the partition's segment count,
    and HiGHS agrees with the in-repo optimum."""
    inst = make_instance(3, K=100, h=1, b=10, c=0, means=[20, 30, 0],
                         std_devs=[5, 7, 0])
    model = build(inst, build_segments(inst, segments=6))
    obj_ext, _ = solve_lp(render_lp(model))
    assert obj_ext == pytest.approx(solve_exact(model).objective, abs=1e-5)
