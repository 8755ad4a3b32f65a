"""The opt-in full-grid workflow runs every test that skips without
SSPOLICY_FULL_BENCHMARK. The workflow is read as text and the tests'
skip markers from their source, so nothing is run or installed."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _opt_in_tests() -> list:
    """(file, name) of every test function whose decorators read
    SSPOLICY_FULL_BENCHMARK."""
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    "SSPOLICY_FULL_BENCHMARK" in ast.unparse(d)
                    for d in node.decorator_list):
                found.append((f"tests/{path.name}", node.name))
    return found


def test_full_grid_workflow_selects_every_opt_in_test():
    text = (ROOT / ".github/workflows/full-grid.yml").read_text(encoding="utf-8")
    run = next(line for line in text.splitlines()
               if "pytest" in line and " -k " in line)
    files = set(re.findall(r"tests/\w+\.py", run))
    words = re.search(r'-k "([^"]*)"', run).group(1).split(" or ")
    assert all(re.fullmatch(r"\w+", w) for w in words), words  # "a or b" only
    header = "\n".join(line for line in text.splitlines() if line.startswith("#"))
    opt_in = _opt_in_tests()
    assert len(opt_in) >= 12
    for path, name in opt_in:
        assert path in files, (path, name)
        assert any(w in name for w in words), name
        assert name.removeprefix("test_") in header, name
