"""tools/code_lines.py, run as a script on a small synthetic package, and
a static check that every private helper of the package has a reader."""
import ast
import json
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# nine code lines: the import, both defs, the class line, both lines of
# the multi-line string that is code and both lines of the split return
_MODULE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    text = """a multi-line
string that is code"""
    return x + len(text)


class C:
    """Class docstring
    on two lines."""

    def g(self):
        return (1,
                2)
'''


def test_script_counts_code_lines(tmp_path):
    (tmp_path / "mod.py").write_text(_MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "__init__.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    out = subprocess.run([sys.executable, str(_PATH), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {
        "dir": str(tmp_path), "modules": {"mod.py": 9, "sub/__init__.py": 0},
        "total": 9}


def test_script_rejects_a_file(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_MODULE)
    out = subprocess.run([sys.executable, str(_PATH), str(path)],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "is not a directory" in out.stderr


_ROOT = Path(__file__).resolve().parents[1]


def _references(tree) -> list:
    """(name, (line, column)) of every name a module reads: each ast.Name,
    ast.Attribute and import alias."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, (node.lineno, node.col_offset)))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, (node.end_lineno, node.end_col_offset)))
        elif isinstance(node, ast.alias):
            for name in (node.name.split(".")[-1], node.asname):
                if name:
                    refs.append((name, (node.lineno, node.col_offset)))
    return refs


def test_every_private_helper_has_a_reader():
    """Every `_`-prefixed function, method or class defined in src/sspolicy
    is named outside its own definition, in src/sspolicy, tools or bench."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for folder in ("src/sspolicy", "tools", "bench")
               for path in sorted((_ROOT / folder).rglob("*.py"))}
    refs = {path: _references(tree) for path, tree in modules.items()}
    unread = []
    for path, tree in modules.items():
        if _ROOT / "src" / "sspolicy" not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__")
                                             and name.endswith("__")):
                continue
            body = ((node.lineno, node.col_offset),
                    (node.end_lineno, node.end_col_offset))
            if not any(ref == name and (other != path
                                        or not body[0] <= at <= body[1])
                       for other, found in refs.items() for ref, at in found):
                unread.append(f"{path.relative_to(_ROOT)}:{node.lineno} {name}")
    assert not unread, unread
