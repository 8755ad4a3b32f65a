"""tools/code_lines.py, run as a script on a small synthetic package."""
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
