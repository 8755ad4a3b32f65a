"""Code lines of every Python module under a directory.

    python3 tools/code_lines.py src/sspolicy
    python3 tools/code_lines.py /path/to/other/checkout/src/sspolicy

A code line is a line that holds part of a token other than a comment, a
docstring or layout (newlines, indentation). Blank lines, comment lines
and docstrings do not count, and a line with code and a comment counts
once. A docstring is a string literal that forms a whole statement, as
the first statement of a module, class or function does; every line of a
multi-line string that is part of an expression counts. The lines are
read by the tokenize module, so the count does not depend on formatting
tools or on how a script splits lines.

It prints one JSON line: the directory, each module's count keyed by its
path relative to the directory (sorted), and the total.
"""
from __future__ import annotations

import argparse
import json
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# tokens after which a token opens a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path) -> int:
    """The number of code lines of one Python source file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring: a string that is a whole statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(directory) -> dict:
    """The JSON record of every *.py file under `directory`."""
    root = Path(directory)
    modules = {p.relative_to(root).as_posix(): code_lines(p)
               for p in sorted(root.rglob("*.py"))}
    return {"dir": str(directory), "modules": modules,
            "total": sum(modules.values())}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("directory")
    args = p.parse_args(argv)
    if not Path(args.directory).is_dir():
        p.error(f"{args.directory} is not a directory")
    print(json.dumps(count(args.directory)))


if __name__ == "__main__":
    main()
