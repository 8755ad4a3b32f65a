"""Write or check the bundled table of minimax partition boundaries.

    python3 tools/minimax_table.py --check
    python3 tools/minimax_table.py --write

`sspolicy.loss` reads the minimax partitions of 2..40 cells from
src/sspolicy/data/minimax_boundaries.json instead of searching for them in
every process. Both modes run `sspolicy.loss.search_minimax_boundaries`, a
Nelder-Mead search, for each of those counts (about 90 s on a 2-core Xeon)
on this checkout's sources.

--write writes the file: each count's interior boundaries in float hex,
with the numpy and scipy releases the search ran under. --check compares
every count in the file with the search, bit for bit, prints one JSON line
with the counts checked, those that differ and those whose search did not
converge, and exits 1 if any differs or failed. --write writes nothing and
exits 1, naming the count in its JSON line, if a search does not converge.
The table was written under numpy 2.4.6 and scipy 1.17.1, the releases the
repository's bit-level goldens are pinned to; under other releases the
search may land on other bits.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sspolicy.loss import (MINIMAX_TABLE, MinimaxSearchError,  # noqa: E402
                           search_minimax_boundaries)

TABLE = ROOT / "src" / "sspolicy" / "data" / MINIMAX_TABLE
COUNTS = range(2, 41)


def searched(n_cells: int) -> list:
    """The search's boundaries of `n_cells` cells in float hex."""
    return [float(b).hex() for b in search_minimax_boundaries(n_cells)]


def render(counts) -> str:
    """The table file's text, one line per cell count."""
    rows = ",\n".join(f'    "{n}": {json.dumps(searched(n))}' for n in counts)
    return (
        "{\n"
        '  "about": "interior boundaries of the minimax partition of the '
        'standard normal by cell count, in float hex; written by '
        'tools/minimax_table.py from sspolicy.loss.search_minimax_boundaries",\n'
        f'  "numpy": "{np.__version__}",\n'
        f'  "scipy": "{scipy.__version__}",\n'
        f'  "boundaries": {{\n{rows}\n  }}\n'
        "}\n")


def compare(boundaries: dict) -> tuple:
    """(differ, failed): the cell counts, as ints, whose tabulated
    boundaries differ from the search's in any bit, and {count: message}
    of those whose search did not converge."""
    differ, failed = [], {}
    for n, values in boundaries.items():
        try:
            if searched(int(n)) != values:
                differ.append(int(n))
        except MinimaxSearchError as exc:
            failed[int(n)] = str(exc)
    return differ, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute every tabulated count; exit 1 on a difference")
    mode.add_argument("--write", action="store_true",
                      help=f"rewrite the table for {COUNTS.start}..{COUNTS.stop - 1} cells")
    args = p.parse_args(argv)
    start = time.perf_counter()
    if args.write:
        try:
            text = render(COUNTS)
        except MinimaxSearchError as exc:
            print(json.dumps({"written": None, "failed": str(exc)}))
            return 1
        TABLE.write_text(text, encoding="utf-8")
        print(json.dumps({"written": str(TABLE.relative_to(ROOT)),
                          "counts": len(COUNTS),
                          "seconds": round(time.perf_counter() - start, 1)}))
        return 0
    record = json.loads(TABLE.read_text(encoding="utf-8"))
    bad, failed = compare(record["boundaries"])
    print(json.dumps({"checked": len(record["boundaries"]), "differ": bad,
                      "failed": failed,
                      "numpy": np.__version__, "scipy": scipy.__version__,
                      "table_numpy": record["numpy"], "table_scipy": record["scipy"],
                      "seconds": round(time.perf_counter() - start, 1)}))
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())
