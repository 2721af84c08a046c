"""The grid record: `find_minimum` on every small cell, pruned and plain.

A cell is (n, q, lo, hi) with 2 <= q <= 8, q^n <= 64 (n = 0 included) and
0 <= lo <= hi <= n: 164 cells.  Each is searched at `max_subsets` = 20000,
with orbit and slice pruning and without.  A record gives the minimum,
`lower`, `upper`, whether the search was conclusive, its rank tests and the
SHA-1 of the witness's (den, nums), in a fixed order and with no wall
times, so the files of two commits compare byte for byte.  A change that
moves a count or a witness shows up as a diff of `tests/data/grid.json`.

    PYTHONPATH=src python tests/grid.py    # rewrites tests/data/grid.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hammingsupport import SearchBudget, find_minimum

RECORD = Path(__file__).resolve().parent / "data" / "grid.json"
MAX_SIZE = 64
MAX_SUBSETS = 20000


def cells(max_size: int = MAX_SIZE):
    """Every (n, q, lo, hi) with 2 <= q <= 8, q^n <= max_size and 0 <= lo <= hi <= n, in order."""
    for q in range(2, 9):
        n = 0
        while q**n <= max_size:
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    yield n, q, lo, hi
            n += 1


def record(n: int, q: int, lo: int, hi: int, pruned: bool) -> dict:
    report = find_minimum(
        n, q, lo, hi, SearchBudget(max_subsets=MAX_SUBSETS, symmetry_pruning=pruned)
    )
    witness = None
    if report.witness is not None:
        text = json.dumps([report.witness.den, list(report.witness.nums)])
        witness = hashlib.sha1(text.encode()).hexdigest()
    return {
        "n": n, "q": q, "lo": lo, "hi": hi, "pruned": pruned,
        "minimum": report.minimum, "lower": report.lower, "upper": report.upper,
        "conclusive": report.conclusive, "rank_tests": report.subsets_examined,
        "witness_sha1": witness,
    }


def records(max_size: int = MAX_SIZE) -> list[dict]:
    return [record(*cell, pruned) for cell in cells(max_size) for pruned in (True, False)]


def dump(rows: list[dict]) -> str:
    """One record per line, so a moved pin is one changed line."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(dump(records()))
