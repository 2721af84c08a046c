"""The checked-in grid record (tests/grid.py) against a fresh run of its small cells."""

import json

import grid


def test_small_cells_match_the_record():
    # the q^n <= 16 cells, 71 of them, pruned and plain; CI regenerates all 164
    text = grid.RECORD.read_text()
    stored = json.loads(text)
    assert grid.dump(stored) == text
    assert len(stored) == 2 * 164
    small = [row for row in stored if row["q"] ** row["n"] <= 16]
    assert len(small) == 2 * 71
    assert grid.records(16) == small
