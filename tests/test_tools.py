"""The scripts under tools/ run as their docstrings say."""

import csv
from io import StringIO

from conftest import rank_sweep
from ioclqr.identifiability import VERDICTS


def test_rank_sweep_writes_one_row_per_instance_and_grid_point(capsys):
    rank_sweep.main(["--seeds", "2"])
    header, *rows = list(csv.reader(StringIO(capsys.readouterr().out)))
    assert header == ["s", "n", "r", "N", "M", "verdict", "rank", "sv_ratio", "rounding",
                      "recovery", "bundle"]
    assert len(rows) == 2 * len(rank_sweep.GRID) == 8
    assert [(int(r[0]), int(r[3]), int(r[4])) for r in rows] == [
        (s, N, M) for s in range(2) for N, M in rank_sweep.GRID
    ]
    assert all(r[5] in VERDICTS and len(r[10]) == 12 for r in rows)
