import pytest

from spinnet import sweep
from spinnet.config import SweepConfig
from spinnet.sweep import run_cells, sweep_cells


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, starts nothing."""

    sizes: list[int] = []

    def __init__(self, processes):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, cells, chunksize=1):
        return map(fn, cells)


def clean_cells(count):
    grid = SweepConfig(sizes=tuple(range(4, 4 + 2 * count, 2)), axis="n",
                       e_values=(0.0,), kinds=("diagonal",), realizations=2)
    return sweep_cells("router", {}, grid, 1)


@pytest.mark.parametrize("cores, cells, workers, expected", [
    (2, 3, 10000, [2]),  # bounded by the cores
    (8, 3, 10000, [3]),  # bounded by the cells
    (8, 3, 2, [2]),      # as requested
    (8, 1, 10000, []),   # one cell runs in-process
])
def test_pool_size_is_clamped(monkeypatch, capsys, cores, cells, workers, expected):
    RecordingPool.sizes = []
    monkeypatch.setattr(sweep.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cores)
    rows = run_cells(clean_cells(cells), workers=workers)
    assert RecordingPool.sizes == expected
    assert [row["mean"] for row in rows] == pytest.approx([1.0] * cells, abs=1e-9)
    err = capsys.readouterr().err
    clamped = min(workers, cells, cores)
    if clamped < workers:
        assert err.count(f"using {clamped} of {workers} requested worker processes") == 1
    else:
        assert err == ""
