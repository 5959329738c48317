import dataclasses
import functools
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinnet import dynamics, linalg, sweep
from spinnet.config import MAX_OBSERVE_DURATIONS, ConfigError, PhaseScanConfig, SweepConfig
from spinnet.disorder import DisorderSpec, SeededRng, sample_disorder
from spinnet.dynamics import check_norms, propagate, replace_samples, run_schedule, schedule_kicks
from spinnet.linalg import InvariantViolation, chebyshev_evolve
from spinnet.network import mirror_time
from spinnet.observables import ensemble_average
from spinnet.protocols import (
    build_protocol,
    phase_probe_estimates,
    router_two_chain,
    unwrap_to_branch,
)
from spinnet.sweep import (
    angle_stats,
    ensemble_merit,
    fingerprint,
    phase_scan_cells,
    phase_scan_estimates,
    resolve_merit,
    run_cells,
    split_plan,
    sweep_cells,
    threshold_contour,
)

from test_protocols import ALL_PROTOCOLS

SEED = 20230724
KINDS = ("diagonal", "off_diagonal")


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size and the (cell,
    first, stop) of its parts, starts nothing, and runs the parts last first,
    so that a cut cell's parts come in out of order, each on a ``next(timeout)``
    as the pool's result iterator hands them out."""

    sizes: list[int] = []
    parts: list[tuple[int, int, int]] = []

    def __init__(self, processes, initializer=None, initargs=()):
        RecordingPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, parts, chunksize=1):
        RecordingPool.parts.extend((part.cell.index, part.first, part.stop) for part in parts)
        results = map(fn, reversed(parts))
        return types.SimpleNamespace(next=lambda timeout: next(results))


@pytest.fixture
def recording_pool(monkeypatch):
    """RecordingPool on a machine of 2 cores."""
    monkeypatch.setattr(sweep.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    RecordingPool.sizes, RecordingPool.parts = [], []
    return RecordingPool


def run_fresh(cells, workers=1):
    """:func:`run_cells` into a journal of its own, reporting no cell."""
    with tempfile.TemporaryDirectory() as out:
        return run_cells(cells, workers, os.path.join(out, "cells.jsonl"), lambda row, done: None)


def clean_cells(count):
    grid = SweepConfig(sizes=tuple(range(4, 4 + 2 * count, 2)), axis="n",
                       e_values=(0.0,), kinds=("diagonal",), realizations=2)
    return sweep_cells("router", {}, grid, 1)


def clean_phase_scan_cells(count):
    scan = PhaseScanConfig(n=4, thetas_deg=(0.0, 90.0), settings=(DisorderSpec(),) * count,
                           realizations=2)
    return phase_scan_cells(scan, 1)


@pytest.mark.parametrize("cores, cells, workers, expected", [
    (2, 3, 10000, [2]),  # bounded by the cores
    (8, 3, 10000, [3]),  # bounded by the cells
    (8, 3, 2, [2]),      # as requested
    (8, 1, 10000, []),   # one cell runs in-process
])
def test_pool_size_is_clamped(monkeypatch, capsys, cores, cells, workers, expected):
    monkeypatch.setattr(sweep.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cores)
    clamped = min(workers, cells, cores)
    for make_cells in (clean_cells, clean_phase_scan_cells):  # one pool for both kinds
        RecordingPool.sizes = []
        rows = run_fresh(make_cells(cells), workers=workers)
        assert RecordingPool.sizes == expected
        assert [row["index"] for row in rows] == list(range(cells))
        if make_cells is clean_cells:
            assert [row["mean"] for row in rows] == pytest.approx([1.0] * cells, abs=1e-9)
        else:
            for row in rows:
                means = [mean for mean, _, _ in row["stats"]]
                assert means == pytest.approx([0.0, 90.0], abs=1e-6)
        err = capsys.readouterr().err
        if clamped < workers:
            assert err.count(f"using {clamped} of {workers} requested worker processes") == 1
        else:
            assert err == ""


def disordered_cells(count, k=8):
    grid = SweepConfig(sizes=tuple(range(4, 4 + 2 * count, 2)), axis="n",
                       e_values=(0.1,), kinds=("diagonal",), realizations=k)
    return sweep_cells("router", {}, grid, 1)


def disordered_phase_scan_cells(count, k=8):
    scan = PhaseScanConfig(n=4, thetas_deg=(0.0, 90.0), realizations=k,
                           settings=(DisorderSpec("off_diagonal", 0.1),) * count)
    return phase_scan_cells(scan, 1)


def mixed_cells():
    """Clean and disordered cells of 8 realizations at N = 4 and 6."""
    grid = SweepConfig(sizes=(4, 6), axis="n", e_values=(0.0, 0.1), kinds=("diagonal",),
                       realizations=8)
    return sweep_cells("router", {}, grid, 1)


def mixed_phase_scan_cells():
    """A clean setting and two disordered ones, as the benchmark's phase scan."""
    scan = PhaseScanConfig(n=4, thetas_deg=(0.0, 90.0), realizations=8, settings=(
        DisorderSpec(), DisorderSpec("diagonal", 0.05), DisorderSpec("off_diagonal", 0.1)))
    return phase_scan_cells(scan, 1)


@pytest.mark.parametrize("make_cells, parts", [
    # R = 8 realizations, 2P = 4 parts of at most 2
    pytest.param(functools.partial(disordered_cells, 1),
                 [(0, 0, 2), (0, 2, 4), (0, 4, 6), (0, 6, 8)], id="disordered_cells"),
    pytest.param(functools.partial(disordered_phase_scan_cells, 1),
                 [(0, 0, 2), (0, 2, 4), (0, 4, 6), (0, 6, 8)], id="disordered_phase_scan_cells"),
    # whole and cut parts in one pool: a clean cell computes 1 realization, so
    # R = 18 (sweep) and 17 (phase scan), parts of at most 5, and each
    # disordered cell comes back as two parts of 4
    pytest.param(mixed_cells, [(0, 0, 8), (1, 0, 4), (1, 4, 8), (2, 0, 8), (3, 0, 4), (3, 4, 8)],
                 id="mixed_cells"),
    pytest.param(mixed_phase_scan_cells, [(0, 0, 1), (1, 0, 4), (1, 4, 8), (2, 0, 4), (2, 4, 8)],
                 id="mixed_phase_scan_cells"),
])
def test_one_disordered_cell_is_split_over_the_pool(recording_pool, make_cells, parts):
    """Rows on a pool equal the rows in process, whether a cell runs whole or
    cut, and its parts come in out of order."""
    cells = make_cells()
    in_process = run_fresh(cells, workers=1)
    assert recording_pool.sizes == []
    pooled = run_fresh(cells, workers=2)
    assert recording_pool.sizes == [2]
    assert recording_pool.parts == parts
    assert json.dumps(pooled) == json.dumps(in_process)


def test_cells_are_cut_by_the_summed_load():
    scan = PhaseScanConfig(n=50, thetas_deg=(0.0,), realizations=1000, settings=(
        DisorderSpec(), DisorderSpec("diagonal", 0.05), DisorderSpec("off_diagonal", 0.1)))

    def parts(cells, processes):
        return [(part.cell.index, part.first, part.stop)
                for part in sweep.split_cells(cells, processes)]

    cells = phase_scan_cells(scan, SEED)  # the benchmark's phase scan
    # R = 2001 on 2 processes: parts of at most 501, so two of 500 per disordered setting
    assert parts(cells, 2) == [(0, 0, 1), (1, 0, 500), (1, 500, 1000),
                               (2, 0, 500), (2, 500, 1000)]
    assert parts(cells, 1) == [(0, 0, 1), (1, 0, 1000), (2, 0, 1000)]
    # equal to one realization: 1000 in parts of at most 334 (R = 2001 on 3)
    assert parts(cells[1:2], 1) == [(1, 0, 1000)]
    assert parts(cells, 3)[1:4] == [(1, 0, 333), (1, 333, 666), (1, 666, 1000)]
    # set-up runs (K = 1) are never cut, nor a clean sweep cell of K realizations
    assert parts(phase_scan_cells(dataclasses.replace(scan, realizations=1), SEED), 2) == [
        (0, 0, 1), (1, 0, 1), (2, 0, 1)]
    small = SweepConfig(sizes=(4, 6, 8, 10, 12, 14), axis="n", e_values=(0.0, 0.1, 0.2),
                        kinds=KINDS, realizations=1000)  # the benchmark's sweep-small
    cells = sweep_cells("ent-phase", {}, small, SEED)
    assert parts(cells, 2) == [(cell.index, 0, 1000) for cell in cells]
    assert parts([], 2) == []


def test_a_cut_cell_is_journaled_once_after_its_last_part(recording_pool, monkeypatch, tmp_path):
    cells = disordered_cells(3)  # R = 24 on 2 cores: two parts of 4 per cell
    expected = run_fresh(cells)
    finished = []
    run_cell, write = sweep.run_cell, sweep._write_checkpoint

    def counting(part):
        finished.append(part.cell.index)
        return run_cell(part)

    def spy(journal, row):
        written.append((row["index"], finished.count(row["index"])))
        write(journal, row)

    monkeypatch.setattr(sweep, "run_cell", counting)
    monkeypatch.setattr(sweep, "_write_checkpoint", spy)
    journal = tmp_path / "sweep.jsonl"
    written = []
    rows = run_cells(cells, 2, str(journal), lambda row, done: None)
    assert recording_pool.parts == [(c, first, first + 4) for c in range(3) for first in (0, 4)]
    assert written == [(2, 2), (1, 2), (0, 2)]  # each once, after both its parts
    assert json.dumps(rows) == json.dumps(expected)
    lines = journal.read_text().splitlines(keepends=True)
    assert [json.loads(line)["index"] for line in lines] == [2, 1, 0]

    # resumed without cell 1's line: only cell 1's parts run, now four of 2
    journal.write_text(lines[0] + lines[2])
    recording_pool.parts, finished[:], written = [], [], []
    resumed = run_cells(cells, 2, str(journal), lambda row, done: None)
    assert json.dumps(resumed, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert recording_pool.parts == [(1, 0, 2), (1, 2, 4), (1, 4, 6), (1, 6, 8)]
    assert finished == [1] * 4 and written == [(1, 4)]


def test_a_journal_that_cannot_be_appended_to_is_a_config_error(tmp_path):
    (tmp_path / "file").write_text("")
    journal = tmp_path / "file" / "sweep.jsonl"  # not a directory: no journal to read
    with pytest.raises(ConfigError, match=f"cannot use journal {re.escape(str(journal))}"):
        run_cells(clean_cells(1), 1, str(journal), lambda row, done: None)


# a value with the spelling every table has always given it: 12 significant
# digits for a float, numpy's float64 included, and str() for anything else
SPELLED_VALUES = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters=",\r\n"))
    .map(lambda v: (v, f"{v}")),
    st.integers(-2**63, 2**63).map(lambda v: (v, f"{v}")),
    st.floats().map(lambda v: (v, f"{v:.12g}")),
    st.floats().map(lambda v: (np.float64(v), f"{v:.12g}")),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(SPELLED_VALUES, min_size=1, max_size=6), max_size=5))
@example(rows=[[(10**12 + 1, "1000000000001"), (np.float64(1 / 3), "0.333333333333")]])
def test_write_csv_spells_floats_to_12_digits_and_the_rest_in_full(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("table")
    sweep.write_csv(str(out), "table.csv", ["a", "b"], ([v for v, _ in row] for row in rows))
    with open(out / "table.csv", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    assert lines == ["a,b", *(",".join(spelled for _, spelled in row) for row in rows), ""]
    assert os.listdir(out) == ["table.csv"]


PART_K = 30  # realizations of a cut cell: blocks of 12, dense stacks of 4 under PART_BLOCK
PART_BLOCK = 144


@functools.cache
def part_cell(cell_type, kind):
    if cell_type == "sweep":
        grid = SweepConfig(sizes=(6,), axis="n", e_values=(0.2,), kinds=(kind,),
                           realizations=PART_K)
        return sweep_cells("router", {}, grid, SEED)[0]
    scan = PhaseScanConfig(n=6, thetas_deg=(0.0, 135.0, 315.0), realizations=PART_K,
                           settings=(DisorderSpec(kind, 0.2),))
    return phase_scan_cells(scan, SEED)[0]


@functools.cache
def whole_row(cell_type, kind):
    cell = part_cell(cell_type, kind)
    with mock.patch.object(sweep, "BLOCK_ENTRIES", PART_BLOCK):
        return json.dumps(cell.row(cell.values(0, PART_K)))


@settings(max_examples=60, deadline=None)  # under 1 s
@given(cell_type=st.sampled_from(["sweep", "phase-scan"]), kind=st.sampled_from(KINDS),
       cuts=st.sets(st.integers(1, PART_K - 1)))
@example(cell_type="sweep", kind="diagonal", cuts=set(range(1, PART_K)))
@example(cell_type="phase-scan", kind="off_diagonal", cuts=set(range(1, PART_K)))
@example(cell_type="phase-scan", kind="diagonal", cuts={5, 6, 13, 24})
def test_a_cell_cut_anywhere_gives_the_row_of_the_whole_cell(cell_type, kind, cuts):
    """The parent's array of a cut cell holds the values of the whole cell,
    bit for bit, whatever its parts' blocks and stacks; single-realization
    parts included."""
    cell = part_cell(cell_type, kind)
    bounds = [0, *sorted(cuts), PART_K]
    with mock.patch.object(sweep, "BLOCK_ENTRIES", PART_BLOCK):
        values = np.concatenate([cell.values(first, stop)
                                 for first, stop in zip(bounds, bounds[1:])], axis=-1)
    assert json.dumps(cell.row(values)) == whole_row(cell_type, kind)


FAULT_PROBE = """
import json, resource
from spinnet import linalg, sweep
thetas = tuple(float(t) for t in range(0, 360, 15))
cells = {
    "phase-scan": sweep.PhaseScanCell(2, 50, thetas, "off_diagonal", 0.1, 1000, 20230724, 2000),
    "sweep-large": sweep.SweepCell(0, 140, 0.1, "diagonal", "router", {"n": 140}, "n", 1000,
                                   20230724, 0, "auto", None, None),
}
faults = {"kept": linalg.keep_heap()}  # the call run_cell makes, cached
for name, cell in cells.items():
    part = sweep.Part(cell, 0, cell.realizations)
    sweep.run_cell(part)  # the warm-up grows the heap to what the cell needs
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep.run_cell(part)
    faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_a_warm_cell_keeps_its_pages():
    """run_cell keeps freed block arrays on the heap: run again, a benchmark
    cell faults in few pages (about 45,000 and 4,700 with glibc's default
    thresholds). A fresh interpreter, as the pytest process's own heap is
    not the CLI's."""
    faults = json.loads(fresh_interpreter(FAULT_PROBE))
    assert faults["kept"] is True
    assert faults["phase-scan"] < 1000, faults
    assert faults["sweep-large"] < 200, faults


def fresh_interpreter(code, *args):
    """The last line that ``code`` prints, run with ``args`` in a new
    interpreter on this package and one BLAS thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sweep.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return run.stdout.splitlines()[-1]


PEAK_PROBE = """
import resource, sys
from spinnet import linalg, sweep
from spinnet.disorder import DisorderSpec
linalg.keep_heap()  # as run_cell
thetas = tuple(float(t) for t in range(360))
estimates = sweep.phase_scan_estimates(4, thetas, DisorderSpec("diagonal", 0.1),
                                       int(sys.argv[1]), 20230724)
sweep.angle_stats(estimates)  # as a setting's row
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_phase_scan_keeps_about_8_bytes_per_estimate():
    """Estimates go from their probe straight into one float64 array: peak
    memory grows by about 8 bytes per estimate, not the 40 or so of a Python
    float in a list. Both K are whole draw blocks at N = 4, so the
    transients of a block cancel from the difference."""
    block = sweep.BLOCK_ENTRIES // (2 * 4)  # 2048 devices
    low, high = (int(fresh_interpreter(PEAK_PROBE, k)) * 1024 for k in (block, 3 * block))
    per_estimate = (high - low) / (2 * block * 360)
    assert per_estimate <= 10.0, per_estimate


# --- block engine ---------------------------------------------------------------

def loop_reference(result, spec, k, base, merit):
    """One realization at a time through run_schedule and a one-row merit.values."""
    graph = result.graph()
    protocol = replace_samples(result.protocol, (merit.time,))
    return [
        merit.values(run_schedule(sample_disorder(graph, spec, SeededRng(SEED, base + j)),
                                  protocol).states[0].amplitudes[np.newaxis])[0]
        for j in range(k)
    ]


def engine_cases():
    for result in ALL_PROTOCOLS:
        yield f"{result.name}-{result.network.n_sites}", result, result.merit
    router = router_two_chain(8)
    yield "router-8-observe-t_m", router, resolve_merit(router, observe="t_m")
    yield "router-8-observe-before-the-kick", router, resolve_merit(router, observe="t_m/2")
    yield "router-8-eof", router, resolve_merit(router, "eof", (1, 8))
    ent = build_protocol("ent-phase", {"n": 10})
    yield "ent-phase-10-fidelity-observe", ent, resolve_merit(ent, "fidelity", observe="3*t_m/2")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", list(engine_cases()), ids=lambda case: case[0])
def test_engine_matches_the_loop_reference(case, kind):
    _, result, merit = case
    spec = DisorderSpec(kind, 0.15)
    reference = loop_reference(result, spec, 6, 40, merit)
    merits = ensemble_merit(result, spec, 6, SEED, stream_base=40, merit=merit)
    assert merits.shape == (6,) and merits.dtype == np.float64
    assert np.max(np.abs(merits - reference)) <= 1e-12


@pytest.mark.parametrize("name, params, durations_in_t_m", [
    ("router", {"n": 12}, 2), ("router", {"m": 3}, 3), ("ent-center", {"n": 4}, 2),
    ("mws", {"chain_length": 3}, 1),
    ("router", {"m": 9}, 9),  # 900*t_m is one ulp above 100 * (9*t_m)
])
def test_observe_is_bounded_by_the_protocol_duration(name, params, durations_in_t_m):
    result = build_protocol(name, params)
    bound = MAX_OBSERVE_DURATIONS * durations_in_t_m
    merit = resolve_merit(result, observe=f"{bound}*t_m")
    assert merit.time == pytest.approx(MAX_OBSERVE_DURATIONS * result.protocol.duration, rel=1e-15)
    with pytest.raises(ConfigError, match=f"past {MAX_OBSERVE_DURATIONS} times"):
        resolve_merit(result, observe=f"{bound}.001*t_m")


# --- the split: only the amplitudes a merit reads -----------------------------------

def plan_of(result, merit):
    """The cell's split_plan, whether or not it saves work."""
    start, kicks = schedule_kicks(result.protocol, result.network.n_sites)
    return split_plan(start, [kick for kick in kicks if kick[0] <= merit.time], merit.time,
                      merit.sites)


# the protocols whose split needs at most one phi series of its own
SPLIT_PROTOCOLS = {"router", "ent-phase", "phase-sense", "unequal-router"}
# read at the kick, before it, and a tie: two phi of their own over t_m / 2
FORWARD_CASES = {"router-8-observe-t_m", "router-8-observe-before-the-kick",
                 "ent-phase-10-fidelity-observe"}


@pytest.mark.parametrize("case", list(engine_cases()), ids=lambda case: case[0])
def test_a_cell_splits_only_where_it_saves_series(case):
    name, result, merit = case
    plan = plan_of(result, merit)
    chosen = plan is not None and plan.saves
    assert chosen == (result.name in SPLIT_PROTOCOLS and name not in FORWARD_CASES)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", list(engine_cases()), ids=lambda case: case[0])
def test_the_split_matches_a_direct_propagate(case, kind):
    _, result, merit = case
    graph = result.graph()
    n = graph.n_sites
    spec = DisorderSpec(kind, 0.15)
    [(streams, values, onsite)] = sweep.hamiltonian_blocks(graph, spec, 6, SEED, 40)
    op = linalg.band_operator(graph.rows, graph.cols, values, onsite)
    start, kicks = schedule_kicks(result.protocol, n)
    direct = np.zeros((6, n), dtype=complex)
    direct[:, start] = 1.0
    direct = propagate(op, direct, 0.0, [kick for kick in kicks if kick[0] <= merit.time],
                       merit.time)
    engine = ensemble_merit(result, spec, 6, SEED, stream_base=40, merit=merit)
    assert np.max(np.abs(engine - merit.values(direct))) <= 1e-12
    plan = plan_of(result, merit)
    if plan is not None:  # a tie's split too, though the cell runs forward
        split = plan.amplitudes(op, streams)
        sites = list(plan.sites)
        assert np.max(np.abs(split[:, sites] - direct[:, sites])) <= 1e-12
        assert not np.delete(split, sites, axis=1).any()


@pytest.mark.parametrize("name, params", [
    ("router", {"n": 12}), ("ent-phase", {"n": 12}), ("phase-sense", {"n": 12, "theta_deg": 45.0}),
    ("router", {"m": 3}),  # psi through two kicks; phi joins its first segment
    ("unequal-router", {"n_a": 4, "n_b": 3}),  # unequal segments: psi and phi apart
    ("ent-center", {"n": 12}), ("unequal-ent", {"n_a": 3, "n_b": 4}), ("mws", {}),  # no kick
    ("max-ent", {}), ("w-state", {"chain_length": 3}), ("mws", {"with_flips": True}),  # ties
])
def test_a_block_runs_the_series_of_its_plan(monkeypatch, name, params):
    calls = []

    def recording(op, psi0, t):
        calls.append((psi0.shape, t))
        return chebyshev_evolve(op, psi0, t)

    monkeypatch.setattr(dynamics, "chebyshev_evolve", recording)
    result = build_protocol(name, params)
    n = result.network.n_sites
    monkeypatch.setattr(sweep, "BLOCK_ENTRIES", 2 * n * 4)  # blocks of 4, 4 and 2
    ensemble_merit(result, DisorderSpec("diagonal", 0.1), 10, SEED)
    _, kicks = schedule_kicks(result.protocol, n)
    t = result.merit.time
    stops = sorted({0.0, t, *(kick[0] for kick in kicks)})

    def series(b):  # the calls of a block of b realizations
        if name == "unequal-router":
            return [((1, b, n), t - kicks[-1][0]), ((b, n), kicks[-1][0])]
        if name in SPLIT_PROTOCOLS:  # e_1 beside e_N (phi_1 is psi), then psi's other hops
            return [((2, b, n), t - kicks[-1][0])] + [((b, n), kicks[0][0])] * (len(kicks) - 1)
        return [((b, n), t2 - t1) for t1, t2 in zip(stops, stops[1:])]

    assert calls == series(4) + series(4) + series(2)


@pytest.mark.parametrize("kind", ["none", "diagonal"])
def test_clean_cell_repeats_one_realization(kind):
    result = build_protocol("ent-phase", {"n": 8})
    merits = ensemble_merit(result, DisorderSpec(kind, 0.0), 5, SEED)
    assert merits.tolist() == [merits[0]] * 5
    assert merits[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, params, k", [
    ("ent-phase", {"n": 14}, 100),
    ("w-state", {"chain_length": 4}, 150),  # N = 12, a kick by arccos(-1/3)
    ("phase-scan", {"n": 20}, 45),  # phase_scan_estimates: dense stacks of 40, then 5
])
def test_values_do_not_depend_on_the_block_size(monkeypatch, kind, name, params, k):
    spec = DisorderSpec(kind, 0.2)
    if name == "phase-scan":
        n = params["n"]

        def values():
            return phase_scan_estimates(n, (0.0, 135.0, 315.0), spec, k, SEED,
                                        stream_base=3).tolist()
    else:
        result = build_protocol(name, params)
        n = result.network.n_sites

        def values():
            return ensemble_merit(result, spec, k, SEED, stream_base=3).tolist()
    default = values()
    # one per block, an uneven split, all in one (a block takes 2n per realization)
    for entries in (1, 7 * n * n, k * n * n):
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", entries)
        assert values() == default


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, params", [("router", {"n": 10}), ("mws-transfer", {})])
def test_realization_k_of_a_block_is_its_own_stream(kind, name, params):
    result = build_protocol(name, params)  # mws-transfer: a target with four terms
    spec = DisorderSpec(kind, 0.2)
    block = ensemble_merit(result, spec, 9, SEED, stream_base=500).tolist()
    singles = [ensemble_merit(result, spec, 1, SEED, stream_base=500 + k)[0]
               for k in range(9)]
    assert block == singles


@pytest.mark.parametrize("kind", ["none", *KINDS])
@pytest.mark.parametrize("name, params", [("ent-phase", {"n": 4}), ("router", {"n": 12})])
def test_a_sweep_decomposes_no_matrix(monkeypatch, kind, name, params):
    """Sweeps run on the band propagator at every size, so their numbers do
    not depend on the LAPACK build."""
    result = build_protocol(name, params)

    def no_eigh(*args, **kwargs):
        raise AssertionError("a sweep called eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(linalg, "eigh", no_eigh)
    merits = ensemble_merit(result, DisorderSpec(kind, 0.0 if kind == "none" else 0.1), 5, SEED)
    assert len(merits) == 5


@pytest.mark.parametrize("kind", KINDS)
def test_block_realization_is_the_matrix_of_sample_disorder(kind):
    graph = build_protocol("router", {"n": 12}).graph()
    spec = DisorderSpec(kind, 0.2)
    block = sweep.BLOCK_ENTRIES // (2 * 12)  # 682 realizations per block
    stacks = [graph.assemble(values, onsite) for _, values, onsite
              in sweep.hamiltonian_blocks(graph, spec, block + 2, SEED, 40)]
    assert [len(h) for h in stacks] == [block, 2]
    realizations = np.concatenate(stacks)
    for k in (0, block - 1, block, block + 1):  # both sides of the block boundary
        single = sample_disorder(graph, spec, SeededRng(SEED, 40 + k)).to_matrix().real
        assert np.array_equal(realizations[k], single)


def check_leaky_router(monkeypatch, leaky):
    """A router sweep whose evolution scales state 3 of the start groups
    ``leaky`` by 1.01 fails the norm check on stream 203 at t_m, by 0.01."""
    def leaky_evolve(op, psi0, t):
        psi = chebyshev_evolve(op, psi0, t)
        psi[leaky, 3] *= 1.01  # not unitary
        return psi

    # the router's split evolves once: e_1 (psi) and e_N (phi) to t_m in one series
    monkeypatch.setattr(dynamics, "chebyshev_evolve", leaky_evolve)
    result = router_two_chain(6)
    with pytest.raises(InvariantViolation) as excinfo:
        ensemble_merit(result, DisorderSpec("diagonal", 0.1), 8, SEED, stream_base=200)
    message = str(excinfo.value)
    assert "stream 203" in message
    assert f"t = {result.merit.time / 2}" in message  # phi over the rest, psi at the kick
    defect = float(re.search(r"drifted by (\S+)", message).group(1))
    assert defect == pytest.approx(0.01, rel=1e-3)  # after one evolution


def test_norm_check_names_the_stream_time_and_defect(monkeypatch):
    check_leaky_router(monkeypatch, np.s_[:])  # psi and phi: phi is checked first


def test_norm_check_covers_a_phi_column_alone(monkeypatch):
    check_leaky_router(monkeypatch, np.s_[1:])  # psi keeps its norm


@pytest.mark.parametrize("leaky_ndim, t_mirrors", [(2, 1), (3, 2)])  # half way, probes
def test_phase_scan_norm_check_names_the_stream_time_and_defect(monkeypatch, leaky_ndim,
                                                                t_mirrors):
    def leaky_evolve(decomp, psi0, t):
        psi = linalg.evolve(decomp, psi0, t)
        if psi.ndim == leaky_ndim:  # (devices, N) to t_m, (probes, devices, N) to 2 t_m
            psi[..., 3, :] *= 1.01  # not unitary: scales device 3 of the block
        return psi

    monkeypatch.setattr(dynamics, "evolve", leaky_evolve)
    with pytest.raises(InvariantViolation) as excinfo:
        phase_scan_estimates(6, (30.0, 200.0), DisorderSpec("diagonal", 0.1), 8, SEED,
                             stream_base=200)
    message = str(excinfo.value)
    assert "stream 203" in message
    assert f"t = {t_mirrors * mirror_time(3)}" in message
    defect = float(re.search(r"drifted by (\S+)", message).group(1))
    assert defect == pytest.approx(0.01, rel=1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_check_rejects_a_non_finite_state(bad):
    amplitudes = np.zeros((4, 5), dtype=complex)
    amplitudes[:, 0] = 1.0
    amplitudes[2, 3] = bad  # the worst finite defect of the block is 0
    with pytest.raises(InvariantViolation, match=rf"stream 12 is {bad}"):
        check_norms(amplitudes, range(10, 14), 1.5)


# --- phase scan ------------------------------------------------------------------

def phase_scan_reference(n, thetas, spec, k, base):
    """One device at a time: sample_disorder, phase_probe_estimates, unwrap, average."""
    graph = build_protocol("phase-sense", {"n": n}).graph()
    per_angle = [[] for _ in thetas]
    for j in range(k):
        device = sample_disorder(graph, spec, SeededRng(SEED, base + j))
        for slot, theta, est in zip(per_angle, thetas, phase_probe_estimates(device, n, thetas)):
            slot.append(unwrap_to_branch(est, theta))
    stats = []
    for values in per_angle:
        mean, std, sem = ensemble_average(values)
        stats.append((mean % 360.0, std, sem))
    return stats


@pytest.mark.parametrize("n, kind, e, k, base", [
    (20, "none", 0.0, 1, 0),  # a clean setting probes one device
    (20, "diagonal", 0.05, 12, 1000),
    (20, "off_diagonal", 0.10, 12, 2000),
    # streams 2269 and 2528 estimate 315 degrees as 135 to within 7e-12, on the
    # unwrap branch cut (README, "Reproducibility"): their last bits pick the side
    (50, "off_diagonal", 0.10, 2, 2268),
    (50, "off_diagonal", 0.10, 2, 2527),
])
def test_phase_scan_matches_the_per_device_loop(n, kind, e, k, base):
    thetas = tuple(float(t) for t in range(0, 360, 45))
    spec = DisorderSpec(kind, e)
    assert (angle_stats(phase_scan_estimates(n, thetas, spec, k, SEED, stream_base=base))
            == phase_scan_reference(n, thetas, spec, k, base))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.sampled_from(range(4, 21, 2)),
       strength=st.floats(0.0, 0.1), k=st.integers(1, 24))
@example(seed=SEED, n=20, strength=0.1, k=24)
def test_off_diagonal_disorder_keeps_the_probe_ties_on_their_line(seed, n, strength, k):
    """Under off-diagonal disorder every device estimates 135 and 315 degrees
    as the angle itself or its antipode, to within 1e-9 degrees: the ties
    that put a device on either side of the unwrap branch cut."""
    thetas = (135.0, 315.0)
    estimates = phase_scan_estimates(n, thetas, DisorderSpec("off_diagonal", strength), k, seed)
    for theta, row in zip(thetas, estimates):
        gaps = np.abs(row[:, np.newaxis] - theta - np.array([-180.0, 0.0, 180.0]))
        assert gaps.min(axis=1).max() < 1e-9, (theta, row)


@pytest.mark.parametrize("kind, stacks", [
    ("none", [1]),
    # draw blocks of 16384 // 40 = 409 and 11 devices, dense stacks of at most 40
    ("diagonal", [40] * 10 + [9, 11]),
    ("off_diagonal", [40] * 10 + [9, 11]),
])
def test_every_phase_scan_device_lands_in_one_dense_stack(monkeypatch, kind, stacks):
    n, k, base = 20, 420, 7
    graph = build_protocol("phase-sense", {"n": n}).graph()
    spec = DisorderSpec(kind, 0.0 if kind == "none" else 0.1)
    matrices, streams = [], []

    def recording_eigh(h):
        matrices.append(h)
        return linalg.eigh(h)

    def recording_probe(decomp, thetas, stack_streams):
        streams.append(list(stack_streams))
        return np.zeros((len(thetas), len(stack_streams)))

    monkeypatch.setattr(sweep, "eigh", recording_eigh)
    monkeypatch.setattr(sweep, "probe_estimates", recording_probe)
    phase_scan_estimates(n, (0.0, 90.0), spec, k, SEED, stream_base=base)
    assert [len(h) for h in matrices] == [len(s) for s in streams] == stacks
    devices = [stream for stack in streams for stream in stack]
    assert devices == list(range(base, base + len(devices)))
    for stream, h in zip(devices, np.concatenate(matrices)):
        device = sample_disorder(graph, spec, SeededRng(SEED, stream))
        assert h.tobytes() == device.to_matrix().tobytes()


def test_a_phase_scan_cell_is_one_setting():
    scan = PhaseScanConfig(n=20, thetas_deg=(0.0, 135.0, 315.0), realizations=12, settings=(
        DisorderSpec(), DisorderSpec("diagonal", 0.05)))
    clean, disordered = phase_scan_cells(scan, SEED)
    assert (clean.realizations, clean.stream_base) == (1, 0)
    assert (disordered.realizations, disordered.stream_base) == (12, 12)
    assert disordered.disorder == scan.settings[1]
    row = disordered.row(disordered.values(0, 12))
    assert row["stats"] == [list(stats) for stats in angle_stats(phase_scan_estimates(
        20, scan.thetas_deg, scan.settings[1], 12, SEED, stream_base=12))]
    assert json.loads(json.dumps(row)) == row  # a checkpoint reads back bit for bit


@pytest.mark.parametrize("field, value", [
    ("strength", 0.06), ("master_seed", SEED + 1), ("thetas_deg", (0.0, 90.0)),
    ("realizations", 13), ("n", 22), ("kind", "off_diagonal"),
])
def test_a_phase_scan_fingerprint_covers_every_field(field, value):
    scan = PhaseScanConfig(n=20, thetas_deg=(0.0, 135.0), realizations=12,
                           settings=(DisorderSpec("diagonal", 0.05),))
    cell = phase_scan_cells(scan, SEED)[0]
    other = dataclasses.replace(cell, **{field: value})
    assert fingerprint(other) != fingerprint(cell)
    assert fingerprint(cell)["thetas_deg"] == [0.0, 135.0]  # as JSON reads it back


# --- threshold contour -----------------------------------------------------------

# one cell over sizes (0, 2) and E (0, 2): the edge midpoints where a crossing sits
BOTTOM, RIGHT, TOP, LEFT = (1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0)


def one_cell(hot, values=(0.0, 1.0)):
    """The grid of one cell whose hot corners (BL, BR, TR, TL) are ``hot``."""
    cold_value, hot_value = values
    corners = ((0, 0.0), (2, 0.0), (2, 2.0), (0, 2.0))
    return {corner: hot_value if is_hot else cold_value for corner, is_hot in zip(corners, hot)}


def segments(*pairs):
    return [(*a, *b) for a, b in pairs]


@pytest.mark.parametrize("hot, expected", [
    ((0, 0, 0, 0), []),
    ((1, 0, 0, 0), [(LEFT, BOTTOM)]),
    ((0, 1, 0, 0), [(BOTTOM, RIGHT)]),
    ((1, 1, 0, 0), [(LEFT, RIGHT)]),
    ((0, 0, 1, 0), [(RIGHT, TOP)]),
    ((1, 0, 1, 0), [(RIGHT, TOP), (LEFT, BOTTOM)]),  # saddle, cold centre: two hot corners
    ((0, 1, 1, 0), [(BOTTOM, TOP)]),
    ((1, 1, 1, 0), [(LEFT, TOP)]),
    ((0, 0, 0, 1), [(TOP, LEFT)]),
    ((1, 0, 0, 1), [(TOP, BOTTOM)]),
    ((0, 1, 0, 1), [(BOTTOM, RIGHT), (TOP, LEFT)]),  # saddle, cold centre: two hot corners
    ((1, 1, 0, 1), [(TOP, RIGHT)]),
    ((0, 0, 1, 1), [(RIGHT, LEFT)]),
    ((1, 0, 1, 1), [(RIGHT, BOTTOM)]),
    ((0, 1, 1, 1), [(BOTTOM, LEFT)]),
    ((1, 1, 1, 1), []),
])
def test_each_corner_pattern_of_one_cell(hot, expected):
    assert threshold_contour(one_cell(hot), 0.9) == segments(*expected)


@pytest.mark.parametrize("hot, cold_centre, hot_centre", [
    pytest.param((1, 0, 1, 0), [(RIGHT, TOP), (LEFT, BOTTOM)], [(RIGHT, BOTTOM), (LEFT, TOP)],
                 id="bottom-left-and-top-right"),
    pytest.param((0, 1, 0, 1), [(BOTTOM, RIGHT), (TOP, LEFT)], [(BOTTOM, LEFT), (TOP, RIGHT)],
                 id="bottom-right-and-top-left"),
])
def test_a_saddle_joins_its_hot_corners_only_through_a_hot_centre(hot, cold_centre,
                                                                  hot_centre):
    # the cell mean is 0.875 and 0.925: the same corner pattern either side of the level
    assert threshold_contour(one_cell(hot, (0.8, 0.95)), 0.9) == segments(*cold_centre)
    assert threshold_contour(one_cell(hot, (0.85, 1.0)), 0.9) == segments(*hot_centre)


def test_a_corner_at_the_level_is_hot():
    assert threshold_contour(one_cell((1, 0, 0, 0), (0.0, 0.9)), 0.9) == segments(
        (LEFT, BOTTOM))
    assert threshold_contour(one_cell((1, 1, 1, 1), (0.0, 0.9)), 0.9) == []


def test_the_contour_walks_an_unsorted_grid_in_axis_order():
    # hot where both the size and E are small; listed in neither axis order
    means = {(10, 1.0): 0.0, (6, 0.0): 1.0, (8, 1.0): 0.0, (10, 0.0): 0.0, (6, 1.0): 1.0,
             (8, 0.0): 1.0}
    expected = [(7.0, 1.0, 8, 0.5), (8, 0.5, 9.0, 0.0)]
    assert threshold_contour(means, 0.9) == expected
    assert threshold_contour(dict(sorted(means.items())), 0.9) == expected


def test_a_grid_of_one_row_or_column_has_no_contour():
    assert threshold_contour({(6, 0.0): 1.0, (8, 0.0): 0.0, (10, 0.0): 1.0}, 0.9) == []
    assert threshold_contour({(6, 0.0): 1.0, (6, 0.5): 0.0}, 0.9) == []
