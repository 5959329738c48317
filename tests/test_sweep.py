import re

import numpy as np
import pytest

from spinnet import InvariantViolation, SpectralDecomposition, sweep
from spinnet.config import SweepConfig
from spinnet.disorder import DisorderSpec, SeededRng, sample_disorder
from spinnet.dynamics import replace_samples, run_schedule
from spinnet.linalg import eigh
from spinnet.observables import ensemble_average
from spinnet.protocols import (
    build_protocol,
    phase_probe_estimates,
    router_two_chain,
    unwrap_to_branch,
)
from spinnet.sweep import (
    ensemble_merit,
    merit_value,
    phase_scan_setting,
    resolve_merit,
    run_cells,
    sweep_cells,
)

from test_protocols import ALL_PROTOCOLS

SEED = 20230724
KINDS = ("diagonal", "off_diagonal")


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


# --- block engine ---------------------------------------------------------------

def loop_reference(result, spec, k, base, merit):
    """One realization at a time through run_schedule and merit_value."""
    graph = result.graph()
    protocol = replace_samples(result.protocol, (merit.time,))
    return [
        merit_value(run_schedule(sample_disorder(graph, spec, SeededRng(SEED, base + j)),
                                 protocol).states[0], merit)
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
    acc = ensemble_merit(result, spec, 6, SEED, stream_base=40, merit=merit)
    reference = loop_reference(result, spec, 6, 40, merit)
    assert acc.count == 6
    assert np.max(np.abs(np.array(acc.values) - reference)) <= 1e-12


@pytest.mark.parametrize("kind", ["none", "diagonal"])
def test_clean_cell_repeats_one_realization(kind):
    result = build_protocol("ent-phase", {"n": 8})
    acc = ensemble_merit(result, DisorderSpec(kind, 0.0), 5, SEED)
    assert acc.values == [acc.values[0]] * 5
    assert acc.values[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, params, k", [
    ("ent-phase", {"n": 14}, 100),   # two blocks at the default size: 83, then 17
    ("w-state", {"chain_length": 4}, 150),  # N = 12, a kick by arccos(-1/3): 113, then 37
    ("phase-scan", {"n": 20}, 45),  # phase_scan_setting: 40, then 5
])
def test_values_do_not_depend_on_the_block_size(monkeypatch, kind, name, params, k):
    spec = DisorderSpec(kind, 0.2)
    if name == "phase-scan":
        n = params["n"]

        def values():
            return phase_scan_setting(n, (0.0, 135.0, 315.0), spec, k, SEED, stream_base=3)
    else:
        result = build_protocol(name, params)
        n = result.network.n_sites

        def values():
            return ensemble_merit(result, spec, k, SEED, stream_base=3).values
    default = values()
    for entries in (1, 7 * n * n, k * n * n):  # one per block, an uneven split, all in one
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", entries)
        assert values() == default


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, params", [("router", {"n": 10}), ("mws-transfer", {})])
def test_realization_k_of_a_block_is_its_own_stream(kind, name, params):
    result = build_protocol(name, params)  # mws-transfer: a target with four terms
    spec = DisorderSpec(kind, 0.2)
    block = ensemble_merit(result, spec, 9, SEED, stream_base=500).values
    singles = [ensemble_merit(result, spec, 1, SEED, stream_base=500 + k).values[0]
               for k in range(9)]
    assert block == singles


@pytest.mark.parametrize("kind", KINDS)
def test_block_realization_is_the_matrix_of_sample_disorder(kind):
    graph = build_protocol("router", {"n": 12}).graph()
    spec = DisorderSpec(kind, 0.2)
    block = sweep.BLOCK_ENTRIES // 12 ** 2  # 113 realizations per block
    stacks = [h for _, h in sweep.hamiltonian_blocks(graph, spec, block + 2, SEED, 40)]
    assert [len(h) for h in stacks] == [block, 2]
    realizations = np.concatenate(stacks)
    for k in (0, block - 1, block, block + 1):  # both sides of the block boundary
        single = sample_disorder(graph, spec, SeededRng(SEED, 40 + k)).to_matrix().real
        assert np.array_equal(realizations[k], single)


def test_norm_check_names_the_stream_time_and_defect(monkeypatch):
    def leaky_eigh(h):
        decomp = eigh(h)
        vectors = decomp.eigenvectors.copy()
        vectors[3] *= 1.01  # not unitary: each evolution scales this state by 1.01^2
        return SpectralDecomposition(decomp.eigenvalues, vectors)

    monkeypatch.setattr(sweep, "eigh", leaky_eigh)
    result = router_two_chain(6)
    with pytest.raises(InvariantViolation) as excinfo:
        ensemble_merit(result, DisorderSpec("diagonal", 0.1), 8, SEED, stream_base=200)
    message = str(excinfo.value)
    assert "stream 203" in message
    assert f"t = {result.merit.time}" in message
    defect = float(re.search(r"drifted by (\S+)", message).group(1))
    assert defect == pytest.approx(1.01 ** 4 - 1.0, rel=1e-3)  # evolved before and after the kick


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
    (20, "none", 0.0, 3, 0),
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
    assert (phase_scan_setting(n, thetas, spec, k, SEED, stream_base=base)
            == phase_scan_reference(n, thetas, spec, k, base))
