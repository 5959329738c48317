import dataclasses
import json
import re

import numpy as np
import pytest

from spinnet import InvariantViolation, dynamics, linalg, protocols, sweep
from spinnet.config import PhaseScanConfig, SweepConfig
from spinnet.disorder import DisorderSpec, SeededRng, sample_disorder
from spinnet.dynamics import check_norms, propagate, replace_samples, run_schedule, schedule_kicks
from spinnet.linalg import chebyshev_evolve
from spinnet.network import mirror_time
from spinnet.observables import ensemble_average
from spinnet.protocols import (
    build_protocol,
    phase_probe_estimates,
    router_two_chain,
    unwrap_to_branch,
)
from spinnet.sweep import (
    ensemble_merit,
    fingerprint,
    merit_sites,
    merit_values,
    phase_scan_cells,
    phase_scan_setting,
    resolve_merit,
    run_cells,
    split_plan,
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
        rows = run_cells(make_cells(cells), workers=workers)
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


# --- block engine ---------------------------------------------------------------

def loop_reference(result, spec, k, base, merit):
    """One realization at a time through run_schedule and a one-row merit_values."""
    graph = result.graph()
    protocol = replace_samples(result.protocol, (merit.time,))
    return [
        merit_values(run_schedule(sample_disorder(graph, spec, SeededRng(SEED, base + j)),
                                  protocol).states[0].amplitudes[np.newaxis], merit)[0]
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
    acc = ensemble_merit(result, spec, 6, SEED, stream_base=40, merit=merit)
    assert acc.count == 6
    assert np.max(np.abs(np.array(acc.values) - reference)) <= 1e-12


# --- the split: only the amplitudes a merit reads -----------------------------------

def plan_of(result, merit):
    """The cell's split_plan, whether or not it saves work."""
    start, kicks = schedule_kicks(result.protocol, result.network.n_sites)
    return split_plan(start, [kick for kick in kicks if kick[0] <= merit.time], merit.time,
                      merit_sites(merit))


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
    [(streams, values, onsite)] = sweep.hamiltonian_blocks(graph, spec, 6, SEED, 40, 2 * n)
    op = linalg.band_operator(graph.rows, graph.cols, values, onsite)
    start, kicks = schedule_kicks(result.protocol, n)
    direct = np.zeros((6, n), dtype=complex)
    direct[:, start] = 1.0
    direct = propagate(op, direct, 0.0, [kick for kick in kicks if kick[0] <= merit.time],
                       merit.time)
    engine = ensemble_merit(result, spec, 6, SEED, stream_base=40, merit=merit).values
    assert np.max(np.abs(np.array(engine) - merit_values(direct, merit))) <= 1e-12
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

    monkeypatch.setattr(sweep, "chebyshev_evolve", recording)
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
    acc = ensemble_merit(result, DisorderSpec(kind, 0.0), 5, SEED)
    assert acc.values == [acc.values[0]] * 5
    assert acc.values[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, params, k", [
    ("ent-phase", {"n": 14}, 100),
    ("w-state", {"chain_length": 4}, 150),  # N = 12, a kick by arccos(-1/3)
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
    # one per block, an uneven split, all in one (a band block takes 2n per realization)
    for entries in (1, 7 * n * n, k * n * n):
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
    acc = ensemble_merit(result, DisorderSpec(kind, 0.0 if kind == "none" else 0.1), 5, SEED)
    assert acc.count == 5


@pytest.mark.parametrize("kind", KINDS)
def test_block_realization_is_the_matrix_of_sample_disorder(kind):
    graph = build_protocol("router", {"n": 12}).graph()
    spec = DisorderSpec(kind, 0.2)
    block = sweep.BLOCK_ENTRIES // 12 ** 2  # 113 realizations per block
    stacks = [graph.assemble(values, onsite)
              for _, values, onsite in sweep.hamiltonian_blocks(graph, spec, block + 2, SEED, 40)]
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
    monkeypatch.setattr(sweep, "chebyshev_evolve", leaky_evolve)
    result = router_two_chain(6)
    with pytest.raises(InvariantViolation) as excinfo:
        ensemble_merit(result, DisorderSpec("diagonal", 0.1), 8, SEED, stream_base=200)
    message = str(excinfo.value)
    assert "stream 203" in message
    assert f"t = {result.merit.time / 2}" in message  # psi at the kick, phi over the rest
    defect = float(re.search(r"drifted by (\S+)", message).group(1))
    assert defect == pytest.approx(0.01, rel=1e-3)  # after one evolution


def test_norm_check_names_the_stream_time_and_defect(monkeypatch):
    check_leaky_router(monkeypatch, np.s_[:])  # psi and phi: psi is checked first


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

    monkeypatch.setattr(protocols, "evolve", leaky_evolve)
    with pytest.raises(InvariantViolation) as excinfo:
        phase_scan_setting(6, (30.0, 200.0), DisorderSpec("diagonal", 0.1), 8, SEED,
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


def test_a_phase_scan_cell_is_one_setting():
    scan = PhaseScanConfig(n=20, thetas_deg=(0.0, 135.0, 315.0), realizations=12, settings=(
        DisorderSpec(), DisorderSpec("diagonal", 0.05)))
    clean, disordered = phase_scan_cells(scan, SEED)
    assert (clean.realizations, clean.stream_base) == (1, 0)
    assert (disordered.realizations, disordered.stream_base) == (12, 12)
    assert disordered.disorder == scan.settings[1]
    row = disordered.run()
    assert row["stats"] == [list(stats) for stats in phase_scan_setting(
        20, scan.thetas_deg, scan.settings[1], 12, SEED, stream_base=12)]
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
