"""The banded Chebyshev propagator against scipy's Bessel J and dense eigh."""

import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from spinnet import linalg, sweep
from spinnet.disorder import DisorderSpec, perturb, stream_draws
from spinnet.dynamics import propagate, schedule_kicks
from spinnet.linalg import (CHEBYSHEV_CUTOFF, InvariantViolation, band_operator,
                            bessel_coefficients, chebyshev_evolve, eigh)
from spinnet.network import CouplingGraph, mirror_time
from spinnet.protocols import build_protocol
from spinnet.sweep import ensemble_merit, split_plan

SEED = 20230724
KINDS = ("diagonal", "off_diagonal")


def disordered_stack(graph, kind, streams, strength=0.2):
    spec = DisorderSpec(kind, strength)
    return perturb(graph, spec, stream_draws(graph, spec, SEED, streams))


def both_propagators(graph, values, onsite, start, kicks, t_end):
    """(Chebyshev, dense) amplitudes of one propagation of a stack."""
    chebyshev = propagate(band_operator(graph.rows, graph.cols, values, onsite),
                          start, 0.0, kicks, t_end)
    dense = propagate(eigh(graph.assemble(values, onsite)), start, 0.0, kicks, t_end)
    return chebyshev, dense


# --- Bessel coefficients -------------------------------------------------------------

ARGUMENTS = np.array([0.0, 1e-12, 1e-3, 0.5, 1.0, 2.404825557695773, 7.0, 30.0, 99.5,
                      110.3, 157.1, 225.0, 299.9, 300.0])


def test_bessel_coefficients_match_scipy():
    coeffs = bessel_coefficients(ARGUMENTS)
    orders = np.arange(len(coeffs))[:, None]
    exact = scipy.special.jv(orders, ARGUMENTS)
    assert np.max(np.abs(coeffs - exact)) <= 1e-14
    # past its cutoff a coefficient is exactly 0, and the true one is below it
    assert np.all((coeffs != 0) | (2 * np.abs(exact) < CHEBYSHEV_CUTOFF))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 300.0), min_size=1, max_size=8))
def test_bessel_column_depends_on_its_own_argument_only(xs):
    coeffs = bessel_coefficients(np.array(xs))
    exact = scipy.special.jv(np.arange(len(coeffs))[:, None], np.array(xs))
    assert np.max(np.abs(coeffs - exact)) <= 1e-14
    for b, x in enumerate(xs):
        alone = bessel_coefficients(np.array([x]))[:, 0]
        assert np.array_equal(coeffs[: len(alone), b], alone)
        assert not np.any(coeffs[len(alone):, b])


# --- the propagator against dense eigh -----------------------------------------------

@st.composite
def banded_runs(draw):
    """A random real symmetric band graph of width 1-4, a disordered stack
    of it, a start site, a kick list and an end time."""
    n = draw(st.integers(1, 24))
    width = draw(st.integers(1, 4))
    pairs = [(i, i + d) for i in range(n) for d in range(1, width + 1) if i + d < n]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    if n > width and (0, width) not in edges:
        edges.append((0, width))  # the graph has the drawn width
    edges.sort()
    coupling = st.floats(-1.5, 1.5)
    graph = CouplingGraph(
        n, [i for i, _ in edges], [j for _, j in edges],
        draw(st.lists(coupling, min_size=len(edges), max_size=len(edges))),
        draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)),
    )
    kind = draw(st.sampled_from(KINDS))
    first = draw(st.integers(0, 10 ** 6))
    streams = range(first, first + draw(st.integers(1, 4)))
    values, onsite = disordered_stack(graph, kind, streams)
    t_end = draw(st.floats(0.0, 30.0))
    kicks = sorted((fraction * t_end, site, angle) for fraction, site, angle in draw(st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(0, n - 1), st.floats(-math.pi, math.pi)),
        max_size=3)))
    start = np.zeros((len(streams), n), dtype=complex)
    start[:, draw(st.integers(0, n - 1))] = 1.0
    return graph, values, onsite, start, kicks, t_end


@settings(max_examples=120, deadline=None)
@given(banded_runs())
def test_chebyshev_propagate_matches_dense_eigh(run):
    graph, values, onsite, start, kicks, t_end = run
    chebyshev, dense = both_propagators(graph, values, onsite, start, kicks, t_end)
    assert np.max(np.abs(chebyshev - dense)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(banded_runs())
def test_the_propagator_of_a_real_symmetric_h_is_symmetric(run):
    """<s|U(t)|j> = <j|U(t)|s>, which lets a sweep read a site through the
    last kick; and real starts in one call get the bits of separate calls."""
    graph, values, onsite, _, _, t_end = run
    op = band_operator(graph.rows, graph.cols, values, onsite)
    b, n = op.lower.shape[0], graph.n_sites
    starts = np.zeros((n, b, n))
    for s in range(n):
        starts[s, :, s] = 1.0
    evolved = chebyshev_evolve(op, starts, t_end)  # evolved[s, b, j] = <j|U_b(t)|s>
    assert np.max(np.abs(evolved - evolved.transpose(2, 1, 0)), initial=0.0) <= 1e-12
    for s in range(n):
        assert np.array_equal(evolved[s], chebyshev_evolve(op, starts[s:s + 1], t_end)[0])
        assert np.array_equal(evolved[s], chebyshev_evolve(op, starts[s] + 0j, t_end))


def stretched(graph, values):
    """The edges of ``graph`` with zero-coupling edges added at the first and
    last row of every diagonal it occupies, and the stack's couplings on them."""
    rows, cols = graph.rows.tolist(), graph.cols.tolist()
    present = set(zip(rows, cols))
    extra = [(i, i + d) for d in set(graph.cols - graph.rows)
             for i in (0, graph.n_sites - 1 - d) if (i, i + d) not in present]
    rows += [i for i, _ in extra]
    cols += [j for _, j in extra]
    values = np.concatenate([values, np.zeros(values.shape[:-1] + (len(extra),))], axis=-1)
    return np.array(rows, dtype=int), np.array(cols, dtype=int), values


@settings(max_examples=80, deadline=None)
@given(banded_runs())
def test_zero_couplings_that_stretch_every_diagonal_change_no_bit(run):
    """A diagonal runs only over the rows of its edges; one stretched to the
    full matrix by couplings that are 0 in every realization, added after
    disorder, gives the same values, so every nonzero result keeps its bits."""
    graph, values, onsite, start, kicks, t_end = run
    op = band_operator(graph.rows, graph.cols, values, onsite)
    full = band_operator(*stretched(graph, values), onsite)
    n = graph.n_sites
    assert full.spans == tuple((0, n - d) for d in full.offsets)
    assert full.offsets == op.offsets and np.array_equal(full.bands, op.bands)
    assert np.array_equal(full.lower, op.lower) and np.array_equal(full.upper, op.upper)
    phase = np.exp(1j * np.linspace(0.0, 2.0, n))  # a state with an imaginary part
    for psi in (start, start * phase, np.real(start * phase)[None] * [[[1.0]], [[-0.5]]]):
        assert np.array_equal(chebyshev_evolve(full, psi, t_end), chebyshev_evolve(op, psi, t_end))
    assert np.array_equal(propagate(full, start, 0.0, kicks, t_end),
                          propagate(op, start, 0.0, kicks, t_end))


def test_the_junction_diagonal_of_a_router_spans_its_two_junction_rows():
    graph = build_protocol("router", {"n": 140}).graph()
    op = band_operator(graph.rows, graph.cols, graph.values, graph.onsite)
    assert op.offsets == (1, 2) and op.spans == ((0, 139), (68, 70))
    # the m = 4 router's junction diagonal spans rows 1 to 8 of 10; its split
    # runs still give the dense eigensolve's amplitudes
    result = build_protocol("router", {"m": 4})
    graph = result.graph()
    assert band_operator(graph.rows, graph.cols, graph.values, graph.onsite).spans == (
        (0, 11), (1, 9))
    n, merit = graph.n_sites, result.merit
    start, kicks = schedule_kicks(result.protocol, n)
    plan = split_plan(start, kicks, merit.time, merit.sites)
    assert plan is not None and plan.saves
    for kind in KINDS:
        values, onsite = disordered_stack(graph, kind, range(5, 11))
        split = plan.amplitudes(band_operator(graph.rows, graph.cols, values, onsite),
                                range(5, 11))
        psi = np.zeros((6, n), dtype=complex)
        psi[:, start] = 1.0
        dense = propagate(eigh(graph.assemble(values, onsite)), psi, 0.0, kicks, merit.time)
        sites = list(plan.sites)
        assert np.max(np.abs(split[:, sites] - dense[:, sites])) <= 1e-12


def test_edge_list_graph_with_site_energies():
    # 0-based (row, col, coupling): offsets 1 to 4, and four site energies
    pairs = [(0, 1, 0.9), (0, 3, -0.3), (1, 2, 1.1), (1, 5, 0.45), (2, 4, 0.2),
             (3, 4, 0.8), (4, 5, -0.7), (4, 7, 0.35), (5, 6, 0.6), (6, 7, 1.0)]
    rows, cols, values = zip(*pairs)
    graph = CouplingGraph(8, rows, cols, values, [0.25, 0.0, -0.4, 0.0, 0.0, 0.1, 0.0, 0.55])
    assert set((graph.cols - graph.rows).tolist()) == {1, 2, 3, 4}
    for kind in KINDS:
        values, onsite = disordered_stack(graph, kind, range(30, 36))
        start = np.zeros((6, graph.n_sites), dtype=complex)
        start[:, 2] = 1.0
        chebyshev, dense = both_propagators(graph, values, onsite, start,
                                            [(4.0, 5, 2.0), (9.5, 0, -1.0)], 17.3)
        assert np.max(np.abs(chebyshev - dense)) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_router_at_200_sites_up_to_twice_the_mirror_time(kind):
    result = build_protocol("router", {"n": 200})
    graph = result.graph()
    t_m = mirror_time(100)
    values, onsite = disordered_stack(graph, kind, range(7, 10), strength=0.1)
    start = np.zeros((3, 200), dtype=complex)
    start[:, 0] = 1.0
    for t_end in (t_m / 2, t_m, 1.5 * t_m, 2 * t_m):
        chebyshev, dense = both_propagators(graph, values, onsite, start,
                                            [(t_m, 99, math.pi)], t_end)
        assert np.max(np.abs(chebyshev - dense)) <= 1e-12


def test_the_gershgorin_interval_holds_the_spectrum():
    graph = build_protocol("router", {"n": 140}).graph()
    for kind in KINDS:
        values, onsite = disordered_stack(graph, kind, range(20), strength=0.3)
        op = band_operator(graph.rows, graph.cols, values, onsite)
        eigenvalues = eigh(graph.assemble(values, onsite)).eigenvalues
        assert np.all(op.lower <= eigenvalues[:, 0]) and np.all(eigenvalues[:, -1] <= op.upper)
    # nearly tight for a PST network: row sums 2.0 against a spectral radius of 1.97
    clean = band_operator(graph.rows, graph.cols, graph.values, graph.onsite)
    radius = np.max(np.abs(eigh(graph.to_matrix()).eigenvalues))
    assert radius <= clean.upper < 1.02 * radius
    assert clean.lower == -clean.upper


# --- the norm guard on the Chebyshev path --------------------------------------------

@pytest.mark.parametrize("shrink", [0.5, 1e-3])  # a finite blow-up, and an overflow to nan
def test_an_understated_spectral_bound_trips_the_norm_guard(monkeypatch, shrink):
    def understated(rows, cols, values, onsite):
        op = band_operator(rows, cols, values, onsite)
        lower, upper = op.lower.copy(), op.upper.copy()
        lower[3] *= shrink  # the fourth realization of the block: stream 203
        upper[3] *= shrink
        return replace(op, lower=lower, upper=upper)

    monkeypatch.setattr(sweep, "band_operator", understated)
    result = build_protocol("router", {"n": 40})
    with pytest.raises(InvariantViolation) as excinfo:
        ensemble_merit(result, DisorderSpec("diagonal", 0.1), 8, SEED, stream_base=200)
    message = str(excinfo.value)
    assert "stream 203" in message
    assert re.search(r"drifted by \S+|is nan|is inf", message)


# --- the series' arrays start on cache lines -----------------------------------------

def work_arrays(op, psi0, t):
    """The work arrays of ``linalg._chebyshev_sums`` in one ``chebyshev_evolve``
    call, read by name from its frame as it returns."""
    arrays = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is linalg._chebyshev_sums.__code__:
            local = frame.f_locals
            arrays.update(diagonal=local["diagonal"], coefficients=local["coeffs"][0],
                          start=local["start"], scratch=local["scratch"],
                          even=local["sums"][0], odd=local["sums"][1],
                          current=local["current"][0], previous=local["previous"][0])
            arrays.update((f"offset {d}", u) for d, u in zip(op.offsets, local["off"]))

    sys.setprofile(profile)
    try:
        chebyshev_evolve(op, psi0, t)
    finally:
        sys.setprofile(None)
    return arrays


@pytest.mark.parametrize("n, b", [(140, 58), (40, 5), (14, 3)])
def test_every_work_array_of_the_series_starts_on_a_64_byte_boundary(n, b):
    """A SIMD pass over an array off a cache line splits a line on every
    vector. The coefficient table is checked by its first row: the others
    sit wherever the column count puts them."""
    graph = build_protocol("router", {"n": n}).graph()
    op = band_operator(graph.rows, graph.cols, *disordered_stack(graph, "diagonal", range(b)))
    start = np.zeros((2, b, graph.n_sites))
    start[0, :, 0] = start[1, :, -1] = 1.0
    for psi0 in (start, start[0] + 1j * start[1], start[0] + 0j):
        arrays = work_arrays(op, psi0, mirror_time(graph.n_sites))
        assert len(arrays) == 8 + len(op.offsets)
        misaligned = {name: a.ctypes.data % 64 for name, a in arrays.items()
                      if a.ctypes.data % 64}
        assert not misaligned


def placed(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte
    boundary, as a view into a larger buffer."""
    raw = np.empty(a.nbytes + 64 + offset, dtype=np.uint8)
    first = -raw.ctypes.data % 64 + offset
    view = raw[first: first + a.nbytes].view(a.dtype).reshape(a.shape)
    view[...] = a
    assert view.ctypes.data % 64 == offset
    return view


@settings(max_examples=60, deadline=None)
@given(banded_runs(), st.sampled_from([8, 16, 32]))
def test_a_misaligned_start_gets_the_bytes_of_an_aligned_copy(run, offset):
    graph, values, onsite, start, _, t_end = run
    op = band_operator(graph.rows, graph.cols, values, onsite)
    phase = np.exp(1j * np.linspace(0.0, 2.0, graph.n_sites))
    for psi in (start * phase, np.real(start * phase)[None] * [[[1.0]], [[-0.5]]]):
        aligned = chebyshev_evolve(op, placed(psi, 0), t_end)
        assert chebyshev_evolve(op, placed(psi, offset), t_end).tobytes() == aligned.tobytes()
