import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnet.linalg import eigh, evolve
from spinnet.network import (
    ChainSpec,
    CouplingGraph,
    NetworkSpec,
    chain_graph,
    hadamard_join,
    join_unitary,
    mirror_time,
    network_graph,
    pst_couplings,
    retune_jmax,
    write_edge_list,
)

SQRT2 = math.sqrt(2.0)


def random_network_spec(rng, n_chains=None, min_len=2):
    if n_chains is None:
        n_chains = int(rng.integers(2, 6))
    lengths = rng.integers(min_len, 9, size=n_chains)
    return NetworkSpec([ChainSpec(int(n)) for n in lengths])


# --- coupling profile -------------------------------------------------------

def test_two_site_couplings():
    assert np.allclose(pst_couplings(2, 1.0), [1.0])


def test_four_site_couplings():
    assert np.allclose(pst_couplings(4, 1.0), [math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2])


def test_three_site_couplings():
    assert np.allclose(pst_couplings(3, 1.0), [1.0, 1.0])


@pytest.mark.parametrize("n", range(2, 30))
def test_coupling_profile_peak_and_symmetry(n):
    js = pst_couplings(n, 1.7)
    assert abs(js.max() - 1.7) < 1e-12
    assert np.allclose(js, js[::-1], atol=1e-12)


def test_short_chain_rejected():
    with pytest.raises(ValueError):
        pst_couplings(1, 1.0)
    with pytest.raises(ValueError):
        ChainSpec(1)
    with pytest.raises(ValueError):
        ChainSpec(3, j_max=0.0)


# --- mirror times -----------------------------------------------------------

def test_mirror_time_values():
    assert math.isclose(mirror_time(2, 1.0), math.pi / 2, rel_tol=1e-14)
    assert math.isclose(mirror_time(4, 1.0), math.pi, rel_tol=1e-14)
    assert math.isclose(mirror_time(3, 1.0), math.pi / SQRT2, rel_tol=1e-14)


def test_mirror_time_scales_with_even_length():
    ratios = [mirror_time(n, 1.0) / n for n in range(4, 40, 2)]
    assert np.allclose(ratios, ratios[0], atol=1e-12)


# --- chain graphs -----------------------------------------------------------

def test_chain_graph_two_sites():
    g = chain_graph(ChainSpec(2))
    assert g.n_sites == 2
    assert g.coupling(1, 2) == 1.0
    assert np.all(g.onsite == 0.0)


def test_chain_graph_three_sites():
    g = chain_graph(ChainSpec(3))
    assert np.allclose([g.coupling(1, 2), g.coupling(2, 3)], [1.0, 1.0])


def test_chain_spectrum_symmetric_about_zero():
    evals = eigh(chain_graph(ChainSpec(5)).to_matrix()).eigenvalues
    assert np.allclose(evals, -evals[::-1], atol=1e-12)


def test_pst_within_bare_chains(rng):
    for _ in range(10):
        n = int(rng.integers(2, 30))
        g = chain_graph(ChainSpec(n))
        decomp = eigh(g.to_matrix())
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
        psi = evolve(decomp, psi0, mirror_time(n))
        assert abs(abs(psi[-1]) - 1.0) < 1e-10


# --- fused networks ---------------------------------------------------------

def test_two_chain_junction_diamond():
    g = hadamard_join(NetworkSpec([ChainSpec(3), ChainSpec(3)]))
    assert math.isclose(g.coupling(2, 3), 1 / SQRT2, abs_tol=1e-12)
    assert math.isclose(g.coupling(2, 4), 1 / SQRT2, abs_tol=1e-12)
    assert math.isclose(g.coupling(3, 5), 1 / SQRT2, abs_tol=1e-12)
    assert math.isclose(g.coupling(4, 5), -1 / SQRT2, abs_tol=1e-12)
    assert g.coupling(3, 4) == 0.0


def test_junction_edge_pattern_general(rng):
    # the diamond read off U H U†: edges (p-1,p) = (p-1,p+1) = J_A/sqrt2,
    # (p,p+2) = J_B/sqrt2, (p+1,p+2) = -J_B/sqrt2 at each junction p
    for _ in range(10):
        spec = random_network_spec(rng, min_len=3)
        g = hadamard_join(spec)
        offset = 0
        for left, right in zip(spec.chains, spec.chains[1:]):
            p = offset + left.length
            j_a = pst_couplings(left.length, left.j_max)[-1]
            j_b = pst_couplings(right.length, right.j_max)[0]
            assert math.isclose(g.coupling(p - 1, p), j_a / SQRT2, rel_tol=1e-12)
            assert math.isclose(g.coupling(p - 1, p + 1), j_a / SQRT2, rel_tol=1e-12)
            assert math.isclose(g.coupling(p, p + 2), j_b / SQRT2, rel_tol=1e-12)
            assert math.isclose(g.coupling(p + 1, p + 2), -j_b / SQRT2, rel_tol=1e-12)
            offset += left.length


def test_one_negative_coupling_per_junction(rng):
    for _ in range(10):
        spec = random_network_spec(rng, min_len=3)
        g = hadamard_join(spec)
        negatives = {(i, j) for i, j, v in g.edges() if v < 0}
        expected = {(p + 1, p + 2) for (p, _) in spec.junction_pairs}
        assert negatives == expected


def test_nine_site_join_unitary_matrix():
    u = join_unitary(NetworkSpec([ChainSpec(3)] * 3))
    s = 1 / SQRT2
    expected = np.eye(9)
    expected[2:4, 2:4] = [[s, s], [s, -s]]
    expected[5:7, 5:7] = [[s, s], [s, -s]]
    assert np.array_equal(u, expected)


def test_join_is_literal_conjugation():
    spec = NetworkSpec([ChainSpec(4), ChainSpec(3)])
    from spinnet.network import block_graph

    h = block_graph(spec).to_matrix()
    u = join_unitary(spec)
    direct = u @ h @ u.conj().T
    assert np.allclose(hadamard_join(spec).to_matrix(), direct, atol=1e-12)


def test_spectrum_preserved_under_join(rng):
    for _ in range(20):
        spec = random_network_spec(rng)
        joined = eigh(hadamard_join(spec).to_matrix()).eigenvalues
        parts = np.sort(
            np.concatenate(
                [eigh(chain_graph(c).to_matrix()).eigenvalues for c in spec.chains]
            )
        )
        assert np.allclose(joined, parts, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 9), st.floats(0.25, 4.0)), min_size=2, max_size=6))
def test_join_preserves_the_spectrum_of_any_chain_list(chains):
    spec = NetworkSpec([ChainSpec(n, j_max) for n, j_max in chains])
    joined = eigh(hadamard_join(spec).to_matrix()).eigenvalues
    parts = np.sort(np.concatenate(
        [eigh(chain_graph(c).to_matrix()).eigenvalues for c in spec.chains]))
    assert np.allclose(joined, parts, rtol=0, atol=1e-12 * max(j for _, j in chains))


def test_edge_arrays_follow_the_sorted_edges(rng):
    graph = hadamard_join(random_network_spec(rng, n_chains=3))
    rows, cols, values = graph.rows, graph.cols, graph.values
    assert [(int(i) + 1, int(j) + 1, float(v)) for i, j, v in zip(rows, cols, values)] \
        == graph.edges()
    h = np.zeros((graph.n_sites, graph.n_sites))
    h[rows, cols] = values
    h[cols, rows] = values
    assert np.array_equal(h, graph.to_matrix().real)


@pytest.mark.parametrize("rows, cols, values, problem", [
    ([1, 0], [2, 1], [1.0, 1.0], "sorted"),
    ([0, 0], [1, 1], [1.0, 2.0], "distinct"),
    ([1], [1], [1.0], "row < col"),
    ([2], [1], [1.0], "row < col"),
    ([-1], [1], [1.0], "0 <= row"),
    ([0], [3], [1.0], "col < 3"),
    ([0, 1], [1, 2], [1.0], "one length"),
])
def test_coupling_graph_rejects_malformed_edge_arrays(rows, cols, values, problem):
    with pytest.raises(ValueError, match=problem):
        CouplingGraph(3, rows, cols, values, np.zeros(3))


@pytest.mark.parametrize("values, onsite, problem", [
    ([1.0, np.nan], [0.0, 0.0, 0.0], r"coupling of edge \(2, 3\) is nan"),
    ([-np.inf, 1.0], [0.0, 0.0, 0.0], r"coupling of edge \(1, 2\) is -inf"),
    ([1.0, 1.0], [0.0, 0.0, np.inf], "on-site energy of site 3 is inf"),
])
def test_coupling_graph_rejects_a_non_finite_entry(values, onsite, problem):
    with pytest.raises(ValueError, match=problem):
        CouplingGraph(3, [0, 1], [1, 2], values, onsite)


def test_coupling_graph_arrays_are_read_only():
    graph = chain_graph(ChainSpec(4))
    for array in (graph.rows, graph.cols, graph.values, graph.onsite):
        with pytest.raises(ValueError):
            array[0] = 1


def test_single_chain_network_graph():
    spec = NetworkSpec([ChainSpec(4)])
    assert network_graph(spec).edges() == chain_graph(ChainSpec(4)).edges()


def test_join_requires_two_chains():
    with pytest.raises(ValueError):
        hadamard_join(NetworkSpec([ChainSpec(4)]))


# --- retuning ---------------------------------------------------------------

def test_retune_matches_mirror_times():
    spec = NetworkSpec([ChainSpec(3), ChainSpec(4)])
    retuned = retune_jmax(spec, target_chain=1, reference_chain=2)
    t_a, t_b = retuned.mirror_times
    assert math.isclose(t_a, t_b, rel_tol=1e-12)
    assert retuned.chains[0].j_max < 1.0  # the short chain slows down


def test_retune_to_itself_is_identity():
    spec = NetworkSpec([ChainSpec(5), ChainSpec(4)])
    retuned = retune_jmax(spec, target_chain=2, reference_chain=2)
    assert math.isclose(retuned.chains[1].j_max, 1.0, rel_tol=1e-12)


def test_half_peak_coupling_doubles_mirror_time():
    slow = ChainSpec(4, j_max=0.5)
    fast = ChainSpec(4, j_max=1.0)
    assert math.isclose(slow.mirror_time, 2.0 * fast.mirror_time, rel_tol=1e-12)


def test_retune_bad_chain_index():
    spec = NetworkSpec([ChainSpec(3), ChainSpec(4)])
    with pytest.raises(ValueError):
        retune_jmax(spec, target_chain=3, reference_chain=1)


# --- edge-list format --------------------------------------------------------

def test_edge_list_round_trip(rng):
    """One ``i j J`` line per edge, then one ``site i eps`` line per site,
    each value as its repr, so the lines give the graph back bit for bit."""
    spec = random_network_spec(rng)
    g = hadamard_join(spec)
    buffer = io.StringIO()
    write_edge_list(g, buffer)
    lines = [line.split() for line in buffer.getvalue().splitlines()]
    edges, sites = lines[:len(g.values)], lines[len(g.values):]
    assert [(int(i), int(j), float(value)) for i, j, value in edges] == g.edges()
    assert [(word, int(i), float(value)) for word, i, value in sites] == [
        ("site", i, value) for i, value in enumerate(g.onsite.tolist(), start=1)]


def test_edge_list_keeps_an_explicit_zero_coupling():
    graph = CouplingGraph(3, [0, 1], [1, 2], [0.0, 0.5], np.zeros(3))
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    assert buffer.getvalue().splitlines()[:2] == ["1 2 0.0", "2 3 0.5"]
