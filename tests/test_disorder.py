import math

import numpy as np
import pytest

from spinnet import (
    ChainSpec,
    DisorderSpec,
    NetworkSpec,
    SeededRng,
    chain_graph,
    hadamard_join,
    sample_disorder,
)
from spinnet.disorder import GAUSSIAN_WIDTH
from spinnet.linalg import hermiticity_defect


def test_width_constant():
    assert math.isclose(GAUSSIAN_WIDTH, 1.0 / (2.0 * math.sqrt(3.0)), rel_tol=1e-15)


def test_zero_strength_returns_graph_unchanged():
    g = chain_graph(ChainSpec(5))
    out = sample_disorder(g, DisorderSpec("diagonal", 0.0), SeededRng(1, 0))
    assert out.edges() == g.edges()
    assert np.array_equal(out.onsite, g.onsite)


@pytest.mark.parametrize("kind, strength, clean", [
    ("none", 0.3, True),
    ("diagonal", 0.0, True),
    ("off_diagonal", 0.1, False),
])
def test_clean_spec(kind, strength, clean):
    assert DisorderSpec(kind, strength).clean is clean


def test_kind_none_ignores_strength():
    g = chain_graph(ChainSpec(5))
    out = sample_disorder(g, DisorderSpec("none", 0.0), SeededRng(1, 0))
    assert out.edges() == g.edges()


def test_fixed_seed_and_stream_is_bit_identical():
    g = hadamard_join(NetworkSpec([ChainSpec(4), ChainSpec(4)]))
    spec = DisorderSpec("off_diagonal", 0.1)
    a = sample_disorder(g, spec, SeededRng(42, 7))
    b = sample_disorder(g, spec, SeededRng(42, 7))
    assert a.edges() == b.edges()  # exact float equality
    spec_d = DisorderSpec("diagonal", 0.1)
    c = sample_disorder(g, spec_d, SeededRng(42, 7))
    d = sample_disorder(g, spec_d, SeededRng(42, 7))
    assert np.array_equal(c.onsite, d.onsite)


def test_streams_are_independent():
    g = chain_graph(ChainSpec(6))
    spec = DisorderSpec("off_diagonal", 0.1)
    a = sample_disorder(g, spec, SeededRng(42, 0))
    b = sample_disorder(g, spec, SeededRng(42, 1))
    assert a.edges() != b.edges()


def test_base_graph_never_mutated():
    g = chain_graph(ChainSpec(6))
    before = g.edges()
    sample_disorder(g, DisorderSpec("off_diagonal", 0.3), SeededRng(0, 0))
    sample_disorder(g, DisorderSpec("diagonal", 0.3), SeededRng(0, 0))
    assert g.edges() == before
    assert np.all(g.onsite == 0.0)


def test_negative_strength_rejected():
    with pytest.raises(ValueError):
        DisorderSpec("diagonal", -0.1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DisorderSpec("multiplicative", 0.1)


def test_gaussian_statistics_of_coupling_perturbation():
    # 10^5 draws at E = 0.1, J_ref = 1: the perturbation J' - J is Gaussian
    # with mean 0 and std E / (2 sqrt 3)
    n_edges = 1000
    from spinnet import CouplingGraph

    g = CouplingGraph(n_edges + 1, np.arange(n_edges), np.arange(1, n_edges + 1),
                      np.ones(n_edges), np.zeros(n_edges + 1))
    spec = DisorderSpec("off_diagonal", 0.1)
    deltas = []
    for k in range(100):
        out = sample_disorder(g, spec, SeededRng(9, k))
        deltas.extend(out.values - g.values)
    deltas = np.asarray(deltas)
    target_std = 0.1 * GAUSSIAN_WIDTH
    standard_error = target_std / math.sqrt(deltas.size)
    assert abs(deltas.mean()) < 3 * standard_error
    assert abs(deltas.std() - target_std) < 0.01 * target_std


def test_diagonal_disorder_statistics_and_support():
    n = 2000
    from spinnet import CouplingGraph

    g = CouplingGraph(n, [0], [1], [1.0], np.zeros(n))
    spec = DisorderSpec("diagonal", 0.2)
    out = sample_disorder(g, spec, SeededRng(3, 0))
    assert out.edges() == g.edges()  # couplings untouched
    target_std = 0.2 * GAUSSIAN_WIDTH
    assert abs(out.onsite.mean()) < 4 * target_std / math.sqrt(n)
    assert abs(out.onsite.std() - target_std) < 0.05 * target_std


def test_only_existing_edges_are_perturbed():
    g = hadamard_join(NetworkSpec([ChainSpec(3), ChainSpec(3)]))
    out = sample_disorder(g, DisorderSpec("off_diagonal", 0.5), SeededRng(5, 0))
    assert {(i, j) for i, j, _ in out.edges()} == {(i, j) for i, j, _ in g.edges()}
    # e.g. the diamond's missing diagonal stays absent
    assert out.coupling(3, 4) == 0.0


def test_disordered_graph_stays_hermitian_compatible():
    g = hadamard_join(NetworkSpec([ChainSpec(4), ChainSpec(5)]))
    for kind in ("diagonal", "off_diagonal"):
        out = sample_disorder(g, DisorderSpec(kind, 0.3), SeededRng(11, 2))
        assert out.n_sites == g.n_sites
        assert hermiticity_defect(out.to_matrix()) == 0.0
