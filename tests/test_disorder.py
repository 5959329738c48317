import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinnet import (
    ChainSpec,
    CouplingGraph,
    DisorderSpec,
    NetworkSpec,
    SeededRng,
    chain_graph,
    hadamard_join,
    sample_disorder,
)
from spinnet.disorder import (
    GAUSSIAN_WIDTH,
    SEED_LIMIT,
    disorder_draws,
    pcg64_states,
    seed_sequence_words,
    stream_draws,
)
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


# --- seeding: numpy's SeedSequence and PCG64, recomputed per block ------------

def numpy_generator(seed, stream):
    """The generator every stream is defined to draw from."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


# the edges of one and two 32-bit entropy words, for seeds and streams alike
U64 = st.one_of(st.integers(0, SEED_LIMIT - 1), st.integers(2**32 - 4, 2**32 + 4),
                st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, SEED_LIMIT - 1]))


def state_of(row):
    """A :func:`pcg64_states` row as the integers of ``bit_generator.state``."""
    state_high, state_low, inc_high, inc_low = row.tolist()
    return {"state": state_high << 64 | state_low, "inc": inc_high << 64 | inc_low}


@settings(max_examples=300, deadline=None)
@given(seed=U64, streams=st.lists(U64, min_size=1, max_size=12))
@example(seed=0, streams=[0])
@example(seed=SEED_LIMIT - 1, streams=[SEED_LIMIT - 1, 0, 2**32])
@example(seed=20230724, streams=[2**32 - 1, 2**32])
def test_block_states_are_numpys_pcg64_states(seed, streams):
    words = seed_sequence_words(seed, streams)
    assert words.shape == (len(streams), 4) and words.dtype == np.uint64
    states = pcg64_states(words)
    assert states.shape == (len(streams), 4) and states.dtype == np.uint64
    for row, stream in zip(states, streams):
        assert state_of(row) == numpy_generator(seed, stream).bit_generator.state["state"]


class FixedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose ``generate_state`` is the given words, so that
    numpy's own PCG64 seeding runs on words no SeedSequence need produce."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


TOP = SEED_LIMIT - 1
WORD = st.one_of(st.integers(0, TOP), st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, TOP]))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(WORD, min_size=4, max_size=4), min_size=1, max_size=8))
# all-ones limbs: every 32-bit limb product is nonzero and carries, and both
# 128-bit adds carry out of the low limb
@example(rows=[[TOP, TOP, TOP, TOP]])
# seed low limb 2^64 - 1 plus the odd increment's low limb carries; a zero
# high seed and increment leave only the carries and products in the high limb
@example(rows=[[0, TOP, 0, 0], [0, TOP, 0, 2**63], [TOP, 0, 2**63, TOP]])
@example(rows=[[0, 0, 0, 0], [0, 1, 0, 0], [2**63, 2**63, 2**63, 2**63]])
def test_pcg64_states_are_numpys_for_any_words(rows):
    states = pcg64_states(np.array(rows, dtype=np.uint64))
    for row, words in zip(states, rows):
        assert state_of(row) == np.random.PCG64(FixedWords(words)).state["state"]


def line_graph(size, kind):
    """A path graph with ``size`` draws of ``kind``: ``size`` sites for
    diagonal disorder, ``size`` edges for off-diagonal."""
    n_sites = size + (kind == "off_diagonal")
    return CouplingGraph(n_sites, np.arange(n_sites - 1), np.arange(1, n_sites),
                         np.ones(n_sites - 1), np.zeros(n_sites))


NEAR_TOP = st.integers(SEED_LIMIT - 2**16, SEED_LIMIT - 1)
STRENGTH = st.one_of(st.sampled_from([0.0, 1.0]),
                     st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))


def numpy_draws(spec, seed, streams, size):
    """strength * normal(0, GAUSSIAN_WIDTH) from numpy's own generator of each stream."""
    return np.array([spec.strength
                     * numpy_generator(seed, s).normal(0.0, GAUSSIAN_WIDTH, size=size)
                     for s in streams])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["diagonal", "off_diagonal"]), size=st.integers(1, 40),
       seed=st.one_of(U64, NEAR_TOP), first=st.integers(2**32 - 20, 2**32 + 4),
       count=st.integers(1, 24), strength=STRENGTH)
# a zero strength keeps each draw's sign: 0.0 times a negative draw is -0.0 in both
@example(kind="diagonal", size=40, seed=SEED_LIMIT - 1, first=2**32 - 12, count=24,
         strength=0.0)
def test_stream_draws_are_numpys_normal_draws(kind, size, seed, first, count, strength):
    # a block of streams first ... first + count - 1, most straddling 2^32
    spec = DisorderSpec(kind, strength)
    streams = range(first, first + count)
    expected = numpy_draws(spec, seed, streams, size)
    block = stream_draws(line_graph(size, kind), spec, seed, streams)
    assert block.shape == (count, size) and block.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [7, 20230724, 2**32 + 11, SEED_LIMIT - 1])
@pytest.mark.parametrize("kind", ["diagonal", "off_diagonal"])
def test_block_across_two_to_the_32_draws_numpys_bits(seed, kind):
    # streams 2^32 - 3 ... 2^32 + 3: one entropy word, then two, in one block
    g = hadamard_join(NetworkSpec([ChainSpec(4), ChainSpec(5)]))
    spec = DisorderSpec(kind, 0.3)
    streams = range(2**32 - 3, 2**32 + 4)
    size = len(g.values) if kind == "off_diagonal" else g.n_sites
    expected = numpy_draws(spec, seed, streams, size)
    block = stream_draws(g, spec, seed, streams)
    assert block.tobytes() == expected.tobytes()
    for row, stream in zip(block, streams):
        assert disorder_draws(g, spec, SeededRng(seed, stream)).tobytes() == row.tobytes()


@pytest.mark.parametrize("seed, stream", [(0, 0), (42, 7), (5, 2**32 + 1), (SEED_LIMIT - 1, 3)])
def test_seeded_rng_generator_draws_numpys_bits(seed, stream):
    ours, theirs = SeededRng(seed, stream).generator(), numpy_generator(seed, stream)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.normal(size=50).tobytes() == theirs.normal(size=50).tobytes()
    assert ours.integers(0, 2**63, size=5).tobytes() == theirs.integers(0, 2**63, size=5).tobytes()


def test_seeded_rng_generators_are_independent():
    a, b = SeededRng(1, 2).generator(), SeededRng(1, 2).generator()
    first = a.normal(size=3)
    assert b.normal(size=3).tobytes() == first.tobytes()
    assert a.normal(size=3).tobytes() != first.tobytes()


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (SEED_LIMIT, 0), (0, SEED_LIMIT)])
def test_seed_and_stream_must_fit_in_u64(seed, stream):
    with pytest.raises(ValueError, match="2\\^64"):
        SeededRng(seed, stream)
    with pytest.raises(ValueError, match="2\\^64"):
        seed_sequence_words(seed, [stream])


def test_empty_block_draws_nothing():
    g = chain_graph(ChainSpec(5))
    assert stream_draws(g, DisorderSpec("diagonal", 0.1), 3, range(0)).shape == (0, 5)
