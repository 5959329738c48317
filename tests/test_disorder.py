import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinnet.network import ChainSpec, CouplingGraph, NetworkSpec, chain_graph, hadamard_join
from spinnet.disorder import (
    DisorderSpec,
    GAUSSIAN_WIDTH,
    MAX_STRENGTH,
    SEED_LIMIT,
    SeededRng,
    _FI,
    _KI,
    _WI,
    pcg64_outputs,
    pcg64_states,
    sample_disorder,
    seed_sequence_words,
    standard_normals,
    stream_draws,
)
from spinnet.linalg import hermiticity_defect

from oracles import coupling


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


def test_strength_is_bounded_by_max_strength():
    assert DisorderSpec("off_diagonal", MAX_STRENGTH).strength == MAX_STRENGTH
    with pytest.raises(ValueError, match="at most 1, got 1.0000000000000002"):
        DisorderSpec("off_diagonal", math.nextafter(MAX_STRENGTH, math.inf))


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
    assert coupling(out, 3, 4) == 0.0


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
STRENGTH = st.one_of(st.sampled_from([0.0, MAX_STRENGTH]), st.floats(0.0, MAX_STRENGTH))


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


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (SEED_LIMIT, 0), (0, SEED_LIMIT)])
def test_seed_and_stream_must_fit_in_u64(seed, stream):
    with pytest.raises(ValueError, match="2\\^64"):
        SeededRng(seed, stream)
    with pytest.raises(ValueError, match="2\\^64"):
        seed_sequence_words(seed, [stream])


def test_empty_block_draws_nothing():
    g = chain_graph(ChainSpec(5))
    assert stream_draws(g, DisorderSpec("diagonal", 0.1), 3, range(0)).shape == (0, 5)


# --- draws: numpy's PCG64 outputs and ziggurat, computed per block -------------

# the first stream of a block: anywhere below 2^64, or a block straddling 2^32
FIRST = st.one_of(st.integers(0, SEED_LIMIT - 32), st.integers(2**32 - 30, 2**32 + 4),
                  st.integers(SEED_LIMIT - 2**16, SEED_LIMIT - 32))


def block_states(seed, streams):
    return pcg64_states(seed_sequence_words(seed, streams))


@settings(max_examples=100, deadline=None)
@given(seed=U64, first=FIRST, count=st.integers(1, 24), outputs=st.integers(1, 320))
@example(seed=SEED_LIMIT - 1, first=2**32 - 12, count=24, outputs=320)
def test_pcg64_outputs_are_numpys_random_raw(seed, first, count, outputs):
    streams = range(first, first + count)
    block = pcg64_outputs(block_states(seed, streams), outputs)
    expected = [numpy_generator(seed, s).bit_generator.random_raw(outputs) for s in streams]
    assert block.dtype == np.uint64 and np.array_equal(block, np.array(expected))


@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(U64, NEAR_TOP), first=FIRST, count=st.integers(1, 24),
       size=st.integers(1, 300))
@example(seed=0, first=0, count=1, size=1)
@example(seed=SEED_LIMIT - 1, first=SEED_LIMIT - 32, count=24, size=300)
def test_standard_normals_are_numpys_standard_normal(seed, first, count, size):
    streams = range(first, first + count)
    normals = standard_normals(block_states(seed, streams), size)
    expected = np.array([numpy_generator(seed, s).standard_normal(size) for s in streams])
    assert normals.shape == (count, size) and normals.tobytes() == expected.tobytes()


def ziggurat_walk(outputs, size):
    """numpy's random_standard_normal draw by draw on 64-bit ``outputs``:
    the first ``size`` draws, and the path of each, (strip, "fast", "wedge"
    or "tail"); None when the outputs run out. The wedge path is taken
    whether it keeps its value or not."""
    outputs, draws, paths = iter(outputs), [], []
    uniform = lambda: (next(outputs) >> 11) * 2.0**-53
    try:
        while len(draws) < size:
            r = next(outputs)
            strip, sign, rabs = r & 0xFF, r >> 8 & 1, r >> 9 & (1 << 52) - 1
            x = -(rabs * _WI[strip]) if sign else rabs * _WI[strip]
            if rabs < _KI[strip]:
                draws.append(x)
                paths.append((strip, "fast"))
            elif strip == 0:
                paths.append((0, "tail"))
                while True:
                    xx = -0.27366123732975827203338247596 * math.log1p(-uniform())
                    yy = -math.log1p(-uniform())
                    if yy + yy > xx * xx:
                        r_tail = 3.6541528853610087963519472518
                        draws.append(-(r_tail + xx) if rabs >> 8 & 1 else r_tail + xx)
                        break
            else:
                paths.append((strip, "wedge"))
                if (_FI[strip - 1] - _FI[strip]) * uniform() + _FI[strip] < math.exp(-0.5 * x * x):
                    draws.append(x)
    except StopIteration:
        return None
    return draws, paths


def test_a_million_draws_take_every_path_of_numpys_ziggurat():
    """10^6 draws of one block are numpy's, bit for bit, and take the fast
    path and the wedge path of every strip and the tail (strip 1 has no fast
    path: k_1 = 0)."""
    seed, streams, size = 20230724, range(2000), 500
    normals = standard_normals(block_states(seed, streams), size)
    paths = Counter()
    for stream, row in zip(streams, normals):
        generator = numpy_generator(seed, stream)
        walk = ziggurat_walk(generator.bit_generator.random_raw(2 * size).tolist(), size)
        draws, stream_paths = walk
        paths.update(stream_paths)
        expected = numpy_generator(seed, stream).standard_normal(size)
        assert np.array(draws).tobytes() == expected.tobytes() == row.tobytes()
    assert _KI[1] == 0 and all(paths[i, "fast"] > 0 for i in range(256) if i != 1)
    assert all(paths[i, "wedge"] > 0 for i in range(1, 256)) and paths[0, "tail"] > 0
    assert sum(paths.values()) >= 10**6


MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
INCREMENT = 0xDA3E39CB94B95BDB7B1A4B73A35F5C07  # odd, as every PCG64 increment


def state_for_output(output):
    """A PCG64 state whose next output is ``output``: the step lands on a
    state whose top six bits are 0, so its output is the xor of its halves."""
    high = 0x0123456789ABCDEF
    stepped = high << 64 | high ^ output
    return (stepped - INCREMENT) * pow(MULTIPLIER, -1, 2**128) % 2**128


def test_every_ki_and_wi_entry_is_numpys():
    """Outputs with |r| = k_i - 1 (a fast draw, one output) and |r| = k_i
    (a slow one) for every strip i and both signs: numpy's first two draws
    are the package's, so both take as many outputs, and a fast draw is
    +-(k_i - 1) w_i."""
    outputs = [rabs << 9 | sign << 8 | strip for strip in range(256) for sign in (0, 1)
               for rabs in (int(_KI[strip]) - 1, int(_KI[strip])) if rabs >= 0]
    states = [state_for_output(output) for output in outputs]
    rows = [[s >> 64, s & (1 << 64) - 1, INCREMENT >> 64, INCREMENT & (1 << 64) - 1]
            for s in states]
    draws = standard_normals(np.array(rows, dtype=np.uint64), 2)
    for output, state, (draw, second) in zip(outputs, states, draws.tolist()):
        bit_generator = np.random.PCG64()
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": INCREMENT}}
        generator = np.random.Generator(bit_generator)
        expected = generator.standard_normal()
        # the draw took one output exactly when it was fast
        one_step = (state * MULTIPLIER + INCREMENT) % 2**128
        fast = bit_generator.state["state"]["state"] == one_step
        assert np.array([draw, second]).tobytes() == np.array(
            [expected, generator.standard_normal()]).tobytes()
        strip, sign, rabs = output & 0xFF, output >> 8 & 1, output >> 9
        assert fast == (rabs < _KI[strip])
        if fast:
            assert draw == (-1.0) ** sign * (rabs * float(_WI[strip]))
