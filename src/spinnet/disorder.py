"""Static disorder realizations of a coupling graph.

Two kinds of fabrication error are modelled: off-diagonal (every existing
coupling picks up E * d * J_ref with d drawn from a zero-mean Gaussian of
width 1/(2 sqrt 3)) and diagonal (the same perturbation lands on each
on-site energy). The scale J_ref is the global energy unit, not a per-chain
peak coupling, so retuned networks see the same absolute error level.

Reproducibility: every realization is addressed by (master seed, stream
index). The same address always yields the same graph, bit for bit, no
matter which worker draws it: stream s draws from numpy's
``Generator(PCG64(SeedSequence((master_seed, s))))``. :func:`stream_draws`
computes those generator states for a whole block of streams at once and
draws every stream of the block from one generator, set to each state in
turn; one stream is a block of one.

One rule applies the draws: :func:`perturb` adds the :func:`stream_draws`
of a block of streams (``sweep.hamiltonian_blocks``) or the
:func:`disorder_draws` of one (:func:`sample_disorder`) to the graph's
edge or on-site arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .network import CouplingGraph

GAUSSIAN_WIDTH = 1.0 / (2.0 * math.sqrt(3.0))

KINDS = ("none", "diagonal", "off_diagonal")

# Master seeds and stream indices lie below 2^64: at most two 32-bit words
# each, so a (seed, stream) address fits the four-word SeedSequence pool.
SEED_LIMIT = 1 << 64

# numpy's SeedSequence hash mixer (M. E. O'Neill, "Developing a seed_seq
# alternative", pcg-random.org, 2015) and PCG64's seeding (O'Neill,
# HMC-CS-2014-0905), recomputed here for a block of streams at once; a
# property test pins both against numpy. Hash k xors its input with
# constant k, multiplies it by constant k + 1 and folds the high half in.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, multiplier: int, count: int) -> np.ndarray:
    """The constants of ``count`` successive hashes: init * multiplier^k mod 2^32."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, np.newaxis]


# the pool's hashes: one per word to fill it, then one per (source, target)
# pair of distinct words, targets in order within each source
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE ** 2)
# the output's hashes: eight words, the pool twice over, make four uint64
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)


def _mix_constants(source: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants of the three targets of ``source``, on the rows
    of the pool, with zeros on the source's own row."""
    xor = np.zeros((_POOL_SIZE, 1), dtype=np.uint32)
    mul = np.zeros((_POOL_SIZE, 1), dtype=np.uint32)
    first = _POOL_SIZE + (_POOL_SIZE - 1) * source
    targets = [t for t in range(_POOL_SIZE) if t != source]
    xor[targets], mul[targets] = _POOL_HASH[first:first + 3], _POOL_HASH[first + 1:first + 4]
    return xor, mul


_MIX_HASH = [_mix_constants(source) for source in range(_POOL_SIZE)]


def _hash(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul
    return words ^ (words >> _XSHIFT)


def seed_sequence_words(master_seed: int, streams: Sequence[int]) -> np.ndarray:
    """``SeedSequence((master_seed, s)).generate_state(4, np.uint64)`` for
    every stream s, as one (len(streams), 4) uint64 array.

    numpy splits each integer into little-endian 32-bit words (one for 0)
    and pads the entropy with zero words to the pool size. A stream below
    2^32 has the same entropy with or without its zero high word, so every
    stream of a block takes the same two slots after the seed's words,
    including a block that straddles 2^32.
    """
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError(f"master seed must be in [0, 2^64), got {master_seed}")
    if len(streams) and not (min(streams) >= 0 and max(streams) < SEED_LIMIT):
        raise ValueError("stream indices must be in [0, 2^64)")
    seed_words = [master_seed >> shift & _MASK32
                  for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    stream_array = np.array(streams, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, len(stream_array)), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, np.newaxis]
    entropy[len(seed_words)] = stream_array.astype(np.uint32)  # low word
    entropy[len(seed_words) + 1] = (stream_array >> np.uint64(32)).astype(np.uint32)
    pool = _hash(entropy, _POOL_HASH[:_POOL_SIZE], _POOL_HASH[1:_POOL_SIZE + 1])
    for source, (xor, mul) in enumerate(_MIX_HASH):
        mixed = _MIX_LEFT * pool - _MIX_RIGHT * _hash(pool[source], xor, mul)
        mixed ^= mixed >> _XSHIFT
        mixed[source] = pool[source]  # a word is not mixed with itself
        pool = mixed
    words = _hash(np.concatenate([pool, pool]), _STATE_HASH[:-1], _STATE_HASH[1:])
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def pcg64_state(words: np.ndarray) -> dict:
    """The ``bit_generator.state`` of ``PCG64`` seeded with one row of
    :func:`seed_sequence_words` (seed, then increment, each as its high and
    low 64 bits): two steps of the 128-bit LCG, the first from state 0, the
    second after adding the seed."""
    state_high, state_low, inc_high, inc_low = words.tolist()
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
    state = ((inc + (state_high << 64 | state_low)) * _PCG64_MULTIPLIER + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@dataclass(frozen=True)
class DisorderSpec:
    """Disorder kind and dimensionless strength E."""

    kind: str = "none"
    strength: float = 0.0
    width: float = GAUSSIAN_WIDTH
    j_max_ref: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown disorder kind {self.kind!r}, expected one of {KINDS}")
        for name in ("strength", "width"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"disorder {name} must be finite and >= 0, "
                                 f"got {getattr(self, name)}")
        if not math.isfinite(self.j_max_ref):
            raise ValueError(f"disorder j_max_ref must be finite, got {self.j_max_ref}")

    @property
    def clean(self) -> bool:
        """True when the spec perturbs nothing: every realization is the bare graph."""
        return self.kind == "none" or self.strength == 0.0


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random stream addressed by (master seed, stream index)."""

    master_seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < SEED_LIMIT and 0 <= self.stream < SEED_LIMIT):
            raise ValueError("seed and stream index must be in [0, 2^64)")

    def generator(self) -> np.random.Generator:
        """A new generator at the start of this stream."""
        bit_generator = np.random.PCG64()
        bit_generator.state = pcg64_state(seed_sequence_words(self.master_seed, (self.stream,))[0])
        return np.random.Generator(bit_generator)


def stream_draws(graph: CouplingGraph, spec: DisorderSpec, master_seed: int,
                 streams: Sequence[int]) -> np.ndarray:
    """The perturbations each of ``streams`` adds to ``graph`` under a
    disordered spec, one row per stream.

    Off-diagonal disorder draws one value per existing edge, in edge order,
    for its coupling; diagonal disorder one value per site, for its on-site
    energy. Each value is E * J_ref * d with d ~ N(0, width^2), drawn from
    the stream's own generator state.
    """
    size = len(graph.values) if spec.kind == "off_diagonal" else graph.n_sites
    # one generator per block, set to each stream's state in turn; its own
    # seed is never drawn from
    generator = np.random.Generator(np.random.PCG64())
    words = seed_sequence_words(master_seed, streams)
    draws = np.empty((len(words), size))
    for row, stream_words in zip(draws, words):
        generator.bit_generator.state = pcg64_state(stream_words)
        row[:] = generator.normal(0.0, spec.width, size=size)
    return spec.strength * spec.j_max_ref * draws


def disorder_draws(graph: CouplingGraph, spec: DisorderSpec, rng: SeededRng) -> np.ndarray:
    """:func:`stream_draws` of the one stream ``rng``."""
    return stream_draws(graph, spec, rng.master_seed, (rng.stream,))[0]


def perturb(graph: CouplingGraph, spec: DisorderSpec,
            draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(couplings, on-site energies) of ``graph`` with ``draws`` added to the
    one that ``spec.kind`` perturbs; ``draws`` holds one stream's
    :func:`disorder_draws` or a stack of them along leading axes."""
    if spec.kind == "off_diagonal":
        return graph.values + draws, graph.onsite
    return graph.values, graph.onsite + draws


def sample_disorder(graph: CouplingGraph, spec: DisorderSpec, rng: SeededRng) -> CouplingGraph:
    """One independent disorder realization of ``graph``.

    Off-diagonal disorder perturbs existing edges only (absent couplings stay
    absent); the perturbed sign is unrestricted. The input graph is never
    mutated.
    """
    if spec.clean:
        return graph
    values, onsite = perturb(graph, spec, disorder_draws(graph, spec, rng))
    return replace(graph, values=values, onsite=onsite)
