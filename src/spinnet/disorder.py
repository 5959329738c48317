"""Static disorder realizations of a coupling graph.

Two kinds of fabrication error are modelled: off-diagonal (every existing
coupling picks up E * d with d drawn from a zero-mean Gaussian of width
GAUSSIAN_WIDTH = 1/(2 sqrt 3)) and diagonal (the same perturbation lands on
each on-site energy). A disorder setting is its kind and its strength E,
nothing else: the error is relative to J_max = 1, the global energy unit,
not to a per-chain peak coupling, so retuned networks see the same
absolute error level.

Reproducibility: every realization is addressed by (master seed, stream
index). The same address always yields the same graph, bit for bit, no
matter which worker draws it: stream s draws from numpy's
``Generator(PCG64(SeedSequence((master_seed, s))))``. Those generator
states are computed for a whole block of streams at once, in uint64 array
arithmetic: :func:`seed_sequence_words` mixes the SeedSequence pool and
:func:`pcg64_states` takes PCG64's two seeding steps. :func:`stream_draws`
sets one generator to each state of the block in turn and draws straight
into the block.

One rule applies the draws: :func:`perturb` adds the :func:`stream_draws`
of a block of streams (``sweep.hamiltonian_blocks``) or of one
(:func:`sample_disorder`) to the graph's
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

# The largest E, J_max: the Chebyshev series' Bessel table grows with E (read
# at 200*t_m, an N = 4 router sweep peaked at 101 MiB RSS at E = 1, 374 at 10).
MAX_STRENGTH = 1.0

# Master seeds and stream indices lie below 2^64: at most two 32-bit words
# each, so a (seed, stream) address fits the four-word SeedSequence pool.
SEED_LIMIT = 1 << 64

# numpy's SeedSequence hash mixer (M. E. O'Neill, "Developing a seed_seq
# alternative", pcg-random.org, 2015) and PCG64's seeding (O'Neill,
# HMC-CS-2014-0905), recomputed here for a block of streams at once; a
# property test pins both against numpy. Hash k xors its input with
# constant k, multiplies it by constant k + 1 and folds the high half in.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit multiplier as its high and low 64 bits, the low half also
# as two 32-bit limbs; every constant is a uint64, so no operand is cast
# under any numpy's promotion rules
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MULTIPLIER_HIGH = np.uint64(_PCG64_MULTIPLIER >> 64)
_MULTIPLIER_LOW = np.uint64(_PCG64_MULTIPLIER & (1 << 64) - 1)
_MULTIPLIER_LIMBS = (np.uint64(_PCG64_MULTIPLIER >> 32 & _MASK32),
                     np.uint64(_PCG64_MULTIPLIER & _MASK32))
_LIMB, _LOW_LIMB = np.uint64(32), np.uint64(_MASK32)
_ONE, _TOP_BIT = np.uint64(1), np.uint64(63)


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


def _add128(high: np.ndarray, low: np.ndarray, other_high: np.ndarray,
            other_low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit sums (high, low) + (other_high, other_low) mod 2^128."""
    low = low + other_low
    return high + other_high + (low < other_low), low  # the carry out of the low limb


def _high_product(a: np.ndarray, b_high: np.uint64, b_low: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit products of ``a`` with the 64-bit
    constant b = b_high * 2^32 + b_low, from the four 32-bit limb products."""
    a_high, a_low = a >> _LIMB, a & _LOW_LIMB
    low_low, low_high, high_low = a_low * b_low, a_low * b_high, a_high * b_low
    middle = (low_low >> _LIMB) + (low_high & _LOW_LIMB) + (high_low & _LOW_LIMB)
    return a_high * b_high + (low_high >> _LIMB) + (high_low >> _LIMB) + (middle >> _LIMB)


def pcg64_states(words: np.ndarray) -> np.ndarray:
    """The state and increment of ``PCG64`` seeded with each row of
    :func:`seed_sequence_words` (seed, then increment, each as its high and
    low 64 bits), as one (B, 4) uint64 array of rows (state high, state low,
    increment high, increment low).

    PCG64 takes two steps of its 128-bit LCG, the first from state 0, the
    second after adding the seed: state = (inc + seed) * multiplier + inc,
    inc = 2 * increment + 1, mod 2^128.
    """
    seed_high, seed_low, inc_high, inc_low = words.T
    inc_high = inc_high << _ONE | inc_low >> _TOP_BIT
    inc_low = inc_low << _ONE | _ONE
    high, low = _add128(inc_high, inc_low, seed_high, seed_low)
    high = (_high_product(low, *_MULTIPLIER_LIMBS) + low * _MULTIPLIER_HIGH
            + high * _MULTIPLIER_LOW)
    high, low = _add128(high, low * _MULTIPLIER_LOW, inc_high, inc_low)
    return np.stack([high, low, inc_high, inc_low], axis=1)


@dataclass(frozen=True)
class DisorderSpec:
    """Disorder kind and dimensionless strength E; the one owner of their rule."""

    kind: str = "none"
    strength: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown disorder kind {self.kind!r}, expected one of {KINDS}")
        if not 0 <= self.strength <= MAX_STRENGTH:
            raise ValueError(f"disorder strength must be finite and >= 0 and at most "
                             f"{MAX_STRENGTH:g}, got {self.strength}")

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


def stream_draws(graph: CouplingGraph, spec: DisorderSpec, master_seed: int,
                 streams: Sequence[int]) -> np.ndarray:
    """The perturbations each of ``streams`` adds to ``graph`` under a
    disordered spec, one row per stream.

    Off-diagonal disorder draws one value per existing edge, in edge order,
    for its coupling; diagonal disorder one value per site, for its on-site
    energy. Each value is E * d with d ~ N(0, GAUSSIAN_WIDTH^2), drawn from
    the stream's own generator state.
    """
    size = len(graph.values) if spec.kind == "off_diagonal" else graph.n_sites
    draws = np.empty((len(streams), size))
    # one generator, set to the start of each stream in turn; its own seed
    # is never drawn from
    generator = np.random.Generator(np.random.PCG64())
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    # one row's Python ints at a time: a whole block's list of them, 1000
    # streams, raised a sweep's peak RSS by 0.45 MiB
    for row, words in zip(draws, pcg64_states(seed_sequence_words(master_seed, streams))):
        state_high, state_low, inc_high, inc_low = words.tolist()
        pcg["state"], pcg["inc"] = state_high << 64 | state_low, inc_high << 64 | inc_low
        generator.bit_generator.state = state
        generator.standard_normal(out=row)
    # numpy's normal(0.0, width) is 0.0 + width * z: the zero turns a -0.0 into +0.0
    draws *= GAUSSIAN_WIDTH
    draws += 0.0
    draws *= spec.strength
    return draws


def perturb(graph: CouplingGraph, spec: DisorderSpec,
            draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(couplings, on-site energies) of ``graph`` with ``draws`` added to the
    one that ``spec.kind`` perturbs; ``draws`` holds one stream's row of
    :func:`stream_draws` or a stack of them along leading axes."""
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
    draws = stream_draws(graph, spec, rng.master_seed, (rng.stream,))[0]
    values, onsite = perturb(graph, spec, draws)
    return replace(graph, values=values, onsite=onsite)
