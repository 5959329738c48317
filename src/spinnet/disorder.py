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
matter which worker draws it: stream s draws what numpy's
``Generator(PCG64(SeedSequence((master_seed, s)))).standard_normal``
draws. The package computes those draws itself, for a whole block of
streams at once, in uint64 and float64 array arithmetic, and never imports
numpy's random package: :func:`seed_sequence_words` mixes the SeedSequence
pool, :func:`pcg64_states` takes PCG64's two seeding steps,
:func:`pcg64_outputs` jumps each stream ahead to its outputs, and
:func:`standard_normals` runs numpy's ziggurat on them. Tests pin each step
against numpy.

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
# M - 1 likewise, for the jump from a state to any later one
_M1_HIGH, _M1_LOW = _MULTIPLIER_HIGH, np.uint64((_PCG64_MULTIPLIER - 1) & (1 << 64) - 1)
_M1_LIMBS = (np.uint64((_PCG64_MULTIPLIER - 1) >> 32 & _MASK32),
             np.uint64((_PCG64_MULTIPLIER - 1) & _MASK32))
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_WORD, _ROTATION = np.uint64(64), np.uint64(58)
# C_0, C_1, ... of _step_columns as ints, and C_1, ... as uint64 columns
_STEP_SUMS = [0]
_step_high = _step_low = np.zeros(0, dtype=np.uint64)

# numpy's ziggurat: an output's 52-bit |r| lies above bit 9, and a uniform
# in [0, 1) is its top 53 bits; the tail starts at r = _TAIL_START
_NINE, _ELEVEN, _MANTISSA = np.uint64(9), np.uint64(11), np.uint64((1 << 52) - 1)
_DOUBLE_UNIT = 2.0 ** -53
_TAIL_START = 3.6541528853610087963519472518
_TAIL_INVERSE = 0.27366123732975827203338247596


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


def _high_product(a: np.ndarray, b_high: np.ndarray, b_low: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of ``a`` with b = b_high *
    2^32 + b_low, from the four 32-bit limb products; b's limbs are uint64
    constants or arrays that broadcast with ``a``."""
    a_high, a_low = a >> _LIMB, a & _LOW_LIMB
    low_high, high_low = a_low * b_high, a_high * b_low
    high = a_low * b_low  # in place from here, as a block's products are large
    high >>= _LIMB
    high += low_high & _LOW_LIMB
    high += high_low & _LOW_LIMB
    high >>= _LIMB  # the carry out of the middle limbs
    low_high >>= _LIMB
    high += low_high
    high_low >>= _LIMB
    high += high_low
    high += a_high * b_high
    return high


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


def _step_columns(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The sums C_k = 1 + M + ... + M^(k-1) mod 2^128 of PCG64's multiplier
    M for k = 1 ... count, as high and low uint64 columns, extended on demand."""
    global _step_high, _step_low
    if len(_step_low) < count:
        while len(_STEP_SUMS) <= max(count, 2 * len(_step_low)):
            _STEP_SUMS.append((_STEP_SUMS[-1] * _PCG64_MULTIPLIER + 1) & _MASK128)
        _step_high = np.array([c >> 64 for c in _STEP_SUMS[1:]], dtype=np.uint64)
        _step_low = np.array([c & _MASK64 for c in _STEP_SUMS[1:]], dtype=np.uint64)
    return _step_high[:count], _step_low[:count]


def pcg64_outputs(states: np.ndarray, count: int) -> np.ndarray:
    """PCG64's first ``count`` 64-bit outputs from each row of
    :func:`pcg64_states`, as a (B, count) uint64 array: numpy's
    ``random_raw(count)``.

    Output k is XSL-RR of the k-th state of the LCG from state s: its two
    halves xored, rotated right by its top six bits. That state is
    M^k s + C_k inc, and as M^k = (M - 1) C_k + 1 it is C_k T + s with
    T = (M - 1) s + inc: one 128-bit product per output.
    """
    state_high, state_low, inc_high, inc_low = np.ascontiguousarray(states.T)
    high = (_high_product(state_low, *_M1_LIMBS) + state_low * _M1_HIGH
            + state_high * _M1_LOW)
    t_high, t_low = _add128(high, state_low * _M1_LOW, inc_high, inc_low)
    c_high, c_low = _step_columns(count)
    # the products are outer products, (count, B) or (B, count); the longer
    # axis runs inside, as each pass calls its inner loop once per outer index
    streams_inside = len(states) > count
    if streams_inside:
        c_high, c_low = c_high[:, np.newaxis], c_low[:, np.newaxis]
    else:
        state_high, state_low, t_high, t_low = (column[:, np.newaxis] for column in
                                                (state_high, state_low, t_high, t_low))
    high = _high_product(c_low, t_low >> _LIMB, t_low & _LOW_LIMB)
    high += c_low * t_high
    high += c_high * t_low
    low = c_low * t_low
    low += state_low
    high += state_high
    high += low < state_low  # the carry out of the low limb
    rotation = high >> _ROTATION
    high ^= low  # the folded halves, rotated right by ``rotation`` below
    np.subtract(_WORD, rotation, out=low)
    low &= _WORD - _ONE
    np.left_shift(high, low, out=low)
    high >>= rotation
    high |= low
    return np.ascontiguousarray(high.T) if streams_inside else high


def standard_normals(states: np.ndarray, size: int) -> np.ndarray:
    """numpy's ``Generator(PCG64()).standard_normal(size)`` from each row of
    :func:`pcg64_states`, bit for bit, as one (B, size) float64 array.

    numpy's sampler is the ziggurat of Marsaglia and Tsang (J. Stat. Softw.
    5(8), 2000) on its own 256-strip tables. The block takes each row's
    outputs a few past ``size``; a row whose slow draws take more is drawn
    again from twice as many.
    """
    normals = np.empty((len(states), size))
    rows = np.arange(len(states))
    width = size + 5 + size // 16  # a row takes about 2% more outputs than draws
    while len(rows):
        done, values = _ziggurat(pcg64_outputs(states[rows], width), size)
        normals[rows[done]] = values
        rows, width = rows[~done], 2 * width
    return normals


def _ziggurat(outputs: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose ``outputs`` make ``size`` draws of numpy's
    ``random_standard_normal``, and those draws: (done, (done rows, size)).

    Output r gives strip i = r & 0xff, the sign bit 8 and a 52-bit |r| from
    bits 9-60, and x = +-|r| w_i, which is the draw when |r| < k_i. A slow
    draw (about 1.5%) takes more outputs: a wedge draw (i > 0) one uniform
    u, and it keeps x when (f_(i-1) - f_i) u + f_i < exp(-x^2 / 2); a tail
    draw (i = 0) two uniforms per try. So an output that follows a slow
    draw is no draw of its own; only rows where one slow draw follows
    another within its outputs are walked draw by draw. exp and log1p are
    libm's, through ``math``, as in numpy's C.
    """
    width = outputs.shape[1]
    outputs = outputs.ravel()
    strip = outputs.view(np.int64) & 0x1FF  # the strip and the sign
    rabs = outputs >> _NINE
    rabs &= _MANTISSA
    accepted = rabs < _KI_SIGNED[strip]
    x = rabs * _WI_SIGNED[strip]
    slow = np.flatnonzero(~accepted)  # flat indices, row by row
    rows, cols = np.divmod(slow, width)
    strip = strip[slow] & 0xFF
    ends = cols + 2  # past a slow draw's outputs: its own and a uniform
    tails = {}
    for j in np.flatnonzero(strip == 0).tolist():
        taken, tails[j] = _tail(outputs[slow[j] + 1:(rows[j] + 1) * width].tolist(),
                                int(rabs[slow[j]]))
        ends[j] += taken - 1
    starts = np.ones(len(slow), dtype=bool)
    clashes = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] < ends[:-1]))
    if len(clashes):  # walk each row with a clash, slow draw by slow draw
        walked = np.unique(rows[clashes])
        col_of, end_of = cols.tolist(), ends.tolist()
        for first, stop in zip(np.searchsorted(rows, walked).tolist(),
                               np.searchsorted(rows, walked + 1).tolist()):
            end = 0
            for j in range(first, stop):
                starts[j] = col_of[j] >= end
                end = end_of[j] if starts[j] else end
    short = starts & (ends > width)  # a draw the row's outputs cannot finish
    wedge = starts & ~short & (strip != 0)
    at, strip = slow[wedge], strip[wedge]
    uniforms = (outputs[at + 1] >> _ELEVEN) * _DOUBLE_UNIT
    density = [math.exp(-0.5 * v * v) for v in x[at].tolist()]
    accepted[at[_FI_STEP[strip] * uniforms + _FI[strip] < density]] = True
    accepted[at + 1] = False
    for j, draw in tails.items():
        if starts[j] and not short[j]:
            x[slow[j]] = draw
            accepted[slow[j]] = True
            accepted[slow[j] + 1:slow[j] - cols[j] + ends[j]] = False
    for j in np.flatnonzero(short).tolist():
        accepted[slow[j]:(rows[j] + 1) * width] = False
    x, accepted = x.reshape(-1, width), accepted.reshape(-1, width)
    count = np.cumsum(accepted, axis=1)
    done = count[:, -1] >= size
    keep = accepted & (count <= size)
    if not done.all():
        x, keep = x[done], keep[done]
    return done, x[keep].reshape(len(x), size)


def _tail(uniforms: list[int], rabs: int) -> tuple[int, float]:
    """numpy's draw from the normal's tail beyond _TAIL_START, two of the
    outputs ``uniforms`` per try: (the outputs it takes, the draw), or one
    more than there are, and nan, when they run out. The sign is bit 8 of |r|."""
    for used in range(2, len(uniforms) + 1, 2):
        first, second = uniforms[used - 2:used]
        xx = -_TAIL_INVERSE * math.log1p(-((first >> 11) * _DOUBLE_UNIT))
        yy = -math.log1p(-((second >> 11) * _DOUBLE_UNIT))
        if yy + yy > xx * xx:
            return used, -(_TAIL_START + xx) if rabs >> 8 & 1 else _TAIL_START + xx
    return len(uniforms) + 1, math.nan


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
    draws = standard_normals(pcg64_states(seed_sequence_words(master_seed, streams)), size)
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


# numpy's ziggurat tables (ki_double, wi_double and fi_double of its
# ziggurat_constants.h), copied from the distributions.c object in the static
# library that numpy's wheel ships for its C distributions; float64
# arithmetic cannot rebuild them from r and the strip area. Strip i keeps
# |r| < _KI[i] at once, scales |r| by _WI[i], and _FI[i] is the density at
# its edge.
_KI = np.array([
    0x0EF33D8025EF6A, 0x00000000000000, 0x0C08BE98FBC6A8, 0x0DA354FABD8142, 0x0E51F67EC1EEEA,
    0x0EB255E9D3F77E, 0x0EEF4B817ECAB9, 0x0F19470AFA44AA, 0x0F37ED61FFCB18, 0x0F4F469561255C,
    0x0F61A5E41BA396, 0x0F707A755396A4, 0x0F7CB2EC28449A, 0x0F86F10C6357D3, 0x0F8FA6578325DE,
    0x0F9724C74DD0DA, 0x0F9DA907DBF509, 0x0FA360F581FA74, 0x0FA86FDE5B4BF8, 0x0FACF160D354DC,
    0x0FB0FB6718B90F, 0x0FB49F8D5374C6, 0x0FB7EC2366FE77, 0x0FBAECE9A1E50E, 0x0FBDAB9D040BED,
    0x0FC03060FF6C57, 0x0FC2821037A248, 0x0FC4A67AE25BD1, 0x0FC6A2977AEE31, 0x0FC87AA92896A4,
    0x0FCA325E4BDE85, 0x0FCBCCE902231A, 0x0FCD4D12F839C4, 0x0FCEB54D8FEC99, 0x0FD007BF1DC930,
    0x0FD1464DD6C4E6, 0x0FD272A8E2F450, 0x0FD38E4FF0C91E, 0x0FD49A9990B478, 0x0FD598B8920F53,
    0x0FD689C08E99EC, 0x0FD76EA9C8E832, 0x0FD848547B08E8, 0x0FD9178BAD2C8C, 0x0FD9DD07A7ADD2,
    0x0FDA9970105E8C, 0x0FDB4D5DC02E20, 0x0FDBF95C5BFCD0, 0x0FDC9DEBB99A7D, 0x0FDD3B8118729D,
    0x0FDDD288342F90, 0x0FDE6364369F64, 0x0FDEEE708D514E, 0x0FDF7401A6B42E, 0x0FDFF46599ED40,
    0x0FE06FE4BC24F2, 0x0FE0E6C225A258, 0x0FE1593C28B84C, 0x0FE1C78CBC3F99, 0x0FE231E9DB1CAA,
    0x0FE29885DA1B91, 0x0FE2FB8FB54186, 0x0FE35B33558D4A, 0x0FE3B799D0002A, 0x0FE410E99EAD7F,
    0x0FE46746D47734, 0x0FE4BAD34C095C, 0x0FE50BAED29524, 0x0FE559F74EBC78, 0x0FE5A5C8E41212,
    0x0FE5EF3E138689, 0x0FE6366FD91078, 0x0FE67B75C6D578, 0x0FE6BE661E11AA, 0x0FE6FF55E5F4F2,
    0x0FE73E5900A702, 0x0FE77B823E9E39, 0x0FE7B6E37070A2, 0x0FE7F08D774243, 0x0FE8289053F08C,
    0x0FE85EFB35173A, 0x0FE893DC840864, 0x0FE8C741F0CEBC, 0x0FE8F9387D4EF6, 0x0FE929CC879B1D,
    0x0FE95909D388EA, 0x0FE986FB939AA2, 0x0FE9B3AC714866, 0x0FE9DF2694B6D5, 0x0FEA0973ABE67C,
    0x0FEA329CF166A4, 0x0FEA5AAB32952C, 0x0FEA81A6D5741A, 0x0FEAA797DE1CF0, 0x0FEACC85F3D920,
    0x0FEAF07865E63C, 0x0FEB13762FEC13, 0x0FEB3585FE2A4A, 0x0FEB56AE3162B4, 0x0FEB76F4E284FA,
    0x0FEB965FE62014, 0x0FEBB4F4CF9D7C, 0x0FEBD2B8F449D0, 0x0FEBEFB16E2E3E, 0x0FEC0BE31EBDE8,
    0x0FEC2752B15A15, 0x0FEC42049DAFD3, 0x0FEC5BFD29F196, 0x0FEC75406CEEF4, 0x0FEC8DD2500CB4,
    0x0FECA5B6911F12, 0x0FECBCF0C427FE, 0x0FECD38454FB15, 0x0FECE97488C8B3, 0x0FECFEC47F91B7,
    0x0FED1377358528, 0x0FED278F844903, 0x0FED3B10242F4C, 0x0FED4DFBAD586E, 0x0FED605498C3DD,
    0x0FED721D414FE8, 0x0FED8357E4A982, 0x0FED9406A42CC8, 0x0FEDA42B85B704, 0x0FEDB3C8746AB4,
    0x0FEDC2DF416652, 0x0FEDD171A46E52, 0x0FEDDF813C8AD3, 0x0FEDED0F909980, 0x0FEDFA1E0FD414,
    0x0FEE06AE124BC4, 0x0FEE12C0D95A06, 0x0FEE1E579006E0, 0x0FEE29734B6524, 0x0FEE34150AE4BC,
    0x0FEE3E3DB89B3C, 0x0FEE47EE2982F4, 0x0FEE51271DB086, 0x0FEE59E9407F41, 0x0FEE623528B42E,
    0x0FEE6A0B5897F1, 0x0FEE716C3E077A, 0x0FEE7858327B82, 0x0FEE7ECF7B06BA, 0x0FEE84D2484AB2,
    0x0FEE8A60B66343, 0x0FEE8F7ACCC851, 0x0FEE94207E25DA, 0x0FEE9851A829EA, 0x0FEE9C0E13485C,
    0x0FEE9F557273F4, 0x0FEEA22762CCAE, 0x0FEEA4836B42AC, 0x0FEEA668FC2D71, 0x0FEEA7D76ED6FA,
    0x0FEEA8CE04FA0A, 0x0FEEA94BE8333B, 0x0FEEA950296410, 0x0FEEA8D9C0075E, 0x0FEEA7E7897654,
    0x0FEEA678481D24, 0x0FEEA48AA29E83, 0x0FEEA21D22E4DA, 0x0FEE9F2E352024, 0x0FEE9BBC26AF2E,
    0x0FEE97C524F2E4, 0x0FEE93473C0A3A, 0x0FEE8E40557516, 0x0FEE88AE369C7A, 0x0FEE828E7F3DFD,
    0x0FEE7BDEA7B888, 0x0FEE749BFF37FF, 0x0FEE6CC3A9BD5E, 0x0FEE64529E007E, 0x0FEE5B45A32888,
    0x0FEE51994E57B6, 0x0FEE474A0006CF, 0x0FEE3C53E12C50, 0x0FEE30B2E02AD8, 0x0FEE2462AD8205,
    0x0FEE175EB83C5A, 0x0FEE09A22A1447, 0x0FEDFB27E349CC, 0x0FEDEBEA76216C, 0x0FEDDBE422047E,
    0x0FEDCB0ECE39D3, 0x0FEDB964042CF4, 0x0FEDA6DCE938C9, 0x0FED937237E98D, 0x0FED7F1C38A836,
    0x0FED69D2B9C02B, 0x0FED538D06AE00, 0x0FED3C41DEA422, 0x0FED23E76A2FD8, 0x0FED0A732FE644,
    0x0FECEFDA07FE34, 0x0FECD4100EB7B8, 0x0FECB708956EB4, 0x0FEC98B61230C1, 0x0FEC790A0DA978,
    0x0FEC57F50F31FE, 0x0FEC356686C962, 0x0FEC114CB4B335, 0x0FEBEB948E6FD0, 0x0FEBC429A0B692,
    0x0FEB9AF5EE0CDC, 0x0FEB6FE1C98542, 0x0FEB42D3AD1F9E, 0x0FEB13B00B2D4B, 0x0FEAE2591A02E9,
    0x0FEAAEAE992257, 0x0FEA788D8EE326, 0x0FEA3FCFFD73E5, 0x0FEA044C8DD9F6, 0x0FE9C5D62F563B,
    0x0FE9843BA947A4, 0x0FE93F471D4728, 0x0FE8F6BD76C5D6, 0x0FE8AA5DC4E8E6, 0x0FE859E07AB1EA,
    0x0FE804F690A940, 0x0FE7AB488233C0, 0x0FE74C751F6AA5, 0x0FE6E8102AA202, 0x0FE67DA0B6ABD8,
    0x0FE60C9F38307E, 0x0FE5947338F742, 0x0FE51470977280, 0x0FE48BD436F458, 0x0FE3F9BFFD1E37,
    0x0FE35D35EEB19C, 0x0FE2B5122FE4FE, 0x0FE20003995557, 0x0FE13C82788314, 0x0FE068C4EE67B0,
    0x0FDF82B02B71AA, 0x0FDE87C57EFEAA, 0x0FDD7509C63BFD, 0x0FDC46E529BF13, 0x0FDAF8F82E0282,
    0x0FD985E1B2BA75, 0x0FD7E6EF48CF04, 0x0FD613ADBD650B, 0x0FD40149E2F012, 0x0FD1A1A7B4C7AC,
    0x0FCEE204761F9E, 0x0FCBA8D85E11B2, 0x0FC7D26ECD2D22, 0x0FC32B2F1E22ED, 0x0FBD6581C0B83A,
    0x0FB606C4005434, 0x0FAC40582A2874, 0x0F9E971E014598, 0x0F89FA48A41DFC, 0x0F66C5F7F0302C,
    0x0F1A5A4B331C4A,
], dtype=np.uint64)
_WI = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17, 7.454870481247696e-17,
    8.3293668157931e-17, 9.068060405059482e-17, 9.714860076567762e-17, 1.0294750314241019e-16,
    1.0823430288447684e-16, 1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16, 1.3697864842571203e-16,
    1.4034823001242382e-16, 1.4359529452056943e-16, 1.4673208742364422e-16, 1.4976904668391037e-16,
    1.5271515003596198e-16, 1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16, 1.713417017655966e-16,
    1.737754436586486e-16, 1.7616331923000996e-16, 1.7850812316976727e-16, 1.8081240285799152e-16,
    1.830784876482675e-16, 1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16, 1.9803160683128174e-16,
    2.000566877627333e-16, 2.0205791562071654e-16, 2.0403638415480212e-16, 2.0599311887403706e-16,
    2.079290829041402e-16, 2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16, 2.2096924282235318e-16,
    2.2276773304789553e-16, 2.2455202529414355e-16, 2.263226755928568e-16, 2.280802138345017e-16,
    2.2982514554424684e-16, 2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16, 2.4172472704675025e-16,
    2.433845631371103e-16, 2.4503547622614954e-16, 2.466777995232705e-16, 2.4831185421610877e-16,
    2.4993795016204524e-16, 2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16, 2.6112170470670194e-16,
    2.6269412038597256e-16, 2.6426094988411895e-16, 2.658224191608307e-16, 2.6737874806323633e-16,
    2.689301506472616e-16, 2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16, 2.79668929362423e-16,
    2.8118802553450207e-16, 2.827039064324479e-16, 2.842167425218406e-16, 2.8572670107546015e-16,
    2.87233946347098e-16, 2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16, 2.977219284209029e-16,
    2.992130701386013e-16, 3.007028663321331e-16, 3.0219145919680615e-16, 3.036789894211802e-16,
    3.051655962978219e-16, 3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16, 3.1555744654528006e-16,
    3.1704154791040285e-16, 3.1852593363044065e-16, 3.2001073454440114e-16, 3.214960811527447e-16,
    3.2298210370394156e-16, 3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16, 3.3341411523123725e-16,
    3.3491023205407785e-16, 3.364081996918765e-16, 3.37908150518595e-16, 3.394102175841489e-16,
    3.409145347003126e-16, 3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16, 3.5151919672760744e-16,
    3.53046452078274e-16, 3.5457721079774357e-16, 3.5611161930983884e-16, 3.5764982583726505e-16,
    3.59191980508603e-16, 3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16, 3.7011067458828983e-16,
    3.716900855823823e-16, 3.7327490092779435e-16, 3.7486529645684887e-16, 3.7646145133120287e-16,
    3.7806354820089604e-16, 3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16, 3.894607570481926e-16,
    3.9111744183782054e-16, 3.9278189920805415e-16, 3.944543570720877e-16, 3.9613504910761354e-16,
    3.9782421502646826e-16, 3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16, 4.0990718603532664e-16,
    4.1167359738030257e-16, 4.134509635544236e-16, 4.1523960294026883e-16, 4.170398440568316e-16,
    4.1885202607101123e-16, 4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16, 4.3190263810026294e-16,
    4.338240305622791e-16, 4.357609972736849e-16, 4.3771402012585875e-16, 4.3968359995105214e-16,
    4.4167025761542035e-16, 4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16, 4.561035841567422e-16,
    4.582484498109567e-16, 4.604162081631153e-16, 4.626076619547846e-16, 4.648236531543207e-16,
    4.670650656712631e-16, 4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16, 4.835513029411525e-16,
    4.860340511450812e-16, 4.885526531353603e-16, 4.91108629959527e-16, 4.937035980240335e-16,
    4.963392774403987e-16, 4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16, 5.161000557743228e-16,
    5.191394311757699e-16, 5.222416338000234e-16, 5.254101724177597e-16, 5.286488569504945e-16,
    5.3196183453384e-16, 5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16, 5.576748932926576e-16,
    5.617895553555417e-16, 5.660408920082422e-16, 5.704404621291389e-16, 5.750013768919895e-16,
    5.797385945724594e-16, 5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16, 6.197089894581626e-16,
    6.268046963301284e-16, 6.344122407127506e-16, 6.426239659548055e-16, 6.515603317344994e-16,
    6.613827885097664e-16, 6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16, 8.113849337656484e-16,
])
_FI = np.array([
    1.0, 0.9771017012676716, 0.9598790918001067, 0.9451989534422996,
    0.9320600759592305, 0.919991505039347, 0.9087264400521309, 0.8980959218983434,
    0.8879846607558334, 0.8783096558089174, 0.869008688036857, 0.8600336211963315,
    0.851346258458678, 0.8429156531122042, 0.8347162929868834, 0.8267268339462214,
    0.8189291916037024, 0.8113078743126563, 0.8038494831709643, 0.796542330422959,
    0.7893761435660246, 0.7823418326548025, 0.7754313049811872, 0.7686373157984863,
    0.7619533468367954, 0.7553735065070961, 0.7488924472191568, 0.742505296340151,
    0.7362075981268627, 0.7299952645614762, 0.7238645334686302, 0.717811932630722,
    0.7118342488782484, 0.7059285013327543, 0.7000919181365116, 0.6943219161261167,
    0.6886160830046718, 0.6829721616449949, 0.6773880362187735, 0.6718617198970821,
    0.6663913439087501, 0.6609751477766631, 0.6556114705796973, 0.6502987431108167,
    0.6450354808208223, 0.6398202774530566, 0.6346517992876236, 0.6295287799248367,
    0.6244500155470265, 0.6194143606058343, 0.6144207238889139, 0.6094680649257734,
    0.6045553906974678, 0.5996817526191253, 0.5948462437679874, 0.590047996332826,
    0.5852861792633715, 0.5805599961007909, 0.5758686829723537, 0.5712115067352532,
    0.5665877632561644, 0.5619967758145243, 0.557437893618766, 0.5529104904258323,
    0.5484139632552658, 0.5439477311900263, 0.5395112342569521, 0.5351039323804576,
    0.5307253044036621, 0.5263748471716845, 0.5220520746723218, 0.5177565172297564,
    0.513487720747327, 0.5092452459957479, 0.5050286679434681, 0.5008375751261487,
    0.4966715690524897, 0.49253026364386854, 0.48841328470545803, 0.4843202694266833,
    0.48025086590904675, 0.47620473271950586, 0.4721815384677302, 0.4681809614056936,
    0.46420268904817436, 0.46024641781284287, 0.45631185267871643, 0.4523987068618485,
    0.44850670150720306, 0.4446355653957394, 0.440785034665804, 0.43695485254798555,
    0.43314476911265226, 0.4293545410294414, 0.42558393133802197, 0.4218327092294959,
    0.4181006498378482, 0.4143875340408911, 0.41069314827018816, 0.40701728432947337,
    0.4033597392211145, 0.3997203149801972, 0.39609881851583245, 0.3924950614593156,
    0.3889088600187887, 0.3853400348400773, 0.38178841087339366, 0.3782538172456192,
    0.37473608713789114, 0.3712350576682395, 0.3677505697790326, 0.36428246812900406,
    0.36083060098964803, 0.3573948201457805, 0.3539749808000768, 0.3505709414814061,
    0.34718256395679364, 0.3438097131468507, 0.34045225704452187, 0.33711006663700605,
    0.33378301583071845, 0.3304709813791636, 0.3271738428136014, 0.3238914823763911,
    0.32062378495690536, 0.3173706380299136, 0.3141319315963372, 0.3109075581262865,
    0.30769741250429206, 0.30450139197665, 0.30131939610080305, 0.2981513266966855,
    0.2949970877999618, 0.2918565856170952, 0.2887297284821829, 0.28561642681550176,
    0.2825165930837076, 0.27943014176163794, 0.2763569892956683, 0.27329705406857707,
    0.27025025636587546, 0.26721651834356147, 0.2641957639972612, 0.2611879191327212,
    0.25819291133761924, 0.25521066995466196, 0.2522411260559422, 0.24928421241852852,
    0.24633986350126383, 0.2434080154227503, 0.2404886059405006, 0.2375815744312381,
    0.23468686187233, 0.23180441082433872, 0.22893416541468034, 0.22607607132238028,
    0.22323007576391748, 0.220396127480152, 0.21757417672433113, 0.21476417525117358,
    0.21196607630703018, 0.20917983462112508, 0.2064054063978808, 0.2036427493103349,
    0.2008918224946566, 0.19815258654577514, 0.1954250035141343, 0.19270903690358918,
    0.19000465167046499, 0.1873118142238003, 0.18463049242679927, 0.18196065559952251,
    0.17930227452284758, 0.17665532144373486, 0.17401977008183855, 0.17139559563750575,
    0.1687827748012113, 0.1661812857644819, 0.16359110823236558, 0.161012223437511,
    0.15844461415592428, 0.1558882647244792, 0.15334316106026286, 0.15080929068184568,
    0.14828664273257455, 0.14577520800599403, 0.14327497897351346, 0.1407859498144447,
    0.13830811644855073, 0.13584147657125376, 0.13338602969166916, 0.13094177717364436,
    0.12850872227999957, 0.1260868702201859, 0.12367622820159657, 0.1212768054847903,
    0.11888861344291006, 0.11651166562561087, 0.11414597782783849, 0.11179156816383809,
    0.1094484571468118, 0.1071166677746838, 0.10479622562248707, 0.10248715894193525,
    0.10018949876881002, 0.09790327903886246, 0.095628536713009, 0.09336531191269101,
    0.09111364806637376, 0.08887359206827589, 0.08664519445055807, 0.08442850957035347,
    0.0822235958132029, 0.08003051581466307, 0.07784933670209612, 0.07568013035892718,
    0.07352297371398132, 0.0713779490588904, 0.06924514439700676, 0.0671246538277885,
    0.0650165779712429, 0.06292102443775814, 0.06083810834953988, 0.05876795292093374,
    0.0567106901062029, 0.05466646132488892, 0.05263541827679219, 0.05061772386094778,
    0.04861355321586854, 0.04662309490193038, 0.044646552251294463, 0.04268414491647446,
    0.04073611065594094, 0.03880270740452615, 0.036884215688567305, 0.034980941461716125,
    0.03309321945857858, 0.0312214171919203, 0.02936593975813336, 0.027527235669603113,
    0.02570580400854891, 0.02390220330579588, 0.02211706270730885, 0.02035109623004451,
    0.018605121275724622, 0.016880083152543142, 0.01517708830793531, 0.013497450601739867,
    0.011842757857907879, 0.010214971439701459, 0.008616582769398726, 0.007050875471373222,
    0.0055224032992509916, 0.0040379725933630236, 0.0026090727461021593, 0.001260285930498598,
])
# indexed by the strip and the sign bit, r & 0x1ff: -(|r| w) = |r| (-w) exactly
_KI_SIGNED = np.concatenate([_KI, _KI])
_WI_SIGNED = np.concatenate([_WI, -_WI])
_FI_STEP = np.concatenate([[math.nan], _FI[:-1] - _FI[1:]])  # f_(i-1) - f_i
