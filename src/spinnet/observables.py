"""Fidelity, closed-form EOF, ensemble statistics.

For a pure single-excitation state the reduced state of two sites is an
X-shaped 4x4 matrix whose concurrence collapses to 2 |a_i| |a_j| (Wootters,
PRL 80, 2245, 1998). Every merit of a pure state, one state or a stack,
goes through the two stack kernels :func:`fidelities` and
:func:`pair_eofs`; a single state is a one-row stack, so it gets the same
bits as in any stack. The tests check the closed form against the full
Wootters pipeline of ``tests/oracles.py``.

Ensemble statistics keep the per-realization values and reduce them with
exactly-rounded summation, so the mean and spread do not depend on the
order in which the values were added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dynamics import PureState


def fidelity(state: PureState, target: PureState) -> float:
    """|<target|state>|^2 - global-phase insensitive, in [0, 1]."""
    return float(fidelities(state.amplitudes, target)[0])


def _rows(amplitudes: np.ndarray) -> np.ndarray:
    """``amplitudes`` as a 2-D stack, one state per row: numpy rounds a 1-D
    reduction differently from the same state's row in a stack."""
    amplitudes = np.asarray(amplitudes)
    return amplitudes.reshape(-1, amplitudes.shape[-1])


def fidelities(amplitudes: np.ndarray, target: PureState) -> np.ndarray:
    """:func:`fidelity` of every row of ``amplitudes``, a 2-D stack of states
    (a single state is a one-row stack).

    The overlap is an elementwise product summed per row, not a BLAS
    matrix-vector product, whose rounding depends on how many states it gets.
    """
    rows = _rows(amplitudes)
    if rows.shape[1] != target.n_sites:
        raise ValueError("states live on different site counts")
    overlaps = np.sum(rows * target.amplitudes.conj(), axis=-1)
    return np.minimum(1.0, np.abs(overlaps) ** 2)


def binary_entropy(x: float | np.ndarray) -> np.ndarray:
    """H2(x) in bits, elementwise; 0 at and beyond the endpoints 0 and 1."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    p = np.where(inside, x, 0.5)
    return np.where(inside, -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p), 0.0)


def eof_from_concurrence(c: float | np.ndarray) -> np.ndarray:
    """EOF from the concurrence, elementwise; c is clipped to [0, 1]."""
    c = np.clip(c, 0.0, 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def eof_pair(state: PureState, i: int, j: int) -> float:
    """EOF of sites (i, j), 1-based, of a pure single-excitation state."""
    return float(pair_eofs(state.amplitudes, i, j)[0])


def pair_eofs(amplitudes: np.ndarray, i: int, j: int) -> np.ndarray:
    """EOF of sites (i, j), 1-based, for every pure single-excitation state
    in the rows of ``amplitudes``, a 2-D stack, from C = 2 |a_i| |a_j|."""
    rows = _rows(amplitudes)
    n = rows.shape[-1]
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"need two distinct sites in 1..{n}, got ({i}, {j})")
    c = 2.0 * np.abs(rows[:, i - 1]) * np.abs(rows[:, j - 1])
    return eof_from_concurrence(c)


@dataclass
class EnsembleAccumulator:
    """Per-realization observable values with order-independent reduction;
    each statistic is one of :func:`ensemble_average`. The ensembles of
    :mod:`spinnet.sweep` keep their values in float64 arrays instead; the
    bench's one-device replay collects with this."""

    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        self.values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return ensemble_average(self.values)[0]

    @property
    def std(self) -> float:
        return ensemble_average(self.values)[1]

    @property
    def std_of_mean(self) -> float:
        return ensemble_average(self.values)[2]


def ensemble_average(values: Sequence[float]) -> tuple[float, float, float]:
    """(mean, sample std, std of the mean) of per-realization observables,
    from one exactly-rounded sum each; the std is 0 for a single realization
    or equal values."""
    k = len(values)
    if k == 0:
        raise ValueError("no values accumulated")
    mean = math.fsum(values) / k
    first = values[0]
    if k == 1 or all(v == first for v in values):
        std = 0.0
    else:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (k - 1))
    return mean, std, std / math.sqrt(k)
