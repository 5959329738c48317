"""Fidelity, two-site reduced states, concurrence / EOF, ensemble statistics.

For a pure single-excitation state the reduced state of two sites is an
X-shaped 4x4 matrix whose concurrence collapses to 2 |a_i| |a_j| (Wootters,
PRL 80, 2245, 1998). Every merit of a pure state, one state or a stack,
goes through the two stack kernels :func:`fidelities` and
:func:`pair_eofs`; a single state is a one-row stack, so it gets the same
bits as in any stack. The full Wootters pipeline (:func:`reduce_two_sites`,
:func:`concurrence`, :func:`eof`) takes any two-qubit density matrix and is
the reference the closed form is tested against.

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

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

TRACE_ATOL = 1e-8
NEGATIVITY_ATOL = 1e-10


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


def reduce_two_sites(state: PureState, i: int, j: int) -> np.ndarray:
    """Reduced density matrix of sites (i, j), basis |00>, |01>, |10>, |11>.

    Qubit order is (site i, site j); |01> means the excitation sits at j.
    Everything else is traced out. With a single excitation the |11> row and
    column are identically zero.
    """
    if i == j:
        raise ValueError("need two distinct sites")
    a_i = state.amplitude(i)
    a_j = state.amplitude(j)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = max(0.0, 1.0 - abs(a_i) ** 2 - abs(a_j) ** 2)
    rho[1, 1] = abs(a_j) ** 2
    rho[2, 2] = abs(a_i) ** 2
    rho[1, 2] = a_j * np.conj(a_i)
    rho[2, 1] = a_i * np.conj(a_j)
    return rho


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence of a 4x4 density matrix (Wootters form).

    C = max(0, l1 - l2 - l3 - l4) with l_k the descending square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy). Those eigenvalues are
    computed through the similar Hermitian matrix sqrt(rho) rho~ sqrt(rho),
    which keeps the whole pipeline at Hermitian-eigensolver accuracy. Tiny
    negative eigenvalues are numerical noise and are clamped; anything
    beyond the tolerance means the input is not a density matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace {trace} deviates from 1")
    if float(np.max(np.abs(rho - rho.conj().T))) > TRACE_ATOL:
        raise ValueError("density matrix is not Hermitian")
    w, v = np.linalg.eigh(rho)
    if float(w.min()) < -NEGATIVITY_ATOL:
        raise ValueError(f"density matrix eigenvalue {w.min()} is negative beyond tolerance")
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    # the l_k are the singular values of sqrt(rho) (sy x sy) sqrt(rho)*,
    # since B B† = sqrt(rho) rho~ sqrt(rho) is similar to rho rho~; the SVD
    # yields the square roots directly, with no noise amplification at 0
    b = sqrt_rho @ _YY @ sqrt_rho.conj()
    roots = np.linalg.svd(b, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


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


def eof(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit density matrix, in [0, 1]."""
    return float(eof_from_concurrence(concurrence(rho)))


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
    """Per-realization observable values with order-independent reduction."""

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
        if not self.values:
            raise ValueError("no values accumulated")
        return math.fsum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation (0 for a single realization)."""
        k = len(self.values)
        if k == 0:
            raise ValueError("no values accumulated")
        first = self.values[0]
        if k == 1 or all(v == first for v in self.values):
            return 0.0
        m = self.mean
        return math.sqrt(math.fsum((v - m) ** 2 for v in self.values) / (k - 1))

    @property
    def std_of_mean(self) -> float:
        return self.std / math.sqrt(len(self.values))


def ensemble_average(values: Sequence[float]) -> tuple[float, float, float]:
    """(mean, sample std, std of the mean) of per-realization observables."""
    acc = EnsembleAccumulator()
    acc.extend(values)
    return acc.mean, acc.std, acc.std_of_mean

