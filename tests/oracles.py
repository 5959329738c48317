"""Reference code the tests compare the package against.

The Wootters pipeline takes any two-qubit density matrix to its concurrence
and entanglement of formation (Wootters, PRL 80, 2245, 1998). No command
runs it: the package scores EOF by the closed form C = 2 |a_i| |a_j| of a
pure single-excitation state (:func:`spinnet.observables.pair_eofs`), and
the tests check that closed form against this pipeline.

The lookups at the end read one state, population or coupling by its
1-based label, as the tests' hand-picked cases do; no command needs them.
"""

from __future__ import annotations

import numpy as np

from spinnet.dynamics import Protocol, PureState, replace_samples, run_schedule
from spinnet.network import CouplingGraph
from spinnet.observables import eof_from_concurrence

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

TRACE_ATOL = 1e-8
NEGATIVITY_ATOL = 1e-10


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


def eof(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit density matrix, in [0, 1]."""
    return float(eof_from_concurrence(concurrence(rho)))


def state_at(graph: CouplingGraph, protocol: Protocol, t: float) -> PureState:
    """The state at one instant, skipping any other recording."""
    return run_schedule(graph, replace_samples(protocol, (t,))).states[0]


def population(state: PureState, site: int) -> float:
    return abs(state.amplitude(site)) ** 2


def coupling(graph: CouplingGraph, i: int, j: int) -> float:
    """The coupling J_ij of sites i != j, 0 where they share no edge."""
    i, j = min(i, j), max(i, j)
    hit = np.flatnonzero((graph.rows == i - 1) & (graph.cols == j - 1))
    return float(graph.values[hit[0]]) if hit.size else 0.0
