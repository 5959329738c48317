"""Perfect-state-transfer chains and their fusion into spin networks.

A chain of length N with coupling profile J_{ i,i+1 } = J0 sqrt(i (N - i))
transfers a single excitation end-to-end with unit fidelity at the mirror
time t_m = pi / (2 J0). Networks are built from such chains by conjugating
the block-diagonal Hamiltonian with a unitary that is the identity except
for 2x2 Hadamard blocks on each fused site pair (last site of one chain,
first site of the next). The conjugation preserves the spectrum by
construction and turns each fused pair into a four-site "diamond" with one
negative coupling.

Site labels are 1-based in the public API (edge lists, protocols,
``CouplingGraph.edges``), matching the usual device diagrams; a graph's
edge and on-site arrays are indexed from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

import numpy as np

from .linalg import frozen_array

SQRT2 = math.sqrt(2.0)

# Entries of U H U† below this fraction of the largest coupling are
# cancellation residue, not edges.
EDGE_PRUNE_RTOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """A PST chain: number of sites and the peak coupling at its middle."""

    length: int
    j_max: float = 1.0

    def __post_init__(self) -> None:
        if self.length < 2:
            raise ValueError(f"chain length must be >= 2, got {self.length}")
        if not 0 < self.j_max < math.inf:
            raise ValueError(f"j_max must be positive and finite, got {self.j_max}")

    @property
    def mirror_time(self) -> float:
        return mirror_time(self.length, self.j_max)


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered sequence of chains; consecutive chains are fused.

    Chain k's sites follow chain k-1's in the global 1-based numbering, and
    the fused pair of junction k is (last site of chain k, first site of
    chain k+1).
    """

    chains: tuple[ChainSpec, ...]

    def __init__(self, chains: Iterable[ChainSpec]):
        object.__setattr__(self, "chains", tuple(chains))
        if not self.chains:
            raise ValueError("a network needs at least one chain")

    @property
    def n_sites(self) -> int:
        return sum(c.length for c in self.chains)

    @property
    def junction_pairs(self) -> tuple[tuple[int, int], ...]:
        """Fused (site, site+1) pairs, one per junction."""
        pairs = []
        offset = 0
        for chain in self.chains[:-1]:
            offset += chain.length
            pairs.append((offset, offset + 1))
        return tuple(pairs)

    @property
    def mirror_times(self) -> tuple[float, ...]:
        return tuple(c.mirror_time for c in self.chains)


def coupling_j0(n: int, j_max: float) -> float:
    """Base coupling scale for which the chain's peak coupling equals j_max."""
    if n < 2:
        raise ValueError(f"chain length must be >= 2, got {n}")
    if n % 2 == 0:
        return 2.0 * j_max / n
    return j_max / math.sqrt(n * n / 4.0 - 0.25)


def pst_couplings(n: int, j_max: float = 1.0) -> np.ndarray:
    """The n-1 nearest-neighbour couplings J0 sqrt(i (n - i)), i = 1..n-1."""
    j0 = coupling_j0(n, j_max)
    i = np.arange(1, n)
    return j0 * np.sqrt(i * (n - i))


def mirror_time(n: int, j_max: float = 1.0) -> float:
    """Time at which the chain maps site i onto site n+1-i."""
    return math.pi / (2.0 * coupling_j0(n, j_max))


@dataclass(frozen=True)
class CouplingGraph:
    """The single-excitation Hamiltonian in sparse form, as read-only arrays.

    Edge e couples the 0-based sites ``rows[e] < cols[e]`` by ``values[e]``
    (any sign; an explicit zero is still an edge). The pairs are distinct
    and sorted, which fixes the order in which off-diagonal disorder draws
    one value per edge; ``onsite[i]`` is the energy of 0-based site i.
    :meth:`edges` and :meth:`coupling` give the 1-based view.
    """

    n_sites: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    onsite: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("rows", np.intp), ("cols", np.intp), ("values", float),
                            ("onsite", float)):
            object.__setattr__(self, name, frozen_array(np.asarray(getattr(self, name), dtype)))
        n, rows, cols = self.n_sites, self.rows, self.cols
        if self.onsite.shape != (n,):
            raise ValueError(f"onsite energies have shape {self.onsite.shape}, expected ({n},)")
        if not (rows.ndim == 1 and rows.shape == cols.shape == self.values.shape):
            raise ValueError("rows, cols and values must be 1-D arrays of one length")
        if not (np.all(0 <= rows) and np.all(rows < cols) and np.all(cols < n)):
            raise ValueError(f"edges need 0 <= row < col < {n}")
        if np.any(np.diff(rows * n + cols) <= 0):
            raise ValueError("edges must be distinct and sorted by site pair")

    def coupling(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("no self-couplings")
        i, j = min(i, j), max(i, j)
        hit = np.flatnonzero((self.rows == i - 1) & (self.cols == j - 1))
        return float(self.values[hit[0]]) if hit.size else 0.0

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as 1-based (i, j, J) with i < j, sorted by site pair."""
        return [(i + 1, j + 1, value) for i, j, value
                in zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist())]

    def assemble(self, values: np.ndarray, onsite: np.ndarray) -> np.ndarray:
        """Real symmetric (..., N, N) Hamiltonians on this graph's edges from
        couplings ``values`` (..., E) and site energies ``onsite`` (..., N),
        whose leading axes broadcast."""
        n = self.n_sites
        h = np.zeros(np.broadcast_shapes(values.shape[:-1], onsite.shape[:-1]) + (n, n))
        h[..., self.rows, self.cols] = values
        h[..., self.cols, self.rows] = values
        sites = np.arange(n)
        h[..., sites, sites] = onsite
        return h

    def to_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix: H[i-1, j-1] = J_ij, H[i-1, i-1] = eps_i."""
        return self.assemble(self.values, self.onsite).astype(complex)


def chain_graph(spec: ChainSpec) -> CouplingGraph:
    """Path graph with the PST coupling profile and zero on-site energies."""
    return block_graph(NetworkSpec([spec]))


def block_graph(spec: NetworkSpec) -> CouplingGraph:
    """Uncoupled chains side by side (block-diagonal Hamiltonian)."""
    starts = np.cumsum([0] + [chain.length for chain in spec.chains])
    rows = np.concatenate([np.arange(a, b - 1) for a, b in zip(starts[:-1], starts[1:])])
    values = np.concatenate([pst_couplings(c.length, c.j_max) for c in spec.chains])
    return CouplingGraph(spec.n_sites, rows, rows + 1, values, np.zeros(spec.n_sites))


def join_unitary(spec: NetworkSpec) -> np.ndarray:
    """The fusing unitary: identity with a 2x2 Hadamard block on each
    junction pair, second row (1, -1)/sqrt(2)."""
    n = spec.n_sites
    u = np.eye(n)
    for (p, q) in spec.junction_pairs:
        u[p - 1 : q, p - 1 : q] = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
    return u


def hadamard_join(spec: NetworkSpec) -> CouplingGraph:
    """Fuse the chains of ``spec`` into one network: H' = U H U†.

    The conjugation is carried out literally on the block-diagonal matrix,
    so spectrum preservation is structural rather than assumed; the
    resulting edge pattern (the junction diamonds with one negative
    coupling each) falls out of the product.
    """
    if len(spec.chains) < 2:
        raise ValueError("fusing needs at least two chains")
    pairs = spec.junction_pairs
    used: set[int] = set()
    for (p, q) in pairs:
        if p in used or q in used:
            raise ValueError(f"junction pair ({p}, {q}) overlaps a previous junction")
        used.update((p, q))

    h = block_graph(spec).to_matrix().real
    u = join_unitary(spec)
    h2 = u @ h @ u.T

    scale = float(np.max(np.abs(h2))) or 1.0
    # row-major order of the upper triangle is site-pair order
    rows, cols = np.nonzero(np.triu(np.abs(h2) > EDGE_PRUNE_RTOL * scale, 1))
    n = spec.n_sites
    return CouplingGraph(n, rows, cols, h2[rows, cols], np.zeros(n))


def network_graph(spec: NetworkSpec) -> CouplingGraph:
    """Graph for a spec of any size: bare chain if single, fused otherwise."""
    if len(spec.chains) == 1:
        return chain_graph(spec.chains[0])
    return hadamard_join(spec)


def retune_jmax(spec: NetworkSpec, target_chain: int, reference_chain: int) -> NetworkSpec:
    """Rescale one chain's peak coupling so its mirror time matches another's.

    Chain indices are 1-based. Retuning a chain to itself is a no-op.
    """
    t_ref = spec.chains[_chain_index(spec, reference_chain)].mirror_time
    k = _chain_index(spec, target_chain)
    n = spec.chains[k].length
    if n % 2 == 0:
        j_new = math.pi * n / (4.0 * t_ref)
    else:
        j_new = math.pi * math.sqrt((n * n - 1) / 4.0) / (2.0 * t_ref)
    chains = list(spec.chains)
    chains[k] = replace(chains[k], j_max=j_new)
    return NetworkSpec(chains)


def _chain_index(spec: NetworkSpec, k: int) -> int:
    if not 1 <= k <= len(spec.chains):
        raise ValueError(f"chain index {k} out of range 1..{len(spec.chains)}")
    return k - 1


def write_edge_list(graph: CouplingGraph, out: TextIO) -> None:
    """Plain-text export: one `i j J_ij` line per edge, then `site i eps_i`
    lines, 1-based indices."""
    for i, j, value in graph.edges():
        out.write(f"{i} {j} {float(value)!r}\n")
    for i in range(1, graph.n_sites + 1):
        out.write(f"site {i} {float(graph.onsite[i - 1])!r}\n")


def read_edge_list(source: TextIO) -> CouplingGraph:
    """Parse the edge-list format written by :func:`write_edge_list`; a zero
    coupling is still an edge, and a repeated site pair is an error."""
    edges: list[tuple[int, int, float]] = []
    onsite: dict[int, float] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 3:
                raise ValueError
            if parts[0] == "site":
                site = int(parts[1])
                if site < 1:
                    raise ValueError
                onsite[site] = float(parts[2])
            else:
                i, j = sorted((int(parts[0]), int(parts[1])))
                if i == j:
                    raise ValueError
                edges.append((i, j, float(parts[2])))
        except ValueError:
            raise ValueError(f"edge list line {lineno}: cannot parse {raw.rstrip()!r}")
    edges.sort()
    n = max([j for _, j, _ in edges] + list(onsite) + [1])
    eps = np.zeros(n)
    for i, value in onsite.items():
        eps[i - 1] = value
    pairs = np.array([(i - 1, j - 1) for i, j, _ in edges], dtype=np.intp).reshape(-1, 2)
    return CouplingGraph(n, pairs[:, 0], pairs[:, 1], [value for *_, value in edges], eps)
