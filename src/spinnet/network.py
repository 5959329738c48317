"""Perfect-state-transfer chains and their fusion into spin networks.

A chain of length N with coupling profile J_{ i,i+1 } = J0 sqrt(i (N - i))
transfers a single excitation end-to-end with unit fidelity at the mirror
time t_m = pi / (2 J0). Networks are built from such chains by conjugating
the block-diagonal Hamiltonian with a unitary that is the identity except
for 2x2 Hadamard blocks on each fused site pair (last site of one chain,
first site of the next). The conjugation preserves the spectrum by
construction and turns each fused pair into a four-site "diamond" with one
negative coupling.

Site labels are 1-based everywhere in the public API, matching the usual
device diagrams; array indices are 0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
        if not self.j_max > 0:
            raise ValueError(f"j_max must be positive, got {self.j_max}")

    @property
    def j0(self) -> float:
        return coupling_j0(self.length, self.j_max)

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
    """Symmetric coupling map plus on-site energies: the single-excitation
    Hamiltonian in sparse form.

    ``couplings`` maps 1-based pairs (i, j) with i < j to J_ij (sign
    unrestricted); ``onsite`` holds the 1-based site energies (index 0 is
    site 1). Instances are treated as immutable: disorder and editing
    produce new graphs.
    """

    n_sites: int
    couplings: dict[tuple[int, int], float]
    onsite: np.ndarray
    spec: NetworkSpec | None = None

    def __post_init__(self) -> None:
        onsite = frozen_array(np.asarray(self.onsite, dtype=float))
        object.__setattr__(self, "onsite", onsite)
        if onsite.shape != (self.n_sites,):
            raise ValueError(
                f"onsite energies have shape {onsite.shape}, expected ({self.n_sites},)"
            )
        for (i, j) in self.couplings:
            if not (1 <= i < j <= self.n_sites):
                raise ValueError(f"bad coupling key ({i}, {j}) for {self.n_sites} sites")

    def coupling(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("no self-couplings")
        key = (i, j) if i < j else (j, i)
        return self.couplings.get(key, 0.0)

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, J) sorted by site pair."""
        return [(i, j, self.couplings[(i, j)]) for (i, j) in sorted(self.couplings)]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as arrays, sorted by site pair: 0-based rows (i - 1),
        0-based columns (j - 1, with i < j) and couplings."""
        edges = self.edges()
        rows = np.array([i - 1 for i, _, _ in edges], dtype=np.intp)
        cols = np.array([j - 1 for _, j, _ in edges], dtype=np.intp)
        return rows, cols, np.array([value for _, _, value in edges], dtype=float)

    def to_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix: H[i-1, j-1] = J_ij, H[i-1, i-1] = eps_i."""
        h = np.zeros((self.n_sites, self.n_sites), dtype=complex)
        for (i, j), value in self.couplings.items():
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        h[np.diag_indices(self.n_sites)] = self.onsite
        return h


def chain_graph(spec: ChainSpec) -> CouplingGraph:
    """Path graph with the PST coupling profile and zero on-site energies."""
    js = pst_couplings(spec.length, spec.j_max)
    couplings = {(i, i + 1): float(js[i - 1]) for i in range(1, spec.length)}
    return CouplingGraph(
        n_sites=spec.length,
        couplings=couplings,
        onsite=np.zeros(spec.length),
        spec=NetworkSpec([spec]),
    )


def block_graph(spec: NetworkSpec) -> CouplingGraph:
    """Uncoupled chains side by side (block-diagonal Hamiltonian)."""
    couplings: dict[tuple[int, int], float] = {}
    offset = 0
    for chain in spec.chains:
        js = pst_couplings(chain.length, chain.j_max)
        for i in range(1, chain.length):
            couplings[(offset + i, offset + i + 1)] = float(js[i - 1])
        offset += chain.length
    return CouplingGraph(spec.n_sites, couplings, np.zeros(spec.n_sites), spec=spec)


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
    couplings: dict[tuple[int, int], float] = {}
    n = spec.n_sites
    for a in range(n):
        for b in range(a + 1, n):
            value = h2[a, b]
            if abs(value) > EDGE_PRUNE_RTOL * scale:
                couplings[(a + 1, b + 1)] = float(value)
    return CouplingGraph(n, couplings, np.zeros(n), spec=spec)


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
    """Parse the edge-list format written by :func:`write_edge_list`."""
    couplings: dict[tuple[int, int], float] = {}
    onsite: dict[int, float] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "site":
                if len(parts) != 3:
                    raise ValueError
                onsite[int(parts[1])] = float(parts[2])
            else:
                if len(parts) != 3:
                    raise ValueError
                i, j = int(parts[0]), int(parts[1])
                if i == j:
                    raise ValueError
                key = (i, j) if i < j else (j, i)
                couplings[key] = float(parts[2])
        except (ValueError, IndexError):
            raise ValueError(f"edge list line {lineno}: cannot parse {raw.rstrip()!r}")
    n = max(
        [j for (_, j) in couplings] + list(onsite) + [1],
    )
    eps = np.zeros(n)
    for i, value in onsite.items():
        eps[i - 1] = value
    return CouplingGraph(n, couplings, eps)
