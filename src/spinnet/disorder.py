"""Static disorder realizations of a coupling graph.

Two kinds of fabrication error are modelled: off-diagonal (every existing
coupling picks up E * d * J_ref with d drawn from a zero-mean Gaussian of
width 1/(2 sqrt 3)) and diagonal (the same perturbation lands on each
on-site energy). The scale J_ref is the global energy unit, not a per-chain
peak coupling, so retuned networks see the same absolute error level.

Reproducibility: every realization is addressed by (master seed, stream
index). The same address always yields the same graph, bit for bit, no
matter which worker draws it.

One rule applies it: :func:`perturb` adds the :func:`disorder_draws` of
one stream (:func:`sample_disorder`) or of a block of streams
(``sweep.hamiltonian_blocks``) to the graph's edge or on-site arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .network import CouplingGraph

GAUSSIAN_WIDTH = 1.0 / (2.0 * math.sqrt(3.0))

KINDS = ("none", "diagonal", "off_diagonal")


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
        if self.master_seed < 0 or self.stream < 0:
            raise ValueError("seed and stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence((self.master_seed, self.stream))
        return np.random.Generator(np.random.PCG64(ss))


def disorder_draws(graph: CouplingGraph, spec: DisorderSpec, rng: SeededRng) -> np.ndarray:
    """The perturbations one stream adds to ``graph`` under a disordered spec.

    Off-diagonal disorder draws one value per existing edge, in edge order,
    for its coupling; diagonal disorder one value per site, for its on-site
    energy. Each value is E * J_ref * d with d ~ N(0, width^2).
    """
    size = len(graph.values) if spec.kind == "off_diagonal" else graph.n_sites
    return spec.strength * spec.j_max_ref * rng.generator().normal(0.0, spec.width, size=size)


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
