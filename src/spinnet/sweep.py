"""Disorder ensembles: sweeps over (size, error-strength) grids, phase scans.

A sweep cell is one (size, E, kind) combination evaluated over K disorder
realizations; a phase-scan cell is one disorder setting, every device probed
at every scanned angle. Realization k of cell c draws from the stream
(master seed, c * K + k), so the numbers cannot depend on how cells are
distributed over workers. Both kinds of cell draw their realizations from
one block generator, :func:`hamiltonian_blocks`, one stack of edge arrays
per block, sized by what the consumer keeps per realization. A sweep holds
its stack as band diagonals and propagates it by a Chebyshev series, at
O(N) per term and diagonal and in elementwise real arithmetic, so its
numbers do not depend on the BLAS/LAPACK build. Where it saves series, it
propagates only the amplitudes its merit reads, through the last kick
(:class:`SplitPlan`), instead of the whole state. A phase scan assembles
and decomposes its stack as complex. A realization's value does not depend on
the block it lands in either. :func:`run_cells` runs either kind of cell,
in process or on a clamped pool, checkpoints each completed cell to disk
(write-temp-then-rename) together with a fingerprint of its configuration,
and skips it on resume only when that fingerprint matches.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable, ClassVar, Iterator, Sequence

import numpy as np

from . import __version__
from .config import (ConfigError, PhaseScanConfig, SweepConfig, mirror_tokens,
                     parse_time_expression)
from .disorder import DisorderSpec, perturb, stream_draws
from .dynamics import check_norms, propagate, schedule_kicks
from .linalg import BLOCK_ENTRIES, BandOperator, band_operator, chebyshev_evolve, eigh
from .network import CouplingGraph
from .observables import EnsembleAccumulator, ensemble_average, fidelities, pair_eofs
from .protocols import (FigureOfMerit, ProtocolResult, build_protocol, probe_estimates,
                        unwrap_to_branch)

def hamiltonian_blocks(
    graph: CouplingGraph, disorder_spec: DisorderSpec, realizations: int, master_seed: int,
    stream_base: int = 0, footprint: int | None = None,
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """The disorder realizations of ``graph``, as (streams, values, onsite)
    per block.

    Realization k draws from stream ``stream_base + k``. A block holds the
    streams of at most BLOCK_ENTRIES entries at ``footprint`` entries per
    realization: 2N, two real vectors (one complex state, or a split's psi
    and phi), for a sweep's band (585 realizations at N = 14, 58 at
    N = 140); by default N^2, the dense stack of a phase scan (83 at
    N = 14, one from N = 91 on).
    ``values`` and ``onsite`` are the block's couplings and site energies,
    perturbed as :func:`~spinnet.disorder.sample_disorder` does for one
    stream, bit for bit; the array that the spec leaves alone is the graph's
    own, without a block axis. A clean spec yields one realization, the bare graph.
    """
    runs = min(realizations, 1) if disorder_spec.clean else realizations
    block = max(1, BLOCK_ENTRIES // (footprint or graph.n_sites ** 2))
    for first in range(stream_base, stream_base + runs, block):
        streams = range(first, min(first + block, stream_base + runs))
        if disorder_spec.clean:
            values, onsite = graph.values[np.newaxis], graph.onsite[np.newaxis]
        else:
            values, onsite = perturb(graph, disorder_spec,
                                     stream_draws(graph, disorder_spec, master_seed, streams))
        yield streams, values, onsite


def merit_values(amplitudes: np.ndarray, merit: FigureOfMerit) -> np.ndarray:
    """The figure of merit of every row of ``amplitudes``, a 2-D stack of
    states: the one merit path of sweeps and of ``spinnet run``."""
    if merit.kind == "fidelity":
        return fidelities(amplitudes, merit.target)
    return pair_eofs(amplitudes, *merit.pair)


def ensemble_merit(
    result: ProtocolResult,
    disorder_spec: DisorderSpec,
    realizations: int,
    master_seed: int,
    stream_base: int = 0,
    merit: FigureOfMerit | None = None,
) -> EnsembleAccumulator:
    """Run one protocol K times under fresh disorder and collect its merit.

    Realization k draws from stream ``stream_base + k``. Each block of
    :func:`hamiltonian_blocks` becomes one band operator and one vectorised
    merit. The cell picks its plan once: the :func:`split_plan`, which
    propagates only the amplitudes the merit reads, through the last kick,
    when it :attr:`~SplitPlan.saves` work, or else forward, every state to
    the merit time. A clean spec runs one realization and repeats its value
    K times.
    """
    merit = merit or result.merit
    t = merit.time
    graph = result.graph()
    n = graph.n_sites
    start, kicks = schedule_kicks(result.protocol, n)
    kicks = [kick for kick in kicks if kick[0] <= t]
    plan = split_plan(start, kicks, t, merit_sites(merit))
    if plan is not None and not plan.saves:  # a tie keeps the forward plan
        plan = None
    merits: list[float] = []
    for streams, values, onsite in hamiltonian_blocks(graph, disorder_spec, realizations,
                                                      master_seed, stream_base, 2 * n):
        operator = band_operator(graph.rows, graph.cols, values, onsite)
        if plan is None:
            amplitudes = np.zeros((len(streams), n), dtype=complex)
            amplitudes[:, start] = 1.0
            amplitudes = propagate(operator, amplitudes, 0.0, kicks, t)
            check_norms(amplitudes, streams, t)
        else:
            amplitudes = plan.amplitudes(operator, streams)
        merits += merit_values(amplitudes, merit).tolist()
    if disorder_spec.clean:
        merits *= realizations
    return EnsembleAccumulator(merits)


def merit_sites(merit: FigureOfMerit) -> tuple[int, ...]:
    """The 0-based sites a merit reads: the target's nonzero sites, or the EOF pair."""
    if merit.kind == "fidelity":
        return tuple(np.flatnonzero(merit.target.amplitudes).tolist())
    return tuple(site - 1 for site in merit.pair)


@dataclass(frozen=True)
class SplitPlan:
    """Read a merit's ``sites`` at ``t`` through the last kicks of a run from
    ``start``.

    A sweep's H is real symmetric, so U(tau) = exp(-iH tau) is complex
    symmetric, and the amplitude of site s at t is sum_j phi_j K_j psi_j:
    psi is the state at the last kick time t_L, K the kicks there, and
    phi = U(t - t_L) e_s the propagation of a real start vector. ``own``
    are the sites whose phi costs a real series. When ``joined``, psi's
    first segment, from its real start to the first kick, is as long as
    t - t_L: the own phi run as extra columns of that series, which is
    itself the phi of the start site.
    """

    start: int
    kicks: tuple[tuple[float, int, float], ...]
    t: float
    sites: tuple[int, ...]
    own: tuple[int, ...]
    joined: bool

    @property
    def saves(self) -> bool:
        """Whether the split runs fewer real series x time than the forward
        plan. Both run psi to t_L. Past it, the forward plan runs one complex
        series over t - t_L, which is two real ones, and the split one real
        series per phi of its own."""
        return len(self.own) < 2

    def amplitudes(self, operator: BandOperator, streams: Sequence[int]) -> np.ndarray:
        """The (B, N) stack of the amplitudes of ``sites`` at ``t``, zero
        elsewhere, for every matrix of ``operator``.

        :func:`~spinnet.dynamics.check_norms` checks psi at t_L and every
        phi at t - t_L, as no full final state exists.
        """
        b, n = operator.lower.shape[0], operator.bands.shape[-1]
        t_first, t_last = self.kicks[0][0], self.kicks[-1][0]
        if self.joined:
            phi_sites = (self.start,) + self.own
            phis = chebyshev_evolve(operator, _basis_stack(phi_sites, b, n), t_first)
            psi = propagate(operator, phis[0], t_first, self.kicks, t_last)
        else:
            phi_sites = self.own
            phis = chebyshev_evolve(operator, _basis_stack(phi_sites, b, n), self.t - t_last)
            psi = np.zeros((b, n), dtype=complex)
            psi[:, self.start] = 1.0
            psi = propagate(operator, psi, 0.0, self.kicks, t_last)
        check_norms(psi, streams, t_last)  # kicked at t_L, which keeps the norm
        check_norms(phis, streams, self.t - t_last)
        reads = dict(zip(phi_sites, phis))
        out = np.zeros_like(psi)
        for site in self.sites:
            out[:, site] = np.sum(reads[site] * psi, axis=-1)
        return out


def split_plan(start: int, kicks: Sequence[tuple[float, int, float]], t: float,
               sites: tuple[int, ...]) -> SplitPlan | None:
    """The split of a run from ``start`` through ``kicks`` (none past ``t``)
    for a merit read at ``t`` from ``sites``; None for a run without kicks
    or a merit read at the last kick time t_L, where no split exists."""
    if not kicks or t == kicks[-1][0]:
        return None
    joined = kicks[0][0] == t - kicks[-1][0]
    own = tuple(site for site in sites if not (joined and site == start))
    return SplitPlan(start, tuple(kicks), t, sites, own, joined)


def _basis_stack(sites: tuple[int, ...], b: int, n: int) -> np.ndarray:
    """The real (len(sites), b, n) stack whose group g is e_{sites[g]} in
    every row."""
    stack = np.zeros((len(sites), b, n))
    for g, site in enumerate(sites):
        stack[g, :, site] = 1.0
    return stack


def resolve_merit(
    result: ProtocolResult,
    observable: str = "auto",
    eof_pair: tuple[int, int] | None = None,
    observe: str | float | None = None,
) -> FigureOfMerit:
    """The figure of merit a sweep actually records for one protocol."""
    if observable == "auto":
        merit = result.merit
    elif observable == "fidelity":
        merit = FigureOfMerit("fidelity", result.expected_time, target=result.expected_state)
    elif observable == "eof":
        pair = eof_pair or result.merit.pair
        if pair is None:
            raise ConfigError(
                f"protocol {result.name!r} has no natural site pair; set sweep.eof_pair"
            )
        n = result.network.n_sites
        if pair[0] == pair[1] or not all(1 <= site <= n for site in pair):
            raise ConfigError(f"sweep.eof_pair {list(pair)} needs two distinct sites in "
                              f"1..{n} ({result.name!r} has {n} sites)")
        merit = FigureOfMerit("eof", result.merit.time, pair=pair)
    else:
        raise ConfigError(f"unknown observable {observable!r}")
    if observe is not None:
        t = parse_time_expression(observe, mirror_tokens(result.network))
        merit = FigureOfMerit(merit.kind, t, target=merit.target, pair=merit.pair)
    return merit


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: identity, addressing, and its task payload."""

    # checkpoints/cell_00003.json; a phase-scan setting's is setting_00003.json,
    # so a sweep and a phase scan in one --out keep their checkpoints apart
    checkpoint_stem: ClassVar[str] = "cell"

    index: int
    size: int
    e: float
    kind: str
    protocol_name: str
    params: dict[str, Any]
    axis: str
    realizations: int
    master_seed: int
    stream_base: int
    observable: str
    eof_pair: tuple[int, int] | None
    observe: str | float | None

    @property
    def disorder(self) -> DisorderSpec:
        return DisorderSpec(kind=self.kind, strength=self.e)

    def protocol(self) -> tuple[ProtocolResult, FigureOfMerit]:
        """The protocol at the cell's size, and the merit the sweep records for it."""
        result = build_protocol(self.protocol_name, dict(self.params, **{self.axis: self.size}))
        return result, resolve_merit(result, self.observable, self.eof_pair, self.observe)

    def run(self) -> dict[str, Any]:
        """Evaluate the cell; returns a plain dict so it survives any transport."""
        result, merit = self.protocol()
        acc = ensemble_merit(result, self.disorder, self.realizations, self.master_seed,
                             stream_base=self.stream_base, merit=merit)
        mean, std, std_of_mean = ensemble_average(acc.values)
        return {
            "index": self.index,
            "size": self.size,
            "e": self.e,
            "kind": self.kind,
            "mean": mean,
            "std": std,
            "std_of_mean": std_of_mean,
            "k": acc.count,
            "stream_base": self.stream_base,
        }


def sweep_cells(
    protocol_name: str,
    params: dict[str, Any],
    sweep: SweepConfig,
    master_seed: int,
) -> list[SweepCell]:
    """Enumerate the grid; cell order fixes the seed streams."""
    cells = []
    index = 0
    for kind in sweep.kinds:
        for size in sweep.sizes:
            for e in sweep.e_values:
                cells.append(
                    SweepCell(
                        index=index,
                        size=size,
                        e=e,
                        kind=kind,
                        protocol_name=protocol_name,
                        params=dict(params),
                        axis=sweep.axis,
                        realizations=sweep.realizations,
                        master_seed=master_seed,
                        stream_base=index * sweep.realizations,
                        observable=sweep.observable,
                        eof_pair=sweep.eof_pair,
                        observe=sweep.observe,
                    )
                )
                index += 1
    return cells


def fingerprint(cell: SweepCell | PhaseScanCell) -> dict[str, Any]:
    """Everything the cell's numbers depend on, as its checkpoint stores it:
    its fields and the spinnet version."""
    return json.loads(json.dumps(dict(asdict(cell), version=__version__)))  # tuples as lists


def run_cell(cell: SweepCell | PhaseScanCell) -> dict[str, Any]:
    """The one runner of :func:`run_cells`, in process and on the pool (which
    pickles it by name)."""
    return cell.run()


def run_cells(
    cells: Sequence[SweepCell | PhaseScanCell],
    workers: int = 1,
    checkpoint_dir: str | None = None,
    on_cell: Callable[[dict[str, Any]], None] | None = None,
) -> list[dict[str, Any]]:
    """Evaluate cells, resuming from and writing per-cell checkpoints.

    A checkpoint is used only when its fingerprint matches the cell; one
    written for another configuration, or one that cannot be read, is
    discarded with a warning on stderr and the cell is computed again.
    """
    rows: dict[int, dict[str, Any]] = {}
    fingerprints = {cell.index: fingerprint(cell) for cell in cells}
    pending = []
    stems = {cell.index: cell.checkpoint_stem for cell in cells}
    for cell in cells:
        cached = _load_checkpoint(checkpoint_dir, cell.index, fingerprints[cell.index],
                                  cell.checkpoint_stem)
        if cached is not None:
            rows[cell.index] = cached
        else:
            pending.append(cell)

    def record(row: dict[str, Any]) -> None:
        index = row["index"]
        rows[index] = row
        _write_checkpoint(checkpoint_dir, dict(row, fingerprint=fingerprints[index]),
                          stems[index])
        if on_cell is not None:
            on_cell(row)

    # Pool starts every process up front: never more than there are cells or cores
    processes = min(workers, len(pending), os.cpu_count() or 1)
    if 1 <= processes < workers:
        print(f"using {processes} of {workers} requested worker processes "
              f"({len(pending)} cells to run, {os.cpu_count()} cores)", file=sys.stderr)
    if processes <= 1:
        for cell in pending:
            record(run_cell(cell))
    else:
        with multiprocessing.Pool(processes=processes) as pool:
            for row in pool.imap_unordered(run_cell, pending, chunksize=1):
                record(row)
    return [rows[cell.index] for cell in cells]


def _checkpoint_path(checkpoint_dir: str, index: int, stem: str) -> str:
    return os.path.join(checkpoint_dir, f"{stem}_{index:05d}.json")


def _load_checkpoint(
    checkpoint_dir: str | None, index: int, fingerprint: dict[str, Any], stem: str
) -> dict[str, Any] | None:
    """The checkpointed row of cell ``index``, or None when it must be computed."""
    if checkpoint_dir is None:
        return None
    path = _checkpoint_path(checkpoint_dir, index, stem)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            row = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        problem = f"cannot be read ({exc})"
    else:
        if isinstance(row, dict) and row.pop("fingerprint", None) == fingerprint:
            return row
        problem = "was written for another configuration"
    print(f"warning: discarding checkpoint {path}: it {problem}; computing the cell again",
          file=sys.stderr)
    return None


def _write_checkpoint(checkpoint_dir: str | None, row: dict[str, Any], stem: str = "cell") -> None:
    if checkpoint_dir is None:
        return
    os.makedirs(checkpoint_dir, exist_ok=True)
    path = _checkpoint_path(checkpoint_dir, row["index"], stem)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(row, fh, sort_keys=True)
    os.replace(tmp, path)


# --- phase scan ------------------------------------------------------------

def phase_scan_setting(
    n_total: int, thetas_deg: tuple[float, ...], disorder_spec: DisorderSpec,
    realizations: int, master_seed: int, stream_base: int = 0,
) -> list[tuple[float, float, float]]:
    """(mean, std, std of mean) of the estimate per scanned angle.

    One disorder realization is one device, probed at every angle. Devices
    run in the blocks of :func:`hamiltonian_blocks`, one eigensolve and one
    probe of all devices per block. Estimates are unwrapped onto the branch
    around the true angle before averaging, so means near 0/360 do not
    smear across the seam.
    """
    graph = build_protocol("phase-sense", {"n": n_total}).graph()
    per_angle: list[list[float]] = [[] for _ in thetas_deg]
    for streams, values, onsite in hamiltonian_blocks(graph, disorder_spec, realizations,
                                                      master_seed, stream_base):
        # complex, as one device's to_matrix(), so every estimate keeps its bits
        # (and bench/reference/ its rows): a device on the unwrap branch cut
        # (README, "Reproducibility") flips sides on a last-bit change
        h = graph.assemble(values, onsite).astype(complex)
        for estimates in probe_estimates(eigh(h), n_total, thetas_deg, streams):
            for slot, theta, est in zip(per_angle, thetas_deg, estimates):
                slot.append(unwrap_to_branch(est, theta))
    if disorder_spec.clean:
        for slot in per_angle:  # every clean realization is identical
            slot *= realizations
    stats = [ensemble_average(values) for values in per_angle]
    return [(mean % 360.0, std, std_of_mean) for mean, std, std_of_mean in stats]


@dataclass(frozen=True)
class PhaseScanCell:
    """One phase-scan disorder setting, probed at every scanned angle."""

    checkpoint_stem: ClassVar[str] = "setting"  # see SweepCell.checkpoint_stem

    index: int
    n: int
    thetas_deg: tuple[float, ...]
    kind: str
    strength: float
    realizations: int  # 1 for a clean setting
    master_seed: int
    stream_base: int

    @property
    def disorder(self) -> DisorderSpec:
        return DisorderSpec(self.kind, self.strength)

    def run(self) -> dict[str, Any]:
        """Evaluate the setting; its stats are [mean, std, std of mean] per angle,
        which JSON stores and reads back bit for bit."""
        stats = phase_scan_setting(self.n, self.thetas_deg, self.disorder, self.realizations,
                                   self.master_seed, stream_base=self.stream_base)
        return {
            "index": self.index,
            "kind": self.kind,
            "e": self.strength,
            "k": self.realizations,
            "stream_base": self.stream_base,
            "stats": [list(angle) for angle in stats],
        }


def phase_scan_cells(scan: PhaseScanConfig, master_seed: int) -> list[PhaseScanCell]:
    """One cell per disorder setting; setting c draws from streams c * K on."""
    return [
        PhaseScanCell(
            index=index,
            n=scan.n,
            thetas_deg=scan.thetas_deg,
            kind=spec.kind,
            strength=spec.strength,
            realizations=1 if spec.clean else scan.realizations,
            master_seed=master_seed,
            stream_base=index * scan.realizations,
        )
        for index, spec in enumerate(scan.settings)
    ]


# --- threshold contour ------------------------------------------------------

def threshold_contour(
    xs: Sequence[float],
    ys: Sequence[float],
    values: Sequence[Sequence[float]],
    level: float = 0.9,
) -> list[tuple[float, float, float, float]]:
    """Marching-squares segments of the level set over the cell grid.

    ``values[iy][ix]`` sits at (xs[ix], ys[iy]). Crossings are placed at
    edge midpoints - cell resolution, no subcell interpolation. Returns
    (x1, y1, x2, y2) segments.
    """
    segments: list[tuple[float, float, float, float]] = []
    for iy in range(len(ys) - 1):
        for ix in range(len(xs) - 1):
            corners = (
                values[iy][ix] >= level,        # bottom-left
                values[iy][ix + 1] >= level,    # bottom-right
                values[iy + 1][ix + 1] >= level,  # top-right
                values[iy + 1][ix] >= level,    # top-left
            )
            case = sum(1 << k for k, hot in enumerate(corners) if hot)
            if case in (0, 15):
                continue
            x_mid = (xs[ix] + xs[ix + 1]) / 2.0
            y_mid = (ys[iy] + ys[iy + 1]) / 2.0
            bottom = (x_mid, ys[iy])
            right = (xs[ix + 1], y_mid)
            top = (x_mid, ys[iy + 1])
            left = (xs[ix], y_mid)
            edges = {
                1: (left, bottom), 2: (bottom, right), 3: (left, right),
                4: (right, top), 6: (bottom, top), 7: (left, top),
                8: (top, left), 9: (top, bottom), 11: (top, right),
                12: (right, left), 13: (right, bottom), 14: (bottom, left),
            }
            if case in (5, 10):
                center_hot = (
                    values[iy][ix] + values[iy][ix + 1]
                    + values[iy + 1][ix] + values[iy + 1][ix + 1]
                ) / 4.0 >= level
                if case == 5:
                    pairs = [(left, top), (right, bottom)] if center_hot else [
                        (left, bottom), (right, top)]
                else:
                    pairs = [(bottom, right), (top, left)] if center_hot else [
                        (bottom, left), (top, right)]
                for a, b in pairs:
                    segments.append((a[0], a[1], b[0], b[1]))
            else:
                a, b = edges[case]
                segments.append((a[0], a[1], b[0], b[1]))
    return segments
