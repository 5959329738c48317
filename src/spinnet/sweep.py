"""Disorder ensembles: sweeps over (size, error-strength) grids, phase scans.

A sweep cell is one (size, E, kind) combination evaluated over K disorder
realizations; a phase-scan cell is one disorder setting, every device probed
at every scanned angle. Realization k of cell c draws from the stream
(master seed, c * K + k), so the numbers cannot depend on how cells, or
the realizations of a cell, are distributed over workers. Both kinds of
cell draw their realizations from one block generator,
:func:`hamiltonian_blocks`, one stack of edge arrays per block, sized at
the 2N entries of a state per realization. A sweep holds
its stack as band diagonals and propagates it by a Chebyshev series, at
O(N) per term and diagonal and in elementwise real arithmetic, so its
numbers do not depend on the BLAS/LAPACK build. Where it saves series, it
propagates only the amplitudes its merit reads, through the last kick
(:class:`SplitPlan`), instead of the whole state. A phase scan assembles
and decomposes its block as complex, in dense stacks of at most
BLOCK_ENTRIES entries at N^2 per device. A realization's value does not
depend on the block or stack it lands in either. Values go from their
block straight into one float64 array per cell: K merits for a sweep
cell, (angles, K) estimates for a phase-scan setting, 8 bytes each.
:func:`run_cells` runs either kind of cell, in process or on a clamped
pool. On a pool it cuts the disordered cells into parts, contiguous ranges
of realizations (:func:`split_cells`), so that a few slow cells share every
worker. A worker returns only a part's values; the parent puts each
cell's values into one array and makes every row from it, of a whole cell
or a cut one. The parent appends each finished cell to one journal per
command, a line of JSON holding its row and a fingerprint of its
configuration and of the package's code, and on resume skips a cell only
when a line with that fingerprint holds it. Every other file a command
writes, the journal's rewrite included, goes through one writer,
:func:`publish`, which puts a run's files in place at once, and every
table through :func:`csv_lines`.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import multiprocessing
import os
import signal
import sys
import zlib
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .config import (MAX_OBSERVE_DURATIONS, ConfigError, PhaseScanConfig, SweepConfig,
                     mirror_tokens, parse_time_expression)
from .disorder import DisorderSpec, perturb, stream_draws
from .dynamics import propagate, schedule_kicks
from .linalg import BLOCK_ENTRIES, BandOperator, band_operator, eigh, keep_heap
from .network import CouplingGraph
from .observables import ensemble_average
from .protocols import (FigureOfMerit, ProtocolResult, build_protocol, probe_estimates,
                        unwrap_to_branch)

def hamiltonian_blocks(
    graph: CouplingGraph, disorder_spec: DisorderSpec, realizations: int, master_seed: int,
    stream_base: int,
) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """The disorder realizations of ``graph``, as (streams, values, onsite)
    per block.

    Realization k draws from stream ``stream_base + k``. A block holds the
    streams of at most BLOCK_ENTRIES entries at 2N entries per realization,
    two real vectors (one complex state, or a split's psi and phi): 585
    realizations at N = 14, 163 at N = 50, 58 at N = 140.
    ``values`` and ``onsite`` are the block's couplings and site energies,
    perturbed as :func:`~spinnet.disorder.sample_disorder` does for one
    stream, bit for bit; the array that the spec leaves alone is the graph's
    own, without a block axis. A clean spec yields one realization, the bare graph.
    """
    runs = _runs(disorder_spec, realizations)
    block = max(1, BLOCK_ENTRIES // (2 * graph.n_sites))
    for first in range(stream_base, stream_base + runs, block):
        streams = range(first, min(first + block, stream_base + runs))
        if disorder_spec.clean:
            values, onsite = graph.values[np.newaxis], graph.onsite[np.newaxis]
        else:
            values, onsite = perturb(graph, disorder_spec,
                                     stream_draws(graph, disorder_spec, master_seed, streams))
        yield streams, values, onsite


def _runs(disorder_spec: DisorderSpec, realizations: int) -> int:
    """The realizations a cell computes: a clean spec's are all one."""
    return min(realizations, 1) if disorder_spec.clean else realizations


def ensemble_merit(
    result: ProtocolResult,
    disorder_spec: DisorderSpec,
    realizations: int,
    master_seed: int,
    stream_base: int = 0,
    merit: FigureOfMerit | None = None,
) -> np.ndarray:
    """Run one protocol K times under fresh disorder: its K merits, as one
    float64 array.

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
    plan = split_plan(start, kicks, t, merit.sites)
    if plan is not None and not plan.saves:  # a tie keeps the forward plan
        plan = None
    merits = np.empty(_runs(disorder_spec, realizations))
    for streams, values, onsite in hamiltonian_blocks(graph, disorder_spec, realizations,
                                                      master_seed, stream_base):
        operator = band_operator(graph.rows, graph.cols, values, onsite)
        if plan is None:
            amplitudes = np.zeros((len(streams), n), dtype=complex)
            amplitudes[:, start] = 1.0
            amplitudes = propagate(operator, amplitudes, 0.0, kicks, t, streams)
        else:
            amplitudes = plan.amplitudes(operator, streams)
        merits[streams.start - stream_base:streams.stop - stream_base] = merit.values(amplitudes)
    return np.repeat(merits, realizations) if disorder_spec.clean else merits


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

        As no full final state exists, :func:`~spinnet.dynamics.propagate`
        checks every phi at t - t_L and psi at t_L.
        """
        b, n = operator.lower.shape[0], operator.bands.shape[-1]
        t_first, t_last = self.kicks[0][0], self.kicks[-1][0]
        phi_sites = (self.start,) + self.own if self.joined else self.own
        phis = propagate(operator, _basis_stack(phi_sites, b, n), 0.0, [], self.t - t_last,
                         streams)
        if self.joined:
            psi = propagate(operator, phis[0], t_first, self.kicks, t_last, streams)
        else:
            psi = np.zeros((b, n), dtype=complex)
            psi[:, self.start] = 1.0
            psi = propagate(operator, psi, 0.0, self.kicks, t_last, streams)
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
    else:  # "eof", the one other observable config.parse_sweep accepts
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
    if observe is not None:
        t = parse_time_expression(observe, mirror_tokens(result.network))
        # relative to 1e-12, as mirror_tokens compares times: 900*t_m rounds
        # above 100 times the 9*t_m of a 9-chain router
        if t > MAX_OBSERVE_DURATIONS * result.protocol.duration * (1.0 + 1e-12):
            raise ConfigError(f"sweep.observe: {observe!r} at N = {result.network.n_sites} is past "
                              f"{MAX_OBSERVE_DURATIONS} times the protocol's duration")
        merit = FigureOfMerit(merit.kind, t, target=merit.target, pair=merit.pair)
    return merit


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: identity, addressing, and its task payload."""

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

    def values(self, first: int, stop: int) -> np.ndarray:
        """The merits of realizations [first, stop) of the cell."""
        result, merit = self.protocol()
        return ensemble_merit(result, self.disorder, stop - first, self.master_seed,
                              stream_base=self.stream_base + first, merit=merit)

    def row(self, merits: np.ndarray) -> dict[str, Any]:
        """The cell's row from all its merits, a plain dict so it survives any
        transport."""
        mean, std, std_of_mean = ensemble_average(merits.tolist())
        return {
            "index": self.index,
            "size": self.size,
            "e": self.e,
            "kind": self.kind,
            "mean": mean,
            "std": std,
            "std_of_mean": std_of_mean,
            "k": len(merits),
            "stream_base": self.stream_base,
        }


def sweep_cells(
    protocol_name: str,
    params: dict[str, Any],
    sweep: SweepConfig,
    master_seed: int,
) -> list[SweepCell]:
    """Enumerate the grid, kinds outermost and E innermost; cell order fixes
    the seed streams."""
    grid = itertools.product(sweep.kinds, sweep.sizes, sweep.e_values)
    return [
        SweepCell(index=index, size=size, e=e, kind=kind, protocol_name=protocol_name,
                  params=dict(params), axis=sweep.axis, realizations=sweep.realizations,
                  master_seed=master_seed, stream_base=index * sweep.realizations,
                  observable=sweep.observable, eof_pair=sweep.eof_pair, observe=sweep.observe)
        for index, (kind, size, e) in enumerate(grid)
    ]


def fingerprint(cell: SweepCell | PhaseScanCell) -> dict[str, Any]:
    """Everything the cell's numbers depend on, as its journal line stores
    it: its fields, the spinnet and numpy versions, and a digest of the
    package's code."""
    return json.loads(json.dumps(dict(asdict(cell), version=__version__, numpy=np.__version__,
                                      source=_source_digest())))  # tuples as lists


@functools.cache
def _source_digest() -> str:
    """The CRC-32 of the names and bytes of the package's ``*.py`` files, in
    name order, once per process: any change of code, even one that keeps
    ``__version__``, changes every fingerprint."""
    package = os.path.dirname(os.path.abspath(__file__))
    crc = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                crc = zlib.crc32(fh.read(), zlib.crc32(name.encode(), crc))
    return f"{crc:08x}"


@dataclass(frozen=True)
class Part:
    """Realizations [first, stop) of a cell: the unit of work of :func:`run_cells`."""

    cell: SweepCell | PhaseScanCell
    first: int
    stop: int


def split_cells(cells: Sequence[SweepCell | PhaseScanCell], processes: int) -> list[Part]:
    """The parts of ``cells`` for ``processes`` workers, in cell order.

    A cell's load is the realizations it computes, 1 for a clean cell. On
    P > 1 processes, a cell is cut into contiguous parts whose sizes differ
    by at most one, each of at most ceil(R / 2P) realizations, R the summed
    load. A pool of whole cells lasts at least as long as its slowest cell;
    parts handed out in order end within about R / P plus the largest part
    (list scheduling). A clean cell, and every cell of one process, is one
    part.
    """
    loads = [_runs(cell.disorder, cell.realizations) for cell in cells]
    size = -(-sum(loads) // (2 * processes)) if processes > 1 else max(loads, default=1)
    parts = []
    for cell, load in zip(cells, loads):
        count, k = -(-load // size), cell.realizations
        parts.extend(Part(cell, k * j // count, k * (j + 1) // count) for j in range(count))
    return parts


def run_cell(part: Part) -> tuple[Part, np.ndarray]:
    """The one runner of :func:`run_cells`, in process and on the pool (which
    pickles it by name): the part with its values, whose last axis holds its
    realizations. The parent makes the cell's row. It first keeps freed
    block arrays on the process's heap (:func:`~spinnet.linalg.keep_heap`),
    once per process, however the pool starts its workers."""
    keep_heap()
    return part, part.cell.values(part.first, part.stop)


class WorkerLost(RuntimeError):
    """A pool worker ended while its pool ran: its part, if it held one, is lost."""


def run_cells(
    cells: Sequence[SweepCell | PhaseScanCell],
    workers: int,
    journal: str,
    on_cell: Callable[[dict[str, Any], int], None],
) -> list[dict[str, Any]]:
    """Evaluate cells, resuming from and appending to ``journal``.

    The cells still to run are cut into :func:`split_cells`'s parts, which
    run in process or on a pool of at most one process per part and per
    core. The parent writes each part's values into its cell's one float64
    array, and makes the cell's row once its last part is in. It appends
    one line per finished cell, in the order the cells finish, and then
    hands ``on_cell`` the row and the count of finished cells, resumed ones
    included. See :func:`_read_journal` for the lines a resumed run uses.
    A pool worker that ends before the last part is in raises
    :class:`WorkerLost`, naming the unfinished cells; the journal keeps
    every finished one.
    """
    fingerprints = {cell.index: fingerprint(cell) for cell in cells}
    try:
        rows = _read_journal(journal, fingerprints)
    except OSError as exc:  # say, a directory where the journal should be
        raise ConfigError(f"cannot use journal {journal}: {exc}") from exc
    pending = [cell for cell in cells if cell.index not in rows]
    cores = os.cpu_count() or 1
    parts = split_cells(pending, min(workers, cores))
    left = collections.Counter(part.cell.index for part in parts)
    values: dict[int, np.ndarray] = {}  # a cell's values, from its first part in

    def record(part: Part, result: np.ndarray) -> None:
        cell = part.cell
        if cell.index not in values:
            values[cell.index] = np.empty(result.shape[:-1] + (cell.realizations,))
        values[cell.index][..., part.first:part.stop] = result
        left[cell.index] -= 1
        if left[cell.index]:
            return
        row = rows[cell.index] = cell.row(values.pop(cell.index))
        _write_checkpoint(journal, dict(row, fingerprint=fingerprints[cell.index]))
        on_cell(row, len(rows))

    # Pool starts every process up front: never more than there are parts or cores
    processes = min(workers, len(parts), cores)
    if 1 <= processes < workers:
        print(f"using {processes} of {workers} requested worker processes ({len(pending)} "
              f"cells in {len(parts)} parts to run, {cores} cores)", file=sys.stderr)
    if processes <= 1:
        for part in parts:
            record(*run_cell(part))
    else:
        # workers ignore Ctrl-C: it reaches the parent alone, which ends the pool
        with multiprocessing.Pool(processes=processes, initializer=signal.signal,
                                  initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            started = multiprocessing.active_children()  # Pool starts every worker here
            results = pool.imap_unordered(run_cell, parts, chunksize=1)
            while len(rows) < len(cells):
                # a dead worker's part never comes back (bpo-22393), so look at the
                # workers after every wake-up, a result or a second without one
                with contextlib.suppress(multiprocessing.TimeoutError):
                    record(*results.next(timeout=1.0))
                lost = [worker for worker in started if worker.exitcode is not None]
                if lost:
                    unfinished = [cell.index for cell in cells if cell.index not in rows]
                    raise WorkerLost(
                        f"worker process {lost[0].pid} ended with exit code {lost[0].exitcode}; "
                        f"cells {unfinished} did not finish; {journal} keeps every finished "
                        "cell, and a rerun resumes from it")
    return [rows[cell.index] for cell in cells]


def _read_journal(journal: str,
                  fingerprints: dict[int, dict[str, Any]]) -> dict[int, dict[str, Any]]:
    """The rows of ``journal`` whose fingerprint matches their cell, by index.

    The last such line of a cell counts. Any other line (cut off by a killed
    run, not a cell's row, or written for another configuration) is dropped
    with a warning on stderr, and the journal is rewritten with the kept
    lines (through :func:`publish`), so a new line never follows a cut one.
    """
    rows: dict[int, dict[str, Any]] = {}
    if not os.path.exists(journal):
        return rows
    kept: dict[int, str] = {}
    with open(journal, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                row = json.loads(text)
            except ValueError as exc:  # ValueError covers bad JSON and bad UTF-8
                problem = f"cannot be read ({exc})"
            else:
                index = row.get("index") if isinstance(row, dict) else None
                if not isinstance(index, int):
                    problem = "is not the row of a cell"
                elif index in fingerprints and row.pop("fingerprint", None) == fingerprints[index]:
                    rows[index], kept[index] = row, text.rstrip() + "\n"
                    continue
                else:
                    problem = "was written for another configuration"
            print(f"warning: discarding checkpoint {journal}:{number}: it {problem}; "
                  "computing the cell again", file=sys.stderr)
    directory, name = os.path.split(journal)
    publish(directory, {name: kept.values()})
    return rows


def publish(out: str, files: Mapping[str, Iterable[str]]) -> None:
    """Put a run's files in ``out`` at once: ``files`` maps each name to its
    text lines. Every ``<name>.tmp`` is written whole before any of them
    replaces its file, in order, so a run that fails before that commit
    leaves every earlier file as it was, and no reader finds part of a file.
    An OSError (say, a directory at either path) is a
    :class:`~spinnet.config.ConfigError` naming the file."""
    try:
        for name, lines in files.items():
            path = os.path.join(out, name)
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        for name in files:
            path = os.path.join(out, name)
            os.replace(path + ".tmp", path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def csv_lines(columns: Sequence[str], rows: Iterable[Iterable[Any]]) -> Iterator[str]:
    """A table's lines for :func:`publish`, one per row. A float (numpy's
    float64 included) prints with 12 significant digits, anything else as
    ``str()``, so an int prints in full at any size."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"


def _write_checkpoint(journal: str, row: dict[str, Any]) -> None:
    """Append ``row`` to ``journal`` as one line of JSON."""
    try:
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot use journal {journal}: {exc}") from exc


# --- phase scan ------------------------------------------------------------

def angle_stats(estimates: np.ndarray) -> list[tuple[float, float, float]]:
    """(mean, std, std of mean) of each angle's row of unwrapped estimates,
    the mean mapped into [0, 360)."""
    stats = [ensemble_average(row.tolist()) for row in estimates]
    return [(mean % 360.0, std, std_of_mean) for mean, std, std_of_mean in stats]


def phase_scan_estimates(
    n_total: int, thetas_deg: tuple[float, ...], disorder_spec: DisorderSpec,
    realizations: int, master_seed: int, stream_base: int = 0,
) -> np.ndarray:
    """The float64 (angles, K) estimates of K devices, 8 bytes each.

    One disorder realization is one device, probed at every angle; device k
    draws from stream ``stream_base + k``. Each block of
    :func:`hamiltonian_blocks` runs as dense stacks of at most
    BLOCK_ENTRIES // N^2 devices (6 at N = 50, one from N = 91 on), one
    eigensolve and one probe of all devices per stack. A stack's estimates
    are unwrapped onto the branch around the true angle, so means near 0/360
    do not smear across the seam, and go straight into the array. A clean
    spec probes one device.
    """
    graph = build_protocol("phase-sense", {"n": n_total}).graph()
    references = np.array(thetas_deg)[:, np.newaxis]
    estimates = np.empty((len(thetas_deg), _runs(disorder_spec, realizations)))
    per_stack = max(1, BLOCK_ENTRIES // n_total ** 2)
    for streams, values, onsite in hamiltonian_blocks(graph, disorder_spec, realizations,
                                                      master_seed, stream_base):
        # the array the spec leaves alone has no block axis until it is given one
        values, onsite = (np.broadcast_to(a, (len(streams), a.shape[-1]))
                          for a in (values, onsite))
        for first in range(0, len(streams), per_stack):
            rows = slice(first, first + per_stack)
            stack = streams[rows]
            # complex, as one device's to_matrix(), so every estimate keeps its bits
            # (and bench/reference/ its rows): a device on the unwrap branch cut
            # (README, "Reproducibility") flips sides on a last-bit change
            h = graph.assemble(values[rows], onsite[rows]).astype(complex)
            columns = slice(stack.start - stream_base, stack.stop - stream_base)
            estimates[:, columns] = unwrap_to_branch(probe_estimates(eigh(h), thetas_deg, stack),
                                                     references)
    return estimates


@dataclass(frozen=True)
class PhaseScanCell:
    """One phase-scan disorder setting, probed at every scanned angle."""

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

    def values(self, first: int, stop: int) -> np.ndarray:
        """The (angles, stop - first) estimates of devices [first, stop)."""
        return phase_scan_estimates(self.n, self.thetas_deg, self.disorder, stop - first,
                                    self.master_seed, stream_base=self.stream_base + first)

    def row(self, estimates: np.ndarray) -> dict[str, Any]:
        """The setting's row from all its estimates; its stats are [mean, std,
        std of mean] per angle, which JSON stores and reads back bit for bit."""
        return {
            "index": self.index,
            "kind": self.kind,
            "e": self.strength,
            "k": self.realizations,
            "stream_base": self.stream_base,
            "stats": [list(angle) for angle in angle_stats(estimates)],
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
            realizations=_runs(spec, scan.realizations),
            master_seed=master_seed,
            stream_base=index * scan.realizations,
        )
        for index, spec in enumerate(scan.settings)
    ]


# --- threshold contour ------------------------------------------------------

def threshold_contour(
    grid: Mapping[tuple[int, float], float], level: float,
) -> list[tuple[float, float, float, float]]:
    """Marching-squares segments of the level set over a ``{(size, e): mean}`` grid.

    The grid is walked in sorted axis order; a grid point is hot when its
    mean is at or above ``level``, and crossings sit at edge midpoints (cell
    resolution, no subcell interpolation). In each cell a segment runs from
    every edge where the counterclockwise boundary crosses from cold into hot
    to the next crossed edge: counterclockwise, or clockwise when the cell
    mean is at or above the level, so that a saddle joins its two hot corners
    through a hot centre. Returns (x1, y1, x2, y2) segments.
    """
    xs = sorted({x for x, _ in grid})
    ys = sorted({y for _, y in grid})
    segments: list[tuple[float, float, float, float]] = []
    for y0, y1 in zip(ys, ys[1:]):
        for x0, x1 in zip(xs, xs[1:]):
            # corners counterclockwise from bottom-left; edge k joins corner k to corner k + 1
            bl, br, tr, tl = grid[x0, y0], grid[x1, y0], grid[x1, y1], grid[x0, y1]
            hot = [v >= level for v in (bl, br, tr, tl)]
            x_mid, y_mid = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            edges = [(x_mid, y0), (x1, y_mid), (x_mid, y1), (x0, y_mid)]
            crossed = [k for k in range(4) if hot[k] != hot[(k + 1) % 4]]
            step = -1 if (bl + br + tl + tr) / 4.0 >= level else 1
            for i, k in enumerate(crossed):
                if hot[(k + 1) % 4]:
                    segments.append((*edges[k], *edges[crossed[(i + step) % len(crossed)]]))
    return segments
