"""Command-line front end: build networks, run protocols, sweep disorder.

Subcommands
    build       edge list + spectrum of the configured network
    run         one protocol: trajectory CSV and an expected-state report
    sweep       disorder robustness heatmap over a (size, E) grid
    phase-scan  retrieved vs true angle table for the phase sensor
    replay      re-run any earlier command from its meta.json record

A command removes meta.json from --out before it runs, then hands all its
files to one writer, ``sweep.publish``: every ``<name>.tmp`` is written
before any is renamed into place, meta.json last. So meta.json marks a
finished run, and a run that fails before that commit leaves the earlier
run's files as they were.
Exit codes: 0 success, 2 config error (an --out, a journal or an output
file that cannot be written is one too), 3 numerical-invariant violation
(including a clean run missing its analytic target), 4 a pool worker
ended before the run did (say, killed for memory), 130 interrupted
(Ctrl-C); a rerun of a sweep or phase scan ended by either resumes from
its journal.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import sys
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__
from .config import (
    MAX_RUN_AMPLITUDES,
    Config,
    ConfigError,
    check_seed,
    check_workers,
    load_config,
    mirror_tokens,
    parse_config,
    parse_time_expression,
)
from .disorder import SeededRng, sample_disorder
from .dynamics import replace_samples, run_decomposed
from .linalg import InvariantViolation, eigh
from .network import edge_lines, network_graph
from .observables import fidelity
from .protocols import angle_offset, build_protocol, probe_estimates
from .sweep import (WorkerLost, csv_lines, phase_scan_cells, publish, run_cells, sweep_cells,
                    threshold_contour)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_WORKER_LOST = 4
EXIT_INTERRUPTED = 130

CLEAN_CHECK_ATOL = 1e-9
CLEAN_ANGLE_ATOL_DEG = 1e-6
CONTOUR_LEVEL = 0.9


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    journal = None
    try:
        if args.command == "replay":
            command, cfg, seed, workers = _read_record(args.meta)
        else:
            command, cfg = args.command, load_config(args.config)
            seed = cfg.seed if args.seed is None else check_seed(args.seed, "--seed")
            workers = cfg.workers
        if args.workers is not None:  # over the config's or the record's count
            workers = check_workers(args.workers, "--workers")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a path that cannot be a directory
            raise ConfigError(f"--out {args.out}: {exc}")
        _remove_meta(args.out)
        journal = JOURNALS.get(command)
        return COMMANDS[command](cfg, args.out, seed, workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerLost as exc:
        print(f"worker lost: {exc}", file=sys.stderr)
        return EXIT_WORKER_LOST
    except KeyboardInterrupt:  # pool workers ignore it, so only this process reports
        resume = "" if journal is None else (
            f"; {os.path.join(args.out, journal)} keeps every finished cell, "
            "and a rerun resumes from it")
        print(f"interrupted{resume}", file=sys.stderr)
        return EXIT_INTERRUPTED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinnet", description=__doc__)
    sub = parser.add_subparsers(required=True)

    for name in (*COMMANDS, "replay"):
        p = sub.add_parser(name)
        if name == "replay":  # replay takes its config and seed from the record
            p.add_argument("meta", help="meta.json of the run to reproduce")
        else:
            p.add_argument("--config", required=True, help="YAML config file")
            p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        p.set_defaults(command=name)
    return parser


def _say(line: str) -> None:
    """Print one report line. A reader that closed stdout (``| head -n 1``)
    ends the report, not the run."""
    try:
        print(line, flush=True)
    except BrokenPipeError:  # later lines and the flush at exit go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _remove_meta(out: str) -> None:
    """Remove the record of an earlier run from ``out``: from here until
    :func:`_finish`, its files are not a finished run's."""
    path = os.path.join(out, "meta.json")
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:  # a directory in its place, or an --out that is read-only
        raise ConfigError(f"cannot write {path}: {exc}")


def _environment() -> dict[str, Any]:
    """The interpreter, numpy, its BLAS and LAPACK, and the thread settings
    of the run; no output and no replay reads them."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        libraries = {key: {"name": deps.get(key, {}).get("name"),
                           "version": deps.get(key, {}).get("version")}
                     for key in ("blas", "lapack")}
    except TypeError:  # numpy < 1.25 has no dict mode
        libraries = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **libraries,
        "threads": {name: os.environ.get(name)
                    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _finish(out: str, command: str, cfg: Config, seed: int, workers: int,
            files: dict[str, Iterable[str]], extra: dict[str, Any] | None = None) -> None:
    """Publish a run's ``files`` and then its record, meta.json, which lists
    them: the one commit of every command."""
    meta = {
        "tool": "spinnet",
        "version": __version__,
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "master_seed": seed,
        "workers": workers,
        "config": cfg.raw,
        "outputs": list(files),
        "environment": _environment(),
    }
    if extra:
        meta.update(extra)
    publish(out, {**files, "meta.json": [json.dumps(meta, indent=2, sort_keys=True) + "\n"]})


# --- build -----------------------------------------------------------------

def cmd_build(cfg: Config, out: str, seed: int, workers: int) -> int:
    if cfg.network is None:
        raise ConfigError("build needs a 'network' section")
    graph = network_graph(cfg.network)
    eigenvalues = eigh(graph.to_matrix()).eigenvalues
    _finish(out, "build", cfg, seed, workers, {
        "edges.txt": edge_lines(graph),
        "spectrum.csv": csv_lines(["index", "eigenvalue"], enumerate(eigenvalues, start=1)),
    })

    for k, chain in enumerate(cfg.network.chains, start=1):
        _say(f"chain {k}: length {chain.length}, j_max {chain.j_max:g}, "
             f"mirror time {chain.mirror_time:.12g}")
    negatives = sum(1 for _, _, j in graph.edges() if j < 0)
    _say(f"{graph.n_sites} sites, {len(graph.values)} couplings "
         f"({negatives} negative), wrote {os.path.join(out, 'edges.txt')}")
    return EXIT_OK


# --- run ---------------------------------------------------------------------

def cmd_run(cfg: Config, out: str, seed: int, workers: int) -> int:
    if cfg.protocol is None:
        raise ConfigError("run needs a 'protocol' section")
    try:
        result = build_protocol(cfg.protocol.name, cfg.protocol.params)
    except ValueError as exc:
        raise ConfigError(str(exc))
    sites = result.network.n_sites
    if cfg.run.samples * sites > MAX_RUN_AMPLITUDES:
        raise ConfigError(f"run.samples: {cfg.run.samples} samples of {sites} sites are more "
                          f"than {MAX_RUN_AMPLITUDES:,} amplitudes")
    clean = cfg.disorder.clean
    graph = sample_disorder(result.graph(), cfg.disorder, SeededRng(seed, 0))

    tokens = mirror_tokens(result.network)
    duration = result.protocol.duration
    if cfg.run.duration is not None:
        duration = parse_time_expression(cfg.run.duration, tokens)
    render = replace_samples(result.protocol, np.linspace(0.0, duration, cfg.run.samples))
    decomp = eigh(graph.to_matrix())  # the run's one eigensolve, shared by every step below
    trajectory = run_decomposed(decomp, render)
    if cfg.run.amplitudes:  # each amplitude as its real and imaginary part, a state at a time
        columns = [f"{part}_{i}" for i in range(1, sites + 1) for part in ("re", "im")]
        values = [state.amplitudes.view(float) for state in trajectory.states]
    else:
        columns, values = [f"site_{i}" for i in range(1, sites + 1)], trajectory.populations()
    table = csv_lines(["t", *columns], ([t, *row] for t, row in zip(trajectory.times, values)))

    check_times = [t for t, _ in result.checkpoints]
    states = run_decomposed(
        decomp, replace_samples(result.protocol, check_times + [result.merit.time])
    ).states
    failed = False
    report_rows = []
    for (t, expected), state in zip(result.checkpoints, states):
        inner = expected.overlap(state)
        defect = abs(inner - 1.0)
        ok = defect <= CLEAN_CHECK_ATOL
        report_rows.append((t, defect, ok))
        if clean:
            status = "pass" if ok else "FAIL"
            _say(f"t = {t:.9g}: |<expected|state> - 1| = {defect:.3e}  [{status}]")
            failed = failed or not ok
        else:
            _say(f"t = {t:.9g}: fidelity vs clean target = "
                 f"{fidelity(state, expected):.6f} (disordered run)")
    value = float(result.merit.values(states[-1].amplitudes)[0])
    _say(f"figure of merit ({result.merit.kind}) at t = {result.merit.time:.9g}: {value:.9f}")
    missed = ["clean run missed an analytic target state"] if failed else []

    extra = {
        "protocol": result.name,
        "mirror_times": list(result.network.mirror_times),
        "merit": {"kind": result.merit.kind, "time": result.merit.time, "value": value},
        "checks": [
            {"time": t, "inner_defect": d, "pass": ok} for t, d, ok in report_rows
        ],
    }
    if result.name == "phase-sense":
        [kick] = result.protocol.events
        theta = math.degrees(kick.angle)  # the builder's angle, wrapped to [0, 360)
        [[estimate]] = probe_estimates(decomp, [theta]).tolist()
        error = abs(angle_offset(estimate, theta))
        _say(f"true angle {theta:.6f} deg, retrieved {estimate:.6f} deg "
             f"(|error| = {error:.2e} deg)")
        extra.update(theta_true_deg=theta, theta_estimate_deg=estimate)
        if clean and error > CLEAN_ANGLE_ATOL_DEG:
            missed.append(f"clean phase retrieval missed the true angle by {error:.3e} degrees")

    _finish(out, "run", cfg, seed, workers,
            {"trajectory.csv": table, "plot_trajectory.py": [TRAJECTORY_PLOT]}, extra)
    if missed:
        raise InvariantViolation("; ".join(missed))
    return EXIT_OK


# --- sweep -------------------------------------------------------------------

def cmd_sweep(cfg: Config, out: str, seed: int, workers: int) -> int:
    if cfg.sweep is None or cfg.protocol is None:
        raise ConfigError("sweep needs 'protocol' and 'sweep' sections")
    if cfg.protocol.name == "phase-sense":
        raise ConfigError("phase-sense cannot be swept; use phase-scan for its disorder curves")
    try:
        cells = sweep_cells(cfg.protocol.name, cfg.protocol.params, cfg.sweep, seed)
        # each size's protocol and merit before any cell runs; a cell's size is
        # the only input of its protocol that varies
        for cell in {c.size: c for c in cells}.values():
            cell.protocol()
    except ValueError as exc:
        raise ConfigError(str(exc))

    def progress(row: dict[str, Any], done: int) -> None:
        _say(f"[{done}/{len(cells)}] {row['kind']} size={row['size']} "
             f"E={row['e']:g}: mean={row['mean']:.6f}")

    rows = run_cells(cells, workers, os.path.join(out, JOURNALS["sweep"]), progress)

    columns = ["kind", "size", "e", "mean", "std", "std_of_mean", "k", "stream_base"]
    segments = []
    for kind in cfg.sweep.kinds:
        grid = {(row["size"], row["e"]): row["mean"] for row in rows if row["kind"] == kind}
        segments += [(kind, *segment) for segment in threshold_contour(grid, CONTOUR_LEVEL)]

    cell_records = [
        {"index": c.index, "size": c.size, "e": c.e, "kind": c.kind,
         "stream_base": c.stream_base, "k": c.realizations}
        for c in cells
    ]
    _finish(out, "sweep", cfg, seed, workers, {
        "heatmap.csv": csv_lines(columns, ([row[c] for c in columns] for row in rows)),
        "contour.csv": csv_lines(["kind", "size_1", "e_1", "size_2", "e_2"], segments),
        "plot_heatmap.py": [HEATMAP_PLOT.format(axis=cfg.sweep.axis)],
    }, {"cells": cell_records})
    _say(f"wrote {os.path.join(out, 'heatmap.csv')} and {os.path.join(out, 'contour.csv')}")
    return EXIT_OK


# --- phase scan --------------------------------------------------------------

def cmd_phase_scan(cfg: Config, out: str, seed: int, workers: int) -> int:
    if cfg.phase_scan is None:
        raise ConfigError("phase-scan needs a 'phase_scan' section")
    thetas = cfg.phase_scan.thetas_deg
    cells = phase_scan_cells(cfg.phase_scan, seed)

    def progress(row: dict[str, Any], done: int) -> None:
        worst = max(abs(angle_offset(mean, theta))
                    for theta, (mean, _, _) in zip(thetas, row["stats"]))
        _say(f"[{done}/{len(cells)}] {row['kind']} E={row['e']:g}: "
             f"max |mean - theta|={worst:.6f} deg")

    rows = run_cells(cells, workers, os.path.join(out, JOURNALS["phase-scan"]), progress)
    table = csv_lines(
        ["kind", "e", "theta_deg", "theta_mean_deg", "std_deg", "std_of_mean_deg", "k",
         "stream_base"],
        ([row["kind"], row["e"], theta, *stats, row["k"], row["stream_base"]]
         for row in rows for theta, stats in zip(thetas, row["stats"])))
    _finish(out, "phase-scan", cfg, seed, workers,
            {"phase_scan.csv": table, "plot_angles.py": [ANGLES_PLOT]})
    _say(f"wrote {os.path.join(out, 'phase_scan.csv')}")
    return EXIT_OK


# --- replay --------------------------------------------------------------------

# every command that takes a config, by its name on the command line and in meta.json
COMMANDS = {
    "build": cmd_build,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "phase-scan": cmd_phase_scan,
}
# the journal in --out of each command that keeps one
JOURNALS = {"sweep": "sweep.jsonl", "phase-scan": "phase_scan.jsonl"}


def _read_record(meta_path: str) -> tuple[str, Config, int, int]:
    """The (command, config, seed, workers) of a meta.json record, checked
    before anything is written."""
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8, an int of 4300+ digits
        raise ConfigError(f"cannot read meta record {meta_path}: {exc}")
    if not isinstance(meta, dict):
        raise ConfigError(f"meta record {meta_path} is not a JSON object")
    for key in ("command", "config", "master_seed"):
        if key not in meta:
            raise ConfigError(f"meta record is missing {key!r}")
    command = meta["command"]
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"cannot replay command {command!r}")
    seed = check_seed(meta["master_seed"], f"{meta_path}.master_seed")
    workers = check_workers(meta.get("workers", 1), f"{meta_path}.workers")
    return command, parse_config(meta["config"], where=meta_path), seed, workers


# --- generated plot scripts -----------------------------------------------------

_PLOT_HEADER = "#!/usr/bin/env python3\n# generated by spinnet; needs matplotlib + the CSVs next to it\n"

TRAJECTORY_PLOT = _PLOT_HEADER + '''
import csv, json
import matplotlib.pyplot as plt

with open("meta.json") as fh:
    meta = json.load(fh)
t_m = meta.get("mirror_times", [1.0])[0]
with open("trajectory.csv") as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], [[float(v) for v in row] for row in rows[1:]]
times = [row[0] / t_m for row in data]
for col, label in enumerate(header[1:], start=1):
    plt.plot(times, [row[col] for row in data], label=label)
plt.xlabel("t / t_m")
plt.ylabel("site population")
plt.legend(ncol=2, fontsize=7)
plt.tight_layout()
plt.savefig("trajectory.png", dpi=160)
'''

# a template for str.format, which fills in the sweep's axis
HEATMAP_PLOT = _PLOT_HEADER + '''
import csv
from collections import defaultdict
import matplotlib.pyplot as plt
import numpy as np

grids = defaultdict(dict)
with open("heatmap.csv") as fh:
    for row in csv.DictReader(fh):
        grids[row["kind"]][(int(row["size"]), float(row["e"]))] = float(row["mean"])
segments = defaultdict(list)
with open("contour.csv") as fh:
    for row in csv.DictReader(fh):
        segments[row["kind"]].append([(float(row["size_1"]), float(row["e_1"])),
                                      (float(row["size_2"]), float(row["e_2"]))])
fig, axes = plt.subplots(1, len(grids), squeeze=False, figsize=(5 * len(grids), 4))
for ax, (kind, grid) in zip(axes[0], sorted(grids.items())):
    sizes = sorted({{s for s, _ in grid}})
    es = sorted({{e for _, e in grid}})
    img = np.array([[grid[(s, e)] for s in sizes] for e in es])
    mesh = ax.pcolormesh(sizes, es, img, vmin=0.0, vmax=1.0, shading="nearest")
    for (x1, y1), (x2, y2) in segments[kind]:
        ax.plot([x1, x2], [y1, y2], color="white", lw=1.5)
    ax.set_xlabel({axis!r}.upper())
    ax.set_ylabel("E")
    ax.set_title(kind)
    fig.colorbar(mesh, ax=ax)
plt.tight_layout()
plt.savefig("heatmap.png", dpi=160)
'''

ANGLES_PLOT = _PLOT_HEADER + '''
import csv
from collections import defaultdict
import matplotlib.pyplot as plt

curves = defaultdict(list)
with open("phase_scan.csv") as fh:
    for row in csv.DictReader(fh):
        key = f"{row['kind']} E={float(row['e']):g}"
        curves[key].append((float(row["theta_deg"]), float(row["theta_mean_deg"]),
                            float(row["std_of_mean_deg"])))
fig, (ax, inset) = plt.subplots(1, 2, figsize=(9, 4))
for label, points in sorted(curves.items()):
    points.sort()
    xs = [p[0] for p in points]
    ax.plot(xs, [p[1] for p in points], marker=".", label=label)
    inset.plot(xs, [p[2] for p in points], marker=".", label=label)
ax.plot([0, 360], [0, 360], color="black", lw=0.8, ls="--")
ax.set_xlabel("true angle (deg)"); ax.set_ylabel("retrieved angle (deg)")
inset.set_xlabel("true angle (deg)"); inset.set_ylabel("std of mean (deg)")
ax.legend(fontsize=7)
plt.tight_layout()
plt.savefig("phase_scan.png", dpi=160)
'''


if __name__ == "__main__":
    sys.exit(main())
