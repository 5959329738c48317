"""Command-line front end: build networks, run protocols, sweep disorder.

Subcommands
    build       edge list + spectrum of the configured network
    run         one protocol: trajectory CSV and an expected-state report
    sweep       disorder robustness heatmap over a (size, E) grid
    phase-scan  retrieved vs true angle table for the phase sensor
    replay      re-run any earlier command from its meta.json record

Exit codes: 0 success, 2 config error, 3 numerical-invariant violation
(including a clean run missing its analytic target).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from typing import Any, Sequence

import yaml

from . import __version__
from .config import (
    MAX_RUN_AMPLITUDES,
    Config,
    ConfigError,
    load_config,
    mirror_tokens,
    parse_config,
    parse_time_expression,
)
from .disorder import SEED_LIMIT, SeededRng, sample_disorder
from .dynamics import replace_samples, run_decomposed, uniform_samples
from .linalg import InvariantViolation, eigh
from .network import network_graph, write_edge_list
from .observables import fidelity
from .protocols import build_protocol, probe_estimates
from .sweep import merit_values, phase_scan_cells, run_cells, sweep_cells, threshold_contour

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CLEAN_CHECK_ATOL = 1e-9
CLEAN_ANGLE_ATOL_DEG = 1e-6
CONTOUR_LEVEL = 0.9


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinnet", description=__doc__)
    sub = parser.add_subparsers(required=True)

    def add(name: str, handler, needs_config: bool = True):
        p = sub.add_parser(name)
        if needs_config:  # replay takes its config and seed from the record
            p.add_argument("--config", required=True, help="YAML config file")
            p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        p.set_defaults(handler=handler)
        return p

    add("build", cmd_build)
    add("run", cmd_run)
    add("sweep", cmd_sweep)
    add("phase-scan", cmd_phase_scan)
    replay = add("replay", cmd_replay, needs_config=False)
    replay.add_argument("meta", help="meta.json of the run to reproduce")
    return parser


def _prepare(args) -> tuple[Config, str, int, int]:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be in [0, 2^64), got {seed}")
    workers = _workers(args.workers, cfg.workers)
    os.makedirs(args.out, exist_ok=True)
    return cfg, args.out, seed, workers


def _workers(requested: int | None, default: int) -> int:
    """The worker count: ``--workers`` when given, else ``default``."""
    workers = default if requested is None else requested
    if workers < 1:
        raise ConfigError("--workers must be >= 1")
    return workers


def _write_meta(out: str, command: str, cfg: Config, seed: int, workers: int,
                outputs: list[str], extra: dict[str, Any] | None = None) -> str:
    meta = {
        "tool": "spinnet",
        "version": __version__,
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "master_seed": seed,
        "workers": workers,
        "config": cfg.raw,
        "outputs": outputs,
    }
    if extra:
        meta.update(extra)
    path = os.path.join(out, "meta.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


# --- build -----------------------------------------------------------------

def cmd_build(args) -> int:
    cfg, out, seed, workers = _prepare(args)
    if cfg.network is None:
        raise ConfigError("build needs a 'network' section")
    graph = network_graph(cfg.network)

    edges_path = os.path.join(out, "edges.txt")
    with open(edges_path, "w", encoding="utf-8") as fh:
        write_edge_list(graph, fh)

    decomp = eigh(graph.to_matrix())
    spectrum_path = os.path.join(out, "spectrum.csv")
    with open(spectrum_path, "w", encoding="utf-8") as fh:
        fh.write("index,eigenvalue\n")
        for idx, ev in enumerate(decomp.eigenvalues, start=1):
            fh.write(f"{idx},{ev:.12g}\n")

    for k, chain in enumerate(cfg.network.chains, start=1):
        print(f"chain {k}: length {chain.length}, j_max {chain.j_max:g}, "
              f"mirror time {chain.mirror_time:.12g}")
    negatives = sum(1 for _, _, j in graph.edges() if j < 0)
    print(f"{graph.n_sites} sites, {len(graph.values)} couplings "
          f"({negatives} negative), wrote {edges_path}")

    _write_meta(out, "build", cfg, seed, workers, ["edges.txt", "spectrum.csv"])
    return EXIT_OK


# --- run ---------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg, out, seed, workers = _prepare(args)
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
    render = replace_samples(result.protocol, uniform_samples(duration, cfg.run.samples))
    decomp = eigh(graph.to_matrix())  # the run's one eigensolve, shared by every step below
    trajectory = run_decomposed(decomp, render)
    traj_path = os.path.join(out, "trajectory.csv")
    with open(traj_path, "w", encoding="utf-8") as fh:
        trajectory.write_csv(fh, amplitudes=cfg.run.amplitudes)

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
            print(f"t = {t:.9g}: |<expected|state> - 1| = {defect:.3e}  [{status}]")
            failed = failed or not ok
        else:
            print(f"t = {t:.9g}: fidelity vs clean target = "
                  f"{fidelity(state, expected):.6f} (disordered run)")
    value = float(merit_values(states[-1].amplitudes, result.merit)[0])
    print(f"figure of merit ({result.merit.kind}) at t = {result.merit.time:.9g}: {value:.9f}")
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
        theta = float(cfg.protocol.params.get("theta_deg", 0.0)) % 360.0
        estimate = probe_estimates(decomp, result.network.n_sites, [theta])[0][0]
        error = abs(estimate - theta)
        error = min(error, 360.0 - error)
        print(f"true angle {theta:.6f} deg, retrieved {estimate:.6f} deg "
              f"(|error| = {error:.2e} deg)")
        extra.update(theta_true_deg=theta, theta_estimate_deg=estimate)
        if clean and error > CLEAN_ANGLE_ATOL_DEG:
            missed.append(f"clean phase retrieval missed the true angle by {error:.3e} degrees")

    _write_meta(out, "run", cfg, seed, workers, ["trajectory.csv"], extra=extra)
    _write_trajectory_plot_script(out)
    if missed:
        raise InvariantViolation("; ".join(missed))
    return EXIT_OK


# --- sweep -------------------------------------------------------------------

def cmd_sweep(args) -> int:
    cfg, out, seed, workers = _prepare(args)
    if cfg.sweep is None or cfg.protocol is None:
        raise ConfigError("sweep needs 'protocol' and 'sweep' sections")
    if cfg.protocol.name == "phase-sense":
        raise ConfigError("phase-sense cannot be swept; use phase-scan for its disorder curves")
    try:
        cells = sweep_cells(cfg.protocol.name, cfg.protocol.params, cfg.sweep, seed)
        for cell in cells:  # every size's protocol and merit, before any cell runs
            cell.protocol()
    except ValueError as exc:
        raise ConfigError(str(exc))

    checkpoint_dir = os.path.join(out, "checkpoints")
    done = 0

    def progress(row: dict[str, Any]) -> None:
        nonlocal done
        done += 1
        print(f"[{done}/{len(cells)}] {row['kind']} size={row['size']} "
              f"E={row['e']:g}: mean={row['mean']:.6f}", flush=True)

    rows = run_cells(cells, workers=workers, checkpoint_dir=checkpoint_dir, on_cell=progress)

    heatmap_path = os.path.join(out, "heatmap.csv")
    with open(heatmap_path, "w", encoding="utf-8") as fh:
        fh.write("kind,size,e,mean,std,std_of_mean,k,stream_base\n")
        for row in rows:
            fh.write(
                f"{row['kind']},{row['size']},{row['e']:.12g},{row['mean']:.12g},"
                f"{row['std']:.12g},{row['std_of_mean']:.12g},{row['k']},{row['stream_base']}\n"
            )

    contour_path = os.path.join(out, "contour.csv")
    with open(contour_path, "w", encoding="utf-8") as fh:
        fh.write("kind,size_1,e_1,size_2,e_2\n")
        for kind in cfg.sweep.kinds:
            grid = {(row["size"], row["e"]): row["mean"] for row in rows if row["kind"] == kind}
            xs = list(cfg.sweep.sizes)
            ys = list(cfg.sweep.e_values)
            values = [[grid[(x, y)] for x in xs] for y in ys]
            for x1, y1, x2, y2 in threshold_contour(xs, ys, values, CONTOUR_LEVEL):
                fh.write(f"{kind},{x1:.12g},{y1:.12g},{x2:.12g},{y2:.12g}\n")

    cell_records = [
        {"index": c.index, "size": c.size, "e": c.e, "kind": c.kind,
         "stream_base": c.stream_base, "k": c.realizations}
        for c in cells
    ]
    _write_meta(out, "sweep", cfg, seed, workers,
                ["heatmap.csv", "contour.csv"], extra={"cells": cell_records})
    _write_heatmap_plot_script(out, cfg.sweep.axis)
    print(f"wrote {heatmap_path} and {contour_path}")
    return EXIT_OK


# --- phase scan --------------------------------------------------------------

def cmd_phase_scan(args) -> int:
    cfg, out, seed, workers = _prepare(args)
    if cfg.phase_scan is None:
        raise ConfigError("phase-scan needs a 'phase_scan' section")
    thetas = cfg.phase_scan.thetas_deg
    cells = phase_scan_cells(cfg.phase_scan, seed)
    done = 0

    def progress(row: dict[str, Any]) -> None:
        nonlocal done
        done += 1
        worst = max(abs((mean - theta + 180.0) % 360.0 - 180.0)
                    for theta, (mean, _, _) in zip(thetas, row["stats"]))
        print(f"[{done}/{len(cells)}] {row['kind']} E={row['e']:g}: "
              f"max |mean - theta|={worst:.6f} deg", flush=True)

    rows = run_cells(cells, workers=workers, checkpoint_dir=os.path.join(out, "checkpoints"),
                     on_cell=progress)
    path = os.path.join(out, "phase_scan.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,e,theta_deg,theta_mean_deg,std_deg,std_of_mean_deg,k,stream_base\n")
        for row in rows:
            for theta, (mean, std, sem) in zip(thetas, row["stats"]):
                fh.write(
                    f"{row['kind']},{row['e']:.12g},{theta:.12g},{mean:.12g},{std:.12g},"
                    f"{sem:.12g},{row['k']},{row['stream_base']}\n"
                )
    _write_meta(out, "phase-scan", cfg, seed, workers, ["phase_scan.csv"])
    _write_phase_plot_script(out)
    print(f"wrote {path}")
    return EXIT_OK


# --- replay --------------------------------------------------------------------

def cmd_replay(args) -> int:
    try:
        with open(args.meta, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read meta record {args.meta}: {exc}")
    for key in ("command", "config", "master_seed"):
        if key not in meta:
            raise ConfigError(f"meta record is missing {key!r}")
    command = meta["command"]
    handlers = {
        "build": cmd_build,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "phase-scan": cmd_phase_scan,
    }
    if command not in handlers:
        raise ConfigError(f"cannot replay command {command!r}")
    # materialise the recorded config and dispatch with the recorded seed
    parse_config(meta["config"], where=args.meta)  # validate before writing anything
    workers = _workers(args.workers, meta.get("workers", 1))
    os.makedirs(args.out, exist_ok=True)
    config_path = os.path.join(args.out, "replayed_config.yaml")
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(meta["config"], fh, sort_keys=True)
    replay_args = argparse.Namespace(
        config=config_path,
        out=args.out,
        seed=int(meta["master_seed"]),
        workers=workers,
    )
    return handlers[command](replay_args)


# --- generated plot scripts -----------------------------------------------------

_PLOT_HEADER = "#!/usr/bin/env python3\n# generated by spinnet; needs matplotlib + the CSVs next to it\n"


def _write_script(out: str, name: str, body: str) -> None:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_HEADER + body)


def _write_trajectory_plot_script(out: str) -> None:
    _write_script(out, "plot_trajectory.py", '''
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
''')


def _write_heatmap_plot_script(out: str, axis: str) -> None:
    _write_script(out, "plot_heatmap.py", f'''
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
''')


def _write_phase_plot_script(out: str) -> None:
    _write_script(out, "plot_angles.py", '''
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
''')


if __name__ == "__main__":
    sys.exit(main())
