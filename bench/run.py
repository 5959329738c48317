#!/usr/bin/env python3
"""Benchmark harness for spinnet's disorder sweeps and phase scans.

    python3 bench/run.py --workload sweep-small --seed 20230724 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`, nothing needs installing. With `--trace 0` the
workload runs through the `spinnet` CLI as separate processes, alternating
a set-up run (every `realizations` set to 1) with a full run, until
`--seconds` are used; the end-to-end metrics are medians over those runs.
With `--trace 1` the per-layer metrics are measured in process instead
(see `layers.py`). Either way every output row is checked (see
`workloads.py`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it give each
metric with its spread, the error rate and the environment; the full
record, samples included, is written to `.bench_out/` in the checkout.
"""

import os

# Child processes and the traced in-process run use one BLAS thread: with
# two workers on two cores more threads would oversubscribe, and a second
# thread made eigh at N = 100 only about 10% faster with a wider spread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from workloads import REFERENCE_K, WORKLOADS, check_rows, read_rows, write_config  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

MIN_PAIRS = 3        # full runs per measurement, even past --seconds
MIN_SETUPS = 9       # set-up runs per measurement
STOP_AFTER_S = 140   # start no new run after this, so the harness ends well within 180 s


@dataclass
class CliRun:
    wall_s: float
    rss_mib: float
    failures: list[str]
    attempted: int


@dataclass
class Tally:
    """Output rows checked and failed over one harness run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


class CliRunner:
    """Runs the CLI on one workload, each time in a fresh output directory."""

    def __init__(self, workload, seed: int, work_dir: str, stop_at: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.stop_at = stop_at
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")

    def run(self, k: int) -> CliRun:
        self.count += 1
        run_dir = os.path.join(self.work_dir, f"cli-{self.count:03d}")
        out = os.path.join(run_dir, "out")
        os.makedirs(out)
        # a reused directory would resume stale checkpoints and time a no-op
        if os.listdir(out):
            raise RuntimeError(f"output directory {out} is not empty")
        config = os.path.join(run_dir, "config.yaml")
        write_config(self.workload, self.seed, k, config)
        cmd = [sys.executable, "-m", "spinnet.cli", self.workload.command,
               "--config", config, "--out", out,
               "--seed", str(self.seed), "--workers", str(self.workload.workers)]
        with open(os.path.join(run_dir, "log.txt"), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=run_dir, start_new_session=True)
            # the run may not outlive the harness's own time limit
            killer = threading.Timer(max(1.0, self.stop_at + 30.0 - start),
                                     os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                # wait4 gives this child's rusage; ru_maxrss covers its pool workers
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rows = None
        if proc.returncode == 0:
            path = os.path.join(out, self.workload.output)
            rows = read_rows(path) if os.path.exists(path) else None
        failures = check_rows(self.workload, rows, self.seed, k)
        if proc.returncode != 0:
            failures[0] = f"exit code {proc.returncode}, see {run_dir}/log.txt; {failures[0]}"
        else:
            shutil.rmtree(run_dir)
        return CliRun(wall, usage.ru_maxrss / 1024.0, failures,
                      len(self.workload.expected_rows(k)))


def summarize(values: list[float]) -> dict:
    """Median, extremes, sample count, and p90 from ten samples on."""
    summary = {"median": statistics.median(values), "min": min(values),
               "max": max(values), "n": len(values)}
    if len(values) >= 10:
        summary["p90"] = statistics.quantiles(values, n=10, method="inclusive")[8]
    return summary


def measure_end_to_end(runner: CliRunner, k: int, seconds: float, tally: Tally):
    """Alternate set-up and full runs until ``seconds`` are used.

    Returns the metrics, their samples and further detail for the report.
    """
    workload = runner.workload
    deadline = min(time.perf_counter() + seconds, runner.stop_at)
    warm = runner.run(1)  # untimed: byte-compiles the package, fills the file cache
    tally.add(warm.attempted, warm.failures)
    setups: list[CliRun] = []
    fulls: list[CliRun] = []
    while True:
        setups.append(runner.run(1))
        fulls.append(runner.run(k))
        pair_s = setups[-1].wall_s + fulls[-1].wall_s
        spare = max(0, MIN_SETUPS - len(setups) - 1) * setups[-1].wall_s
        if len(fulls) >= MIN_PAIRS and time.perf_counter() + pair_s + spare > deadline:
            break
        if time.perf_counter() + pair_s > runner.stop_at:
            break
    while len(setups) < MIN_SETUPS and time.perf_counter() < runner.stop_at:
        setups.append(runner.run(1))
    for run in setups + fulls:
        tally.add(run.attempted, run.failures)

    wall = [r.wall_s for r in fulls]
    setup = [r.wall_s for r in setups]
    rss = [r.rss_mib for r in fulls]
    wall_s = statistics.median(wall)
    setup_s = statistics.median(setup)
    realizations = workload.realizations(k)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "realizations_per_s": (realizations / max(wall_s - setup_s, 1e-9), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    samples = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, samples, {"realizations": realizations}


def _blas_info() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        return {key: {"name": deps.get(key, {}).get("name"),
                      "version": deps.get(key, {}).get("version")} for key in ("blas", "lapack")}
    except TypeError:  # numpy < 1.25 has no dict mode
        return {}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "spinnet")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_info(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="master seed of the runs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--realizations", type=int, default=REFERENCE_K,
                        help="disorder realizations per cell (the self-test uses a tiny K)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinnet", "cli.py")):
        print(f"error: no spinnet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0 or args.realizations < 1:
        parser.error("need --seed >= 0, --seconds > 0 and --realizations >= 1")

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = CliRunner(workload, args.seed, work_dir, started + STOP_AFTER_S)
    tally = Tally()
    if args.trace:
        sys.path.insert(0, SRC)
        import layers

        metrics, samples, detail = layers.measure(workload, args.seed, args.realizations,
                                                  args.seconds, runner, tally, work_dir)
    else:
        metrics, samples, detail = measure_end_to_end(runner, args.realizations, args.seconds,
                                                      tally)
    summaries = {name: summarize(values) for name, values in samples.items()}
    error_rate = len(tally.failures) / max(tally.attempted, 1)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "realizations_per_cell": args.realizations,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "error_rate": error_rate, "failures": tally.failures[:50],
        "summaries": summaries, "samples": samples, "detail": detail,
        "environment": environment(),
        "elapsed_s": time.perf_counter() - started,
    }
    report = os.path.join(OUT_ROOT, f"report-{workload.name}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if not tally.failures:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        extra = summaries.get(name)
        line = f"{name:56s} {value:14.6g} {unit}"
        if extra:
            line += f"   (median of {extra['n']}, min {extra['min']:.6g}, max {extra['max']:.6g}"
            line += f", p90 {extra['p90']:.6g})" if "p90" in extra else ")"
        print(line)
    print(f"{'error_rate':56s} {error_rate:14.6g} fraction   "
          f"({len(tally.failures)} of {tally.attempted} output rows failed the check)")
    for failure in tally.failures[:10]:
        print(f"  FAILED {failure}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"report written to {report}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
