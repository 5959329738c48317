"""Per-layer metrics: layer timings and a traced replay of one workload.

Layers are the package modules. Spans are recorded from outside the
package: the harness calls the public functions itself, and for the calls
the package makes internally (`CouplingGraph.to_matrix`, `eigh` and
`evolve` inside `run_schedule` and `phase_probe_estimates`) it swaps in a
recording wrapper for the duration of a traced loop. A span is
(name, start, end, parent); a layer's self time is its span minus the named
child spans. Spans stay in memory and are written to
`.bench_out/spans-<workload>.csv` at the end.

Layer timings run at N in SIZES (the phase probe at PROBE_SIZES) under
diagonal disorder E = LAYER_E, each for up to `--seconds / 40` seconds.
The workload replay calls the public functions in the order
`ensemble_merit` and `phase_scan_setting` call them, with the CLI's seed
streams, so its rows are checked like CLI output. It runs once untraced at
full K; its per-cell times feed `sweep.parallel_efficiency`. Capped at
TRACE_K realizations per cell it runs again with and without spans, and
the ratio of the two times is `trace.overhead_ratio`.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

from spinnet import dynamics, protocols, sweep
from spinnet.config import load_config
from spinnet.disorder import DisorderSpec, SeededRng, sample_disorder
from spinnet.dynamics import replace_samples, run_schedule
from spinnet.network import CouplingGraph, network_graph
from spinnet.observables import EnsembleAccumulator, ensemble_average, eof_pair, fidelity
from spinnet.protocols import build_protocol, phase_probe_estimates, unwrap_to_branch

from workloads import WORKLOADS, PhaseScanWorkload, check_rows, write_config

SIZES = (12, 40, 100, 200)
PROBE_SIZES = (20, 50)
PROBE_THETAS = tuple(float(t) for t in range(0, 360, 15))
PROTOCOLS = ("router", "ent-phase")
LAYER_E = 0.05
MERIT_BATCH = 5       # realizations per ensemble_merit sample
MIN_SAMPLES = 5
MAX_SAMPLES = 200
TRACE_K = 200        # realizations per cell in the overhead replays
OVERHEAD_REPEATS = 2
IMPORT_SAMPLES = 5
CLI_SAMPLES = 3

# internal calls that get a span while a traced loop runs
INTERNAL_CALLS = (
    (CouplingGraph, "to_matrix", "network.to_matrix"),
    (dynamics, "eigh", "linalg.eigh"),
    (dynamics, "evolve", "linalg.evolve"),
    (protocols, "eigh", "linalg.eigh"),
    (protocols, "evolve", "linalg.evolve"),
)
MATRIX_CHILDREN = ("network.to_matrix", "linalg.eigh")


class Tracer:
    """Spans of one traced loop, kept in memory."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def internals(self):
        """Record spans around the package's internal layer calls."""
        saved = []
        for owner, attr, name in INTERNAL_CALLS:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_us(self, name: str, minus: tuple[str, ...] = ()) -> list[float]:
        """Durations of every ``name`` span, less its direct ``minus`` children."""
        covered: dict[int, float] = {}
        for child, start, end, parent in self.spans:
            if parent >= 0 and child in minus:
                covered[parent] = covered.get(parent, 0.0) + end - start
        return [(end - start - covered.get(i, 0.0)) * 1e6
                for i, (span, start, end, _) in enumerate(self.spans) if span == name]

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def _direct(name, fn, *args):
    return fn(*args)


def sample_us(fn, cap_s: float) -> list[float]:
    """Time ``fn()`` repeatedly: at least MIN_SAMPLES, then until ``cap_s``."""
    samples: list[float] = []
    end = time.perf_counter() + cap_s
    while len(samples) < MAX_SAMPLES and (len(samples) < MIN_SAMPLES or time.perf_counter() < end):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e6)
    return samples


def _merit_call(merit):
    if merit.kind == "fidelity":
        return "observables.fidelity", fidelity, (merit.target,)
    return "observables.eof_pair", eof_pair, tuple(merit.pair)


def eigh_flops(n: int) -> int:
    """Model count for a dense complex Hermitian eigensolve with vectors.

    Golub & Van Loan's 9 n^3 real flops for the symmetric QR algorithm with
    eigenvectors, times 4 for complex arithmetic. A count, not a timing.
    """
    return 36 * n ** 3


def evolve_calls_per_realization(workload) -> int:
    """Propagations per realization, from the schedule: one per distinct
    event or observation time after t = 0 (two probes per angle after one
    shared half-way evolution for the phase scan)."""
    if isinstance(workload, PhaseScanWorkload):
        return 1 + 2 * len(workload.thetas_deg)
    result = build_protocol(workload.protocol, {"n": workload.n_values[0]})
    stops = {event.time for event in result.protocol.events if event.time > 0.0}
    return len(stops | {result.merit.time})


# --- workload replay -------------------------------------------------------

def replay(workload, seed: int, k: int, runs: int, tracer: Tracer | None = None):
    """Rows, per-unit seconds and realizations of ``runs`` draws per cell.

    A unit is a sweep cell or a phase-scan setting. Streams are addressed
    with the full ``k`` so the first draws are the CLI's.
    """
    call = tracer.call if tracer else _direct
    rows, unit_s, realizations = [], [], 0
    if isinstance(workload, PhaseScanWorkload):
        graph = build_protocol("ent-phase", {"n": workload.n}).graph()
        thetas = workload.thetas_deg
        for index, (kind, e) in enumerate(workload.settings):
            start = time.perf_counter()
            spec = DisorderSpec(kind, e)
            clean = kind == "none" or e == 0.0
            per_angle: list[list[float]] = [[] for _ in thetas]
            for j in range(1 if clean else runs):
                g = call("disorder.sample_disorder", sample_disorder, graph, spec,
                         SeededRng(seed, index * k + j))
                estimates = call("protocols.phase_probe_estimates", phase_probe_estimates,
                                 g, workload.n, thetas)
                for slot, theta, est in zip(per_angle, thetas, estimates):
                    slot.append(unwrap_to_branch(est, theta))
                realizations += 1
            unit_s.append(time.perf_counter() - start)
            for theta, values in zip(thetas, per_angle):
                mean, std, sem = ensemble_average(values)
                rows.append({"kind": kind, "e": e, "theta_deg": theta,
                             "theta_mean_deg": mean % 360.0, "std_deg": std,
                             "std_of_mean_deg": sem, "k": len(values),
                             "stream_base": index * k})
        return rows, unit_s, realizations
    for index, want in enumerate(workload.expected_rows(k)):
        start = time.perf_counter()
        result = build_protocol(workload.protocol, {"n": want["size"]})
        graph = result.graph()
        merit_name, merit_fn, merit_args = _merit_call(result.merit)
        protocol = replace_samples(result.protocol, (result.merit.time,))
        spec = DisorderSpec(want["kind"], want["e"])
        acc = EnsembleAccumulator()
        for j in range(runs):
            g = call("disorder.sample_disorder", sample_disorder, graph, spec,
                     SeededRng(seed, want["stream_base"] + j))
            state = call("dynamics.run_schedule", run_schedule, g, protocol).states[0]
            acc.add(call(merit_name, merit_fn, state, *merit_args))
            realizations += 1
            if want["clean"]:
                acc.extend(acc.values * (runs - 1))
                break
        unit_s.append(time.perf_counter() - start)
        rows.append({"kind": want["kind"], "size": want["size"], "e": want["e"],
                     "mean": acc.mean, "std": acc.std, "std_of_mean": acc.std_of_mean,
                     "k": acc.count, "stream_base": want["stream_base"]})
    return rows, unit_s, realizations


# --- layer timings -----------------------------------------------------------

def _traced_realizations(result, seed: int, cap_s: float) -> Tracer:
    """The ensemble_merit loop body, one span per layer call."""
    tracer = Tracer(f"{result.name}.n{result.network.n_sites}")
    graph = result.graph()
    protocol = replace_samples(result.protocol, (result.merit.time,))
    merit_name, merit_fn, merit_args = _merit_call(result.merit)
    spec = DisorderSpec("diagonal", LAYER_E)
    streams = itertools.count()

    def one():
        g = tracer.call("disorder.sample_disorder", sample_disorder, graph, spec,
                        SeededRng(seed, next(streams)))
        state = tracer.call("dynamics.run_schedule", run_schedule, g, protocol).states[0]
        tracer.call(merit_name, merit_fn, state, *merit_args)

    with tracer.internals():
        sample_us(one, cap_s)
    return tracer


def _traced_probe(n: int, seed: int, cap_s: float) -> Tracer:
    tracer = Tracer(f"probe.n{n}")
    graph = build_protocol("ent-phase", {"n": n}).graph()
    spec = DisorderSpec("diagonal", LAYER_E)
    streams = itertools.count()

    def one():
        g = sample_disorder(graph, spec, SeededRng(seed, next(streams)))
        tracer.call("protocols.phase_probe_estimates", phase_probe_estimates, g, n, PROBE_THETAS)

    with tracer.internals():
        sample_us(one, cap_s)
    return tracer


def _import_ms(env: dict) -> list[float]:
    code = "import time; t = time.perf_counter(); import spinnet.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip()) * 1e3)
    return samples


def layer_timings(workload, seed: int, k: int, seconds: float, runner, work_dir: str):
    """name -> (samples, unit); and the tracers whose spans are kept."""
    cap = seconds / 40.0
    timings: dict[str, tuple[list[float], str]] = {}
    tracers: list[Tracer] = []

    timings["cli.import_ms"] = (_import_ms(runner.env), "ms")
    config_path = os.path.join(work_dir, "layer-config.yaml")
    write_config(workload, seed, k, config_path)
    timings["config.load_config_ms"] = (
        [t / 1e3 for t in sample_us(lambda: load_config(config_path), cap)], "ms")

    checkpoint_dir = os.path.join(work_dir, "layer-checkpoints")
    row = {"index": 0, "size": 12, "e": 0.1, "kind": "diagonal", "mean": 0.99,
           "std": 0.01, "std_of_mean": 0.0003, "k": k, "stream_base": 0}
    timings["sweep.checkpoint_write_us"] = (
        sample_us(lambda: sweep._write_checkpoint(checkpoint_dir, row), cap), "us")

    for n in SIZES:
        router = build_protocol("router", {"n": n})
        graph = router.graph()
        timings[f"protocols.build_protocol_us.n{n}"] = (
            sample_us(lambda: build_protocol("router", {"n": n}), cap), "us")
        timings[f"network.network_graph_us.n{n}"] = (
            sample_us(lambda: network_graph(router.network), cap), "us")
        off = DisorderSpec("off_diagonal", LAYER_E)
        streams = itertools.count()
        timings[f"disorder.sample_disorder_us.off_diagonal.n{n}"] = (
            sample_us(lambda: sample_disorder(graph, off, SeededRng(seed, next(streams))), cap),
            "us")
        pooled = {"disorder.sample_disorder": [], "network.to_matrix": [],
                  "linalg.eigh": [], "linalg.evolve": []}
        for name in PROTOCOLS:
            result = build_protocol(name, {"n": n})
            tracer = _traced_realizations(result, seed, cap)
            tracers.append(tracer)
            for layer, values in pooled.items():
                values.extend(tracer.self_us(layer))
            timings[f"dynamics.run_schedule_self_us.{name}.n{n}"] = (
                tracer.self_us("dynamics.run_schedule", MATRIX_CHILDREN), "us")
            merit_name = _merit_call(result.merit)[0]
            timings[f"{merit_name}_us.n{n}"] = (tracer.self_us(merit_name), "us")
            spec = DisorderSpec("diagonal", LAYER_E)
            batches = itertools.count()
            timings[f"sweep.ensemble_merit_us_per_realization.{name}.n{n}"] = (
                [t / MERIT_BATCH for t in sample_us(
                    lambda: sweep.ensemble_merit(result, spec, MERIT_BATCH, seed,
                                                 stream_base=next(batches) * MERIT_BATCH),
                    cap)], "us")
        timings[f"disorder.sample_disorder_us.diagonal.n{n}"] = (
            pooled["disorder.sample_disorder"], "us")
        timings[f"network.to_matrix_us.n{n}"] = (pooled["network.to_matrix"], "us")
        timings[f"linalg.eigh_us.n{n}"] = (pooled["linalg.eigh"], "us")
        timings[f"linalg.evolve_us.n{n}"] = (pooled["linalg.evolve"], "us")

    for n in PROBE_SIZES:
        tracer = _traced_probe(n, seed, cap)
        tracers.append(tracer)
        timings[f"protocols.phase_probe_estimates_self_us.n{n}"] = (
            tracer.self_us("protocols.phase_probe_estimates", MATRIX_CHILDREN), "us")
    return timings, tracers


# --- entry point ---------------------------------------------------------------

def measure(workload, seed: int, k: int, seconds: float, runner, tally, work_dir: str):
    """All per-layer metrics for one traced run of ``workload``."""
    timings, tracers = layer_timings(workload, seed, k, seconds, runner, work_dir)
    metrics = {name: (statistics.median(values), unit) for name, (values, unit) in timings.items()}
    samples = {name: values for name, (values, _) in timings.items()}

    for n in SIZES:
        flops = eigh_flops(n)
        metrics[f"linalg.eigh_flops.n{n}"] = (flops, "flop")
        metrics[f"linalg.eigh_gflops.n{n}"] = (
            flops / (metrics[f"linalg.eigh_us.n{n}"][0] * 1e3), "GFLOP/s")
    for other in WORKLOADS.values():
        metrics[f"linalg.evolve_calls_per_realization.{other.name}"] = (
            evolve_calls_per_realization(other), "count")

    rows, unit_s, realizations = replay(workload, seed, k, k)
    tally.add(len(rows), check_rows(workload, rows, seed, k))

    # the same capped replay with and without spans, alternated so that a
    # change in machine speed hits both sides alike
    traced = Tracer(f"replay.{workload.name}")
    plain_s = traced_s = 0.0
    traced_realizations = 0
    for _ in range(OVERHEAD_REPEATS):
        plain_s += sum(replay(workload, seed, k, min(k, TRACE_K))[1])
        with traced.internals():
            _, times, count = replay(workload, seed, k, min(k, TRACE_K), traced)
        traced_s += sum(times)
        traced_realizations += count
    tracers.append(traced)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")

    # parallel efficiency: single-process unit times against the CLI's
    # compute time (wall minus set-up) on its configured workers
    setups = [runner.run(1) for _ in range(CLI_SAMPLES)]
    fulls = [runner.run(k) for _ in range(CLI_SAMPLES)]
    for run in setups + fulls:
        tally.add(run.attempted, run.failures)
    compute_s = (statistics.median(r.wall_s for r in fulls)
                 - statistics.median(r.wall_s for r in setups))
    metrics["sweep.parallel_efficiency"] = (
        sum(unit_s) / (workload.workers * max(compute_s, 1e-9)), "ratio")

    detail = {
        "replay_realizations": realizations, "replay_s": sum(unit_s),
        "overhead_replay_plain_s": plain_s, "overhead_replay_traced_s": traced_s,
        "traced_evolve_calls_per_realization": traced.count("linalg.evolve") / traced_realizations,
        "cli_compute_s": compute_s, "workers": workload.workers,
    }
    _write_spans(tracers, os.path.join(os.path.dirname(work_dir), f"spans-{workload.name}.csv"))
    return metrics, samples, detail


def _write_spans(tracers: list[Tracer], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("group,name,start_us,end_us,parent\n")
        for tracer in tracers:
            for name, start, end, parent in tracer.spans:
                fh.write(f"{tracer.label},{name},{start * 1e6:.3f},{end * 1e6:.3f},{parent}\n")
