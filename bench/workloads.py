"""The benchmark's workloads, their CLI configs and the correctness gate.

A workload is one `spinnet sweep` or `spinnet phase-scan` invocation. Its
grid is fixed here; the master seed and the realization count K come from
the harness arguments. Every output row of every run is checked against
the analytic clean values and against the committed reference CSVs in
`reference/`, which were written by this code at K = 1000 and seed
20230724.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 20230724
REFERENCE_K = 1000

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

CLEAN_MERIT_ATOL = 1e-9     # clean cells reach merit 1 (router fidelity, ent-phase EOF)
CLEAN_ANGLE_ATOL = 1e-6     # degrees, clean phase retrieval
REFERENCE_RTOL = 1e-9       # same seed and K as the reference
SIGMA_LIMIT = 5.0           # other seeds: |mean - ref| <= 5 sqrt(sem^2 + sem_ref^2)


@dataclass(frozen=True)
class SweepWorkload:
    """`spinnet sweep` over kinds x sizes x E (the CLI's cell order)."""

    name: str
    protocol: str
    workers: int
    n_values: tuple[int, ...]
    e_values: tuple[float, ...]
    kinds: tuple[str, ...]

    command = "sweep"
    output = "heatmap.csv"

    def config(self, seed: int, k: int) -> dict:
        return {
            "seed": seed,
            "workers": self.workers,
            "protocol": {"name": self.protocol, "n": self.n_values[0]},
            "sweep": {
                "n_values": list(self.n_values),
                "e_values": list(self.e_values),
                "kinds": list(self.kinds),
                "realizations": k,
            },
        }

    def expected_rows(self, k: int) -> list[dict]:
        """Row identity, k and stream_base of every cell, in file order."""
        rows = []
        for kind in self.kinds:
            for size in self.n_values:
                for e in self.e_values:
                    rows.append({"kind": kind, "size": size, "e": e, "clean": e == 0.0,
                                 "k": k, "stream_base": len(rows) * k})
        return rows

    def realizations(self, k: int) -> int:
        """Disorder realizations evaluated; a clean cell is evaluated once."""
        return sum(1 if row["clean"] else k for row in self.expected_rows(k))


@dataclass(frozen=True)
class PhaseScanWorkload:
    """`spinnet phase-scan`: one retrieved-angle curve per disorder setting."""

    name: str
    workers: int
    n: int
    thetas_deg: tuple[float, ...]
    settings: tuple[tuple[str, float], ...]

    command = "phase-scan"
    output = "phase_scan.csv"

    def config(self, seed: int, k: int) -> dict:
        settings = [{"kind": kind} if kind == "none" else {"kind": kind, "strength": e}
                    for kind, e in self.settings]
        return {
            "seed": seed,
            "workers": self.workers,
            "phase_scan": {
                "n": self.n,
                "thetas_deg": list(self.thetas_deg),
                "realizations": k,
                "settings": settings,
            },
        }

    def expected_rows(self, k: int) -> list[dict]:
        rows = []
        for index, (kind, e) in enumerate(self.settings):
            clean = kind == "none" or e == 0.0
            for theta in self.thetas_deg:
                rows.append({"kind": kind, "e": e, "theta_deg": theta, "clean": clean,
                             "k": 1 if clean else k, "stream_base": index * k})
        return rows

    def realizations(self, k: int) -> int:
        """Devices evaluated (each probed at every angle); clean settings once."""
        return sum(1 if kind == "none" or e == 0.0 else k for kind, e in self.settings)


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="sweep-small",
            protocol="ent-phase",
            workers=2,
            n_values=(4, 6, 8, 10, 12, 14),
            e_values=(0.0, 0.10, 0.20),
            kinds=("diagonal", "off_diagonal"),
        ),
        SweepWorkload(
            name="sweep-large",
            protocol="router",
            workers=1,
            n_values=(140,),
            e_values=(0.10,),
            kinds=("diagonal",),
        ),
        PhaseScanWorkload(
            name="phase-scan",
            workers=2,
            n=50,
            thetas_deg=tuple(float(t) for t in range(0, 360, 15)),
            settings=(("none", 0.0), ("diagonal", 0.05), ("off_diagonal", 0.10)),
        ),
    )
}


def write_config(workload, seed: int, k: int, path: str) -> None:
    """YAML is a superset of JSON, so the CLI reads this file as its config."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(seed, k), fh, indent=1)


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def reference_rows(workload) -> list[dict]:
    return read_rows(os.path.join(REFERENCE_DIR, workload.name + ".csv"))


def _angle_diff(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def check_rows(workload, rows: list[dict] | None, seed: int, k: int) -> list[str]:
    """One message per failed expected row; ``rows=None`` fails them all.

    Rows are compared in file order. ``k`` and ``stream_base`` must match
    exactly, clean rows must hit their analytic value, and disordered rows
    are compared with the reference: to 1e-9 relative when seed and K are
    the reference's, otherwise within SIGMA_LIMIT combined standard errors.
    Single-realization rows (the set-up runs) get the range checks only.
    """
    expected = workload.expected_rows(k)
    if rows is None or len(rows) != len(expected):
        problem = "no output" if rows is None else f"{len(rows)} rows, expected {len(expected)}"
        return [f"row {i}: {problem}" for i in range(len(expected))]
    reference = reference_rows(workload)
    exact = seed == DEFAULT_SEED and k == REFERENCE_K
    phase = isinstance(workload, PhaseScanWorkload)
    failures = []
    for i, want in enumerate(expected):
        got = rows[i]
        ref = reference[i] if i < len(reference) else None
        problem = _check_row(want, got, ref, exact, phase)
        if problem:
            failures.append(f"row {i} ({want['kind']}): {problem}")
    return failures


def _check_row(want: dict, got: dict, ref: dict | None, exact: bool, phase: bool) -> str:
    try:
        value_key = "theta_mean_deg" if phase else "mean"
        std_key = "std_deg" if phase else "std"
        sem_key = "std_of_mean_deg" if phase else "std_of_mean"
        mean, std, sem = float(got[value_key]), float(got[std_key]), float(got[sem_key])
        identity = ("theta_deg", "e") if phase else ("size", "e")
        if got["kind"] != want["kind"] or any(float(got[key]) != want[key] for key in identity):
            return f"identity {got} differs from {want}"
        if int(got["k"]) != want["k"] or int(got["stream_base"]) != want["stream_base"]:
            return f"k/stream_base {got['k']}/{got['stream_base']} != {want['k']}/{want['stream_base']}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable row {got}: {exc!r}"
    if not all(math.isfinite(v) for v in (mean, std, sem)) or std < 0 or sem < 0:
        return f"non-finite or negative statistics {got}"
    if phase:
        if not 0.0 <= mean < 360.0:
            return f"angle {mean} outside [0, 360)"
    elif not 0.0 <= mean <= 1.0 + CLEAN_MERIT_ATOL:
        return f"merit {mean} outside [0, 1]"
    if want["clean"]:
        if phase:
            miss = _angle_diff(mean, want["theta_deg"])
            return f"clean angle off by {miss:.3e} deg" if miss > CLEAN_ANGLE_ATOL else ""
        miss = abs(mean - 1.0)
        if miss > CLEAN_MERIT_ATOL or std != 0.0:
            return f"clean merit off by {miss:.3e} with std {std!r}"
        return ""
    if ref is None:
        return "no reference row"
    ref_mean, ref_std, ref_sem = float(ref[value_key]), float(ref[std_key]), float(ref[sem_key])
    delta = _angle_diff(mean, ref_mean) if phase else abs(mean - ref_mean)
    if exact:
        # the floor keeps a nonzero tolerance for angles near 0 degrees
        if delta > REFERENCE_RTOL * max(abs(ref_mean), 1e-3) or not math.isclose(
                std, ref_std, rel_tol=REFERENCE_RTOL, abs_tol=1e-15):
            return f"mean/std {mean!r}/{std!r} differ from reference {ref_mean!r}/{ref_std!r}"
        return ""
    if want["k"] >= 2 and delta > SIGMA_LIMIT * math.hypot(sem, ref_sem):
        return f"mean {mean!r} is {delta / math.hypot(sem, ref_sem):.1f} sigma from reference {ref_mean!r}"
    return ""
