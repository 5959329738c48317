import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import spinnet.cli as cli
import spinnet.sweep as sweep
from spinnet.linalg import InvariantViolation
from spinnet.config import (MAX_REALIZATIONS, MAX_RUN_AMPLITUDES, MAX_RUN_SAMPLES,
                            MAX_SCAN_ANGLES, MAX_SCAN_VALUES, MAX_SIZE, ConfigError,
                            parse_config)
from spinnet.network import CouplingGraph


def write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every pool a test starts; a real pool of 2 starts on any machine."""
    sizes = []
    real_pool = sweep.multiprocessing.Pool

    def pool(processes, initializer=None, initargs=()):
        sizes.append(processes)
        return real_pool(processes=processes, initializer=initializer, initargs=initargs)

    monkeypatch.setattr(sweep.multiprocessing, "Pool", pool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
    return sizes


# --- build ------------------------------------------------------------------

def test_build_two_chain_network(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"network": {"chains": [{"length": 3}, {"length": 3}]}},
    )
    out = tmp_path / "out"
    assert run_cli("build", "--config", cfg, "--out", out) == 0
    edges = (out / "edges.txt").read_text().splitlines()
    edge_rows = [line for line in edges if not line.startswith("site")]
    negatives = [line for line in edge_rows if float(line.split()[2]) < 0]
    assert len(negatives) == 1
    assert len([line for line in edges if line.startswith("site")]) == 6
    spectrum = read_csv(out / "spectrum.csv")
    assert len(spectrum) == 6
    assert "mirror time" in capsys.readouterr().out
    assert json.loads((out / "meta.json").read_text())["command"] == "build"


def test_build_single_chain_is_a_path(tmp_path):
    cfg = write_config(tmp_path, {"network": {"chains": [{"length": 4}]}})
    out = tmp_path / "out"
    assert run_cli("build", "--config", cfg, "--out", out) == 0
    edge_rows = [
        line for line in (out / "edges.txt").read_text().splitlines()
        if not line.startswith("site")
    ]
    assert [tuple(r.split()[:2]) for r in edge_rows] == [
        ("1", "2"), ("2", "3"), ("3", "4")
    ]


def test_build_three_chain_junction_pattern(tmp_path):
    cfg = write_config(
        tmp_path, {"network": {"chains": [{"length": 3}] * 3}}
    )
    out = tmp_path / "out"
    assert run_cli("build", "--config", cfg, "--out", out) == 0
    couplings = {}
    for line in (out / "edges.txt").read_text().splitlines():
        parts = line.split()
        if parts[0] != "site":
            couplings[(int(parts[0]), int(parts[1]))] = float(parts[2])
    assert couplings[(4, 5)] < 0 and couplings[(7, 8)] < 0
    assert (3, 4) not in couplings and (6, 7) not in couplings


def test_build_requires_network_section(tmp_path):
    cfg = write_config(tmp_path, {"seed": 1})
    assert run_cli("build", "--config", cfg, "--out", tmp_path / "o") == 2


def test_malformed_yaml_exits_with_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("network:\n  chains: [\n")
    assert run_cli("build", "--config", path, "--out", tmp_path / "o") == 2


def test_unknown_key_exits_with_config_error(tmp_path):
    cfg = write_config(tmp_path, {"network": {"chains": [{"length": 3}]}, "sed": 1})
    assert run_cli("build", "--config", cfg, "--out", tmp_path / "o") == 2


# --- run --------------------------------------------------------------------

def test_run_router_clean(tmp_path, capsys):
    cfg = write_config(tmp_path, {"protocol": {"name": "router", "n": 6}})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "[pass]" in stdout
    rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 400
    assert set(rows[0]) == {"t"} | {f"site_{i}" for i in range(1, 7)}
    final = rows[-1]
    assert float(final["site_6"]) == pytest.approx(1.0, abs=1e-9)


def test_run_center_protocol_avoids_lower_junction_site(tmp_path):
    cfg = write_config(tmp_path, {"protocol": {"name": "ent-center", "n": 12}})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    rows = read_csv(out / "trajectory.csv")
    assert max(float(r["site_7"]) for r in rows) < 1e-9


def test_run_mws12_is_periodic(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "protocol": {"name": "mws", "chain_length": 4},
            "run": {"samples": 321},
        },
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 321
    assert float(rows[0]["site_5"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[-1]["site_5"]) == pytest.approx(1.0, abs=1e-9)  # 8 t_m,A


def test_run_with_duration_override_and_amplitudes(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "protocol": {"name": "router", "n": 6},
            "run": {"duration": "4*t_m", "samples": 11, "amplitudes": True},
        },
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,re_1,im_1")


def test_run_writes_trajectory_rows_and_header(tmp_path):
    """trajectory.csv holds one row per sample, each a unit-norm state: as
    site populations, or with run.amplitudes as the amplitudes' parts."""
    sites = [str(i) for i in range(1, 7)]  # a router of n = 6 has six sites
    for amplitudes, columns in ((False, [f"site_{i}" for i in sites]),
                                (True, [f"{part}_{i}" for i in sites for part in ("re", "im")])):
        cfg = write_config(tmp_path, {"protocol": {"name": "router", "n": 6},
                                      "run": {"samples": 5, "amplitudes": amplitudes}})
        out = tmp_path / f"amplitudes-{amplitudes}"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == ",".join(["t", *columns])
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert table.shape == (5, 1 + len(columns))
        assert table[0, 0] == 0.0 and np.all(np.diff(table[:, 0]) > 0)
        populations = table[:, 1:] ** 2 if amplitudes else table[:, 1:]
        assert np.allclose(populations.sum(axis=1), 1.0, atol=1e-10)


def test_run_disordered_reports_but_does_not_gate(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "protocol": {"name": "router", "n": 6},
            "disorder": {"kind": "diagonal", "strength": 0.3},
        },
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out, "--seed", 5) == 0
    assert "disordered run" in capsys.readouterr().out


def test_run_unknown_protocol_lists_alternatives(tmp_path, capsys):
    cfg = write_config(tmp_path, {"protocol": {"name": "beam-splitter"}})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "router" in capsys.readouterr().err


def test_run_phase_sense(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"protocol": {"name": "phase-sense", "n": 8, "theta_deg": 45.0}},
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert "retrieved 45.000000" in capsys.readouterr().out


def test_run_phase_sense_shares_the_run_path(tmp_path, capsys, monkeypatch):
    protocol = {"name": "phase-sense", "n": 12, "theta_deg": 400.0}
    cfg = write_config(tmp_path, {"protocol": protocol, "run": {"samples": 9}})
    out = tmp_path / "clean"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["protocol"] == "phase-sense"
    assert meta["theta_true_deg"] == 40.0
    assert abs(meta["theta_estimate_deg"] - 40.0) < 1e-6
    assert meta["checks"][0]["pass"] and meta["mirror_times"]
    assert len(read_csv(out / "trajectory.csv")) == 9
    assert (out / "plot_trajectory.py").exists()

    disordered = write_config(
        tmp_path,
        {"protocol": protocol, "disorder": {"kind": "off_diagonal", "strength": 0.3}},
        name="disordered.yaml",
    )
    monkeypatch.setattr(cli, "probe_estimates", lambda decomp, thetas: np.array([[41.0]]))
    assert run_cli("run", "--config", disordered, "--out", tmp_path / "dis") == 0
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "miss") == 3
    assert "missed the true angle" in capsys.readouterr().err


def test_run_phase_sense_needs_n(tmp_path):
    cfg = write_config(tmp_path, {"protocol": {"name": "phase-sense", "theta_deg": 10.0}})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2


def test_invariant_violation_maps_to_exit_3(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"protocol": {"name": "router", "n": 6}})

    def boom(name, params):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli, "build_protocol", boom)
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 3


@pytest.mark.parametrize("protocol", [
    {"name": "phase-sense", "n": 8, "theta_deg": 45.0},
    {"name": "router", "n": 6},
    {"name": "ent-phase", "n": 6},
])
@pytest.mark.parametrize("disorder", [{}, {"kind": "diagonal", "strength": 0.2}])
def test_run_decomposes_its_network_once(tmp_path, monkeypatch, protocol, disorder):
    """Trajectory, checks, merit and the phase-sense probe share one eigh."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = write_config(tmp_path, {"protocol": protocol, "disorder": disorder,
                                  "run": {"samples": 5}})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 0
    n = protocol["n"]
    assert calls == [(n, n)]


def assert_config_error_writes_nothing(tmp_path, capsys, command, data, message):
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists() or not any(out.iterdir())


NINES = "9" * 400  # its float() is inf, and NINES / NINES is nan


@pytest.mark.parametrize("duration, message", [
    ("t_m/0", "division by zero"),
    ("2/0*t_m", "division by zero"),
    ("t_m + 1/0.0*t_m", "division by zero"),
    (math.inf, "finite"),
    (math.nan, "finite"),
    (10**400, "finite"),  # an integer beyond a float's range
    # once a ValueError traceback, and a trajectory at t = nan that exited 0
    pytest.param(f"{NINES}*t_m", "finite", id="inf-expression"),
    pytest.param(f"{NINES}/{NINES}*t_m", "finite", id="nan-expression"),
])
def test_run_rejects_an_undefined_duration(tmp_path, capsys, duration, message):
    data = {"protocol": {"name": "router", "n": 6}, "run": {"duration": duration}}
    assert_config_error_writes_nothing(tmp_path, capsys, "run", data, message)


def test_sweep_rejects_an_observe_time_past_a_float(tmp_path, capsys):
    """inf / inf, a nan time that no kick fires before: once a heatmap of
    zero means, clean cells included, and exit 0."""
    data = dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], observe=f"{NINES}/{NINES}*t_m"))
    assert_config_error_writes_nothing(tmp_path, capsys, "sweep", data,
                                       "times must be finite and non-negative")


def test_sweep_rejects_a_zero_denominator_in_observe(tmp_path, capsys):
    data = dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], observe="2/0*t_m"))
    assert_config_error_writes_nothing(tmp_path, capsys, "sweep", data, "division by zero")


@pytest.mark.parametrize("observe, code", [("200*t_m", 0), ("2000000*t_m", 2)])
def test_sweep_observe_is_bounded(tmp_path, capsys, observe, code):
    # a 12-site router lasts 2*t_m; 2000000*t_m once asked numpy for 1.43 GiB at K = 10
    data = {"protocol": {"name": "router", "n": 12},
            "sweep": {"n_values": [12], "e_values": [0.1], "realizations": 10,
                      "observe": observe}}
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", write_config(tmp_path, data), "--out", out) == code
    err = capsys.readouterr().err
    if code == 0:
        assert (out / "heatmap.csv").exists()
    else:
        assert err.startswith("config error: sweep.observe:") and "Traceback" not in err
        assert not (out / "heatmap.csv").exists()


# a setting is its kind and strength: the Gaussian's width and J_max are fixed
BAD_DISORDER = [
    ({"width": 0.5}, "unknown key 'width'; allowed: ['kind', 'strength']"),
    ({"strength": math.nan}, "strength must be finite and >= 0"),
    ({"strength": math.inf}, "strength must be finite and >= 0"),
    ({"width": math.nan}, "unknown key 'width'; allowed: ['kind', 'strength']"),
    ({"j_max_ref": 1.0}, "unknown key 'j_max_ref'; allowed: ['kind', 'strength']"),
    ({"strength": -0.1}, "strength must be finite and >= 0"),
    # above J_max: the series' Bessel table grows with E
    ({"strength": 1.5}, "strength must be finite and >= 0 and at most 1, got 1.5"),
    ({"strength": 10**400}, "int too large to convert to float"),
]


@pytest.mark.parametrize("fields, message", BAD_DISORDER)
def test_run_rejects_non_finite_or_negative_disorder(tmp_path, capsys, fields, message):
    data = {"protocol": {"name": "router", "n": 6},
            "disorder": dict({"kind": "diagonal", "strength": 0.1}, **fields)}
    assert_config_error_writes_nothing(tmp_path, capsys, "run", data, message)


@pytest.mark.parametrize("fields, message", BAD_DISORDER)
def test_phase_scan_rejects_non_finite_or_negative_disorder(tmp_path, capsys, fields, message):
    setting = dict({"kind": "off_diagonal", "strength": 0.1}, **fields)
    data = {"phase_scan": {"n": 6, "thetas_deg": [90.0], "realizations": 2,
                           "settings": [{"kind": "none"}, setting]}}
    assert_config_error_writes_nothing(tmp_path, capsys, "phase-scan", data, message)


def test_a_null_phase_scan_setting_runs_no_cell(tmp_path, capsys):
    data = {"phase_scan": {"n": 6, "thetas_deg": [90.0], "realizations": 2,
                           "settings": [None, {"kind": "diagonal", "strength": 0.05}]}}
    assert_config_error_writes_nothing(tmp_path, capsys, "phase-scan", data,
                                       "phase_scan.settings[1]: expected a mapping")


@pytest.mark.parametrize("command, data, message", [
    ("sweep", {"protocol": {"name": "router", "n": 6},
               "sweep": {"n_values": [6], "e_values": [0.1], "kinds": []}},
     "sweep.kinds: need at least one disorder kind"),
    ("phase-scan", {"phase_scan": {"n": 6, "settings": []}},
     "phase_scan.settings: need at least one disorder setting"),
    ("phase-scan", {"phase_scan": {"n": 6, "thetas_deg": []}},
     "phase_scan.thetas_deg: need at least one angle"),
], ids=["sweep-kinds", "phase-scan-settings", "phase-scan-angles"])
def test_an_empty_list_runs_no_cell(tmp_path, capsys, command, data, message):
    assert_config_error_writes_nothing(tmp_path, capsys, command, data, message)


def test_a_key_given_twice_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: 1\nprotocol: {name: router, n: 6}\nseed: 2\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", out) == 2
    assert f"{path}, line 3: key 'seed' is given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("e", [math.inf, math.nan, -0.1, 1.5])
def test_sweep_rejects_non_finite_e_values(tmp_path, capsys, e):
    data = dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], e_values=[0.1, e]))
    assert_config_error_writes_nothing(tmp_path, capsys, "sweep", data,
                                       f"sweep: disorder strength must be finite and >= 0 "
                                       f"and at most 1, got {e}")


@pytest.mark.parametrize("j_max", [math.inf, math.nan, 0.0])
def test_build_rejects_an_infinite_chain_coupling(tmp_path, capsys, j_max):
    data = {"network": {"chains": [{"length": 3}, {"length": 3, "j_max": j_max}]}}
    assert_config_error_writes_nothing(tmp_path, capsys, "build", data,
                                       "j_max must be positive and finite")


# --- sweep ------------------------------------------------------------------

SWEEP_CONFIG = {
    "protocol": {"name": "router", "n": 4},
    "seed": 99,
    "sweep": {
        "n_values": [4, 6],
        "e_values": [0.0, 0.2],
        "kinds": ["diagonal", "off_diagonal"],
        "realizations": 8,
    },
}


def test_sweep_heatmap_and_determinism(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("sweep", "--config", cfg, "--out", out1) == 0
    assert run_cli("sweep", "--config", cfg, "--out", out2, "--workers", 3) == 0
    heat1 = (out1 / "heatmap.csv").read_bytes()
    heat2 = (out2 / "heatmap.csv").read_bytes()
    assert heat1 == heat2  # independent of worker count
    rows = read_csv(out1 / "heatmap.csv")
    assert len(rows) == 8
    clean = [r for r in rows if float(r["e"]) == 0.0]
    for row in clean:
        assert float(row["mean"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["std"]) == 0.0
    assert (out1 / "contour.csv").exists()
    assert (out1 / "plot_heatmap.py").exists()
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["master_seed"] == 99
    assert len(meta["cells"]) == 8
    # stream addressing is disjoint across cells
    bases = [c["stream_base"] for c in meta["cells"]]
    assert sorted(bases) == [i * 8 for i in range(8)]


def test_sweep_rejects_phase_sense(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SWEEP_CONFIG, "protocol": {"name": "phase-sense", "n": 4}})
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "phase-scan" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", [
    {"name": "router", "m": 3},
    {"name": "w-state", "chain_length": 3},
])
def test_sweep_rejects_an_axis_its_protocol_does_not_use(tmp_path, capsys, protocol):
    cfg = write_config(tmp_path, {**SWEEP_CONFIG, "protocol": protocol})
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    captured = capsys.readouterr()
    assert "does not use parameter 'n'" in captured.err
    assert captured.out == ""  # no cell ran
    assert not (out / "heatmap.csv").exists()


def test_sweep_rejects_a_boolean_realization_count(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("protocol: {name: router, n: 4}\n"
                   "sweep: {n_values: [4], e_values: [0.1], realizations: yes}\n")
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    assert "realizations" in capsys.readouterr().err
    assert not (out / "heatmap.csv").exists()


def journal_lines(path):
    """The lines of a journal, each read back as its dict."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_journal(path, lines):
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))


def test_sweep_resumes_from_checkpoints(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    first = (out / "heatmap.csv").read_bytes()
    journal = out / "sweep.jsonl"
    lines = journal_lines(journal)
    assert [line["index"] for line in lines] == list(range(8))  # in process: in cell order
    assert not (out / "checkpoints").exists()
    (out / "heatmap.csv").unlink()
    # tamper with one line to prove resumed cells are read, not rerun
    lines[0]["mean"] = 0.123456
    write_journal(journal, lines)
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    rows = read_csv(out / "heatmap.csv")
    assert float(rows[0]["mean"]) == 0.123456
    assert journal_lines(journal) == lines  # nothing appended
    # a fresh directory reproduces the original bytes
    out3 = tmp_path / "fresh"
    assert run_cli("sweep", "--config", cfg, "--out", out3) == 0
    assert (out3 / "heatmap.csv").read_bytes() == first


def test_sweep_discards_checkpoints_of_another_configuration(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SWEEP_CONFIG, "seed": 1})
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    seed_1 = (out / "heatmap.csv").read_bytes()
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--out", out, "--seed", 7) == 0
    err = capsys.readouterr().err
    assert err.count("written for another configuration") == 8
    assert run_cli("sweep", "--config", cfg, "--out", fresh, "--seed", 7) == 0
    seed_7 = (fresh / "heatmap.csv").read_bytes()
    assert seed_7 != seed_1
    assert (out / "heatmap.csv").read_bytes() == seed_7
    assert json.loads((out / "meta.json").read_text())["master_seed"] == 7
    # the journal keeps only the seed-7 lines, which are reused silently
    assert [line["fingerprint"]["master_seed"] for line in journal_lines(out / "sweep.jsonl")] \
        == [7] * 8
    assert run_cli("sweep", "--config", cfg, "--out", out, "--seed", 7) == 0
    assert "warning" not in capsys.readouterr().err
    assert (out / "heatmap.csv").read_bytes() == seed_7


def test_sweep_recomputes_an_unreadable_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    first = (out / "heatmap.csv").read_bytes()
    journal = out / "sweep.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:20] + b"\n"  # cell 3's line, cut off
    journal.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    err = capsys.readouterr().err
    assert err.count("warning: discarding checkpoint") == 1
    assert f"{journal}:4: it cannot be read" in err
    assert (out / "heatmap.csv").read_bytes() == first
    assert [line["index"] for line in journal_lines(journal)] == [0, 1, 2, 4, 5, 6, 7, 3]


@pytest.mark.parametrize("line", [
    "[3, 0.5]", '"row"', "null", '{"mean": 0.5}', '{"index": [3]}', '{"index": "3"}',
])
def test_sweep_discards_a_journal_line_that_is_not_a_row(tmp_path, capsys, line):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    first = (out / "heatmap.csv").read_bytes()
    journal = out / "sweep.jsonl"
    kept = journal.read_text()
    journal.write_text(kept + line + "\n")
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    err = capsys.readouterr().err
    assert err.count("warning: discarding checkpoint") == 1
    assert f"{journal}:9: it is not the row of a cell" in err
    assert (out / "heatmap.csv").read_bytes() == first
    assert journal.read_text() == kept


def test_sweep_recomputes_the_cells_of_another_numpy(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    monkeypatch.setattr(sweep.np, "__version__", "0.0.0")  # as after an upgrade
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    assert capsys.readouterr().err.count("written for another configuration") == 8
    assert {line["fingerprint"]["numpy"] for line in journal_lines(out / "sweep.jsonl")} \
        == {"0.0.0"}


def package_env(path):
    """The environment of a process that imports spinnet from ``path`` alone,
    with one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(path), OPENBLAS_NUM_THREADS="1")


SRC = pathlib.Path(cli.__file__).resolve().parents[1]


def test_sweep_recomputes_the_cells_of_changed_code(tmp_path):
    """The fingerprint holds a digest of the package's sources: a copy of the
    package whose Gaussian width is doubled, at the same version number,
    reruns a sweep into the same --out as if it were fresh."""
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    first = (out / "heatmap.csv").read_bytes()
    changed = tmp_path / "changed"
    shutil.copytree(SRC / "spinnet", changed / "spinnet",
                    ignore=shutil.ignore_patterns("__pycache__"))
    disorder = changed / "spinnet" / "disorder.py"
    width = "GAUSSIAN_WIDTH = 1.0 / (2.0 * math.sqrt(3.0))"
    assert disorder.read_text().count(width) == 1
    disorder.write_text(disorder.read_text().replace(width, "GAUSSIAN_WIDTH = 1.0 / 3.0 ** 0.5"))

    def changed_sweep(target):
        return subprocess.run([sys.executable, "-m", "spinnet.cli", "sweep", "--config", cfg,
                               "--out", str(target)], env=package_env(changed),
                              capture_output=True, text=True, timeout=300)

    rerun = changed_sweep(out)
    assert rerun.returncode == 0, rerun.stderr
    assert rerun.stderr.count("warning: discarding checkpoint") == 8
    assert rerun.stderr.count("written for another configuration") == 8
    assert changed_sweep(fresh).returncode == 0
    assert (out / "heatmap.csv").read_bytes() == (fresh / "heatmap.csv").read_bytes() != first


INTERRUPTED_SWEEP_CONFIG = {
    # a fast cell at N = 4 is journaled long before the slow cells at N = 200 end
    "protocol": {"name": "router", "n": 4},
    "seed": 7,
    "sweep": {"n_values": [4, 200], "e_values": [0.1], "kinds": ["diagonal", "off_diagonal"],
              "realizations": 2000},
}


@pytest.mark.skipif(not hasattr(os, "killpg") or (os.cpu_count() or 1) < 2,
                    reason="needs process groups and a pool of two")
def test_ctrl_c_ends_a_pooled_sweep_with_one_line_and_exit_130(tmp_path, capsys):
    """SIGINT to the process group of a sweep on two workers, as Ctrl-C sends
    it, once the journal holds a line: one line on stderr, exit 130, no
    process left, and a rerun resumes to the heatmap of an uninterrupted run."""
    cfg = write_config(tmp_path, INTERRUPTED_SWEEP_CONFIG)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    journal = out / "sweep.jsonl"
    run = subprocess.Popen(
        [sys.executable, "-m", "spinnet.cli", "sweep", "--config", cfg, "--out", str(out),
         "--workers", "2"],
        env=package_env(SRC), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
        # a terminal's foreground job takes SIGINT, even where this process ignores it
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 120
        while not (journal.exists() and journal.read_bytes().count(b"\n")):
            assert run.poll() is None, "the sweep ended before its first journal line"
            assert time.monotonic() < deadline
            time.sleep(0.005)
        os.killpg(run.pid, signal.SIGINT)
        _, err = run.communicate(timeout=60)
    finally:
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
    assert run.returncode == 130
    assert err.splitlines() == [
        f"interrupted; {journal} keeps every finished cell, and a rerun resumes from it"]
    with pytest.raises(ProcessLookupError):  # the workers went with the parent
        os.killpg(run.pid, 0)
    kept = len(journal.read_text().splitlines())
    assert 1 <= kept < 4
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    captured = capsys.readouterr()
    assert sum(line.startswith("[") for line in captured.out.splitlines()) == 4 - kept
    assert "warning" not in captured.err
    assert run_cli("sweep", "--config", cfg, "--out", fresh) == 0
    assert (out / "heatmap.csv").read_bytes() == (fresh / "heatmap.csv").read_bytes()


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the patched part reaches the workers only through fork")
def test_a_killed_pool_worker_ends_the_sweep_with_one_line_and_exit_4(tmp_path, capfd, pool_sizes,
                                                                      monkeypatch):
    """A part SIGKILLs its own worker on a real pool of 2, as the OOM killer
    would: the run ends within 10 s with exit 4 and one stderr line, leaves
    no process, and a rerun resumes to the heatmap of an uninterrupted run."""
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    parent, armed = os.getpid(), [True]
    values = sweep.SweepCell.values

    def killing(cell, first, stop):
        if armed[0] and cell.index == 7 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return values(cell, first, stop)

    def too_slow(signum, frame):
        raise TimeoutError("the sweep was still running 10 s after it started")

    monkeypatch.setattr(sweep.SweepCell, "values", killing)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        assert run_cli("sweep", "--config", cfg, "--out", out, "--workers", 2) == 4
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert pool_sizes == [2]
    assert multiprocessing.active_children() == []
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert re.fullmatch(
        r"worker lost: worker process \d+ ended with exit code -9; cells \[(\d+, )*7(, \d+)*\] "
        rf"did not finish; {re.escape(str(out / 'sweep.jsonl'))} keeps every finished cell, "
        r"and a rerun resumes from it\n", err)
    assert 7 not in [line["index"] for line in journal_lines(out / "sweep.jsonl")]
    armed[0] = False
    assert run_cli("sweep", "--config", cfg, "--out", out, "--workers", 2) == 0
    assert run_cli("sweep", "--config", cfg, "--out", fresh) == 0
    assert (out / "heatmap.csv").read_bytes() == (fresh / "heatmap.csv").read_bytes()


def test_an_old_checkpoints_directory_is_ignored_and_kept(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run_cli("sweep", "--config", cfg, "--out", fresh) == 0
    old = out / "checkpoints" / "cell_00000.json"
    old.parent.mkdir(parents=True)
    row = dict(journal_lines(fresh / "sweep.jsonl")[0], mean=0.123456)
    old.write_text(json.dumps(row, sort_keys=True))
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    assert "warning" not in capsys.readouterr().err
    assert (out / "heatmap.csv").read_bytes() == (fresh / "heatmap.csv").read_bytes()
    assert os.listdir(out / "checkpoints") == ["cell_00000.json"]
    assert json.loads(old.read_text()) == row


CUT_SWEEP_CONFIG = {
    "protocol": {"name": "router", "n": 4},
    "seed": 3,
    "sweep": {"n_values": [4, 6], "e_values": [0.0, 0.1], "kinds": ["diagonal"],
              "realizations": 3},
}


@pytest.fixture(scope="module")
def uncut_sweep(tmp_path_factory):
    """The config, heatmap and journal of one uninterrupted small sweep."""
    root = tmp_path_factory.mktemp("uncut")
    cfg = write_config(root, CUT_SWEEP_CONFIG)
    assert run_cli("sweep", "--config", cfg, "--out", root / "out") == 0
    return cfg, (root / "out" / "heatmap.csv").read_bytes(), (root / "out" / "sweep.jsonl")


@settings(max_examples=30, deadline=None)  # about 1 s
@given(data=st.data())
def test_a_sweep_resumed_from_a_journal_cut_anywhere_writes_the_uncut_heatmap(uncut_sweep, data):
    cfg, heatmap, uncut = uncut_sweep
    whole = uncut.read_bytes()
    cut = data.draw(st.integers(0, len(whole)), label="cut")
    # a line cut between its brace and its newline is whole; any other cut line is not
    cut_mid_line = 0 < cut < len(whole) and b"\n" not in whole[cut - 1:cut + 1]
    with tempfile.TemporaryDirectory() as root:
        out = pathlib.Path(root)
        (out / "sweep.jsonl").write_bytes(whole[:cut])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        assert err.getvalue().count("warning") == cut_mid_line
        assert cut_mid_line == ("cannot be read" in err.getvalue())
        assert (out / "heatmap.csv").read_bytes() == heatmap
        assert sorted((out / "sweep.jsonl").read_bytes().splitlines()) \
            == sorted(whole.splitlines())


def test_sweep_eof_observable(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "protocol": {"name": "ent-phase", "n": 6},
            "sweep": {
                "n_values": [6],
                "e_values": [0.0],
                "kinds": ["diagonal"],
                "realizations": 2,
                "observable": "eof",
                "observe": "2*t_m",
            },
        },
    )
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    rows = read_csv(out / "heatmap.csv")
    assert float(rows[0]["mean"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_values, pair, sites", [
    ([4], [1, 12], 4),
    ([12, 4], [1, 12], 4),  # fits the first size, not the second
    ([6], [3, 3], 6),
])
def test_sweep_rejects_an_eof_pair_that_does_not_fit_every_size(
    tmp_path, capsys, n_values, pair, sites
):
    cfg = write_config(
        tmp_path,
        {
            "protocol": {"name": "ent-phase", "n": 12},
            "sweep": {
                "n_values": n_values,
                "e_values": [0.0],
                "kinds": ["diagonal"],
                "realizations": 2,
                "observable": "eof",
                "eof_pair": pair,
            },
        },
    )
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    captured = capsys.readouterr()
    message = f"config error: sweep.eof_pair {pair} needs two distinct sites in 1..{sites}"
    assert message in captured.err
    assert captured.out == ""  # no cell ran
    assert not (out / "sweep.jsonl").exists()


@pytest.mark.parametrize("observable", [None, "auto", "fidelity"])
def test_sweep_rejects_an_eof_pair_that_its_observable_would_ignore(
    tmp_path, capsys, observable
):
    sweep = {"n_values": [8], "e_values": [0.1], "realizations": 2, "eof_pair": [2, 7]}
    if observable is not None:
        sweep["observable"] = observable
    cfg = write_config(tmp_path, {"protocol": {"name": "ent-phase", "n": 8}, "sweep": sweep})
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    captured = capsys.readouterr()
    assert (f"config error: sweep.eof_pair: only observable: eof reads a site pair, "
            f"got observable: {observable or 'auto'}") in captured.err
    assert captured.out == ""  # no cell ran
    assert not (out / "sweep.jsonl").exists()


def test_sweep_contour_crosses_threshold(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "protocol": {"name": "router", "n": 4},
            "seed": 3,
            "sweep": {
                "n_values": [6, 8],
                "e_values": [0.0, 0.35, 0.7],
                "kinds": ["off_diagonal"],
                "realizations": 30,
            },
        },
    )
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    rows = read_csv(out / "heatmap.csv")
    means = [float(r["mean"]) for r in rows]
    assert max(means) > 0.9 > min(means)
    contour = read_csv(out / "contour.csv")
    assert len(contour) >= 1


def test_sweep_contour_walks_the_axes_in_order(tmp_path):
    data = {"protocol": {"name": "router", "n": 6}, "seed": 7,
            "sweep": {"n_values": [10, 6, 8], "e_values": [1.0, 0.0, 0.5], "realizations": 20}}
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", write_config(tmp_path, data), "--out", out) == 0
    rows = read_csv(out / "heatmap.csv")
    assert [(int(r["size"]), float(r["e"])) for r in rows[:3]] == [(10, 1.0), (10, 0.0),
                                                                     (10, 0.5)]  # config order
    grid = {(int(r["size"]), float(r["e"])): float(r["mean"]) for r in rows}
    expected = sweep.threshold_contour(grid, cli.CONTOUR_LEVEL)
    assert expected  # the level crosses the grid
    contour = [tuple(float(r[k]) for k in ("size_1", "e_1", "size_2", "e_2"))
               for r in read_csv(out / "contour.csv")]
    assert contour == expected


def test_an_m_values_sweep_runs_the_same_on_a_pool(tmp_path, pool_sizes):
    data = {"protocol": {"name": "router", "m": 2}, "seed": 5,
            "sweep": {"m_values": [2, 3, 5], "e_values": [0.0, 0.1],
                      "kinds": ["diagonal", "off_diagonal"], "realizations": 6}}
    cfg = write_config(tmp_path, data)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run_cli("sweep", "--config", cfg, "--out", serial, "--workers", 1) == 0
    assert run_cli("sweep", "--config", cfg, "--out", pooled, "--workers", 2) == 0
    assert pool_sizes == [2]
    for name in ("heatmap.csv", "contour.csv"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes()
    rows = read_csv(serial / "heatmap.csv")
    assert [(r["kind"], int(r["size"])) for r in rows[::2]] == [
        (kind, m) for kind in ("diagonal", "off_diagonal") for m in (2, 3, 5)]
    for row in rows:
        if float(row["e"]) == 0.0:  # a clean m-chain router routes exactly
            assert (float(row["mean"]), float(row["std"])) == (1.0, 0.0)
        else:
            assert 0.0 < float(row["mean"]) < 1.0


@pytest.mark.parametrize("key, values", [
    ("n_values", [6, 6]), ("e_values", [0.5, 0.0, 0.5]), ("kinds", ["diagonal", "diagonal"]),
])
def test_sweep_rejects_a_repeated_axis_value(tmp_path, capsys, key, values):
    data = {"protocol": {"name": "router", "n": 6},
            "sweep": dict({"n_values": [6], "e_values": [0.5], "realizations": 5}, **{key: values})}
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", write_config(tmp_path, data), "--out", out) == 2
    captured = capsys.readouterr()
    assert f"sweep.{key}: " in captured.err and "is listed twice" in captured.err
    assert captured.out == ""  # no cell ran
    assert not out.exists()


# --- replay ------------------------------------------------------------------

def test_replay_reproduces_sweep(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    replayed = tmp_path / "replayed"
    assert run_cli("replay", out / "meta.json", "--out", replayed) == 0
    assert (replayed / "heatmap.csv").read_bytes() == (out / "heatmap.csv").read_bytes()


@pytest.mark.parametrize("command, data, csv_name", [
    ("run", {"protocol": {"name": "ent-phase", "n": 8},
             "disorder": {"kind": "diagonal", "strength": 0.1},
             "run": {"samples": 50}}, "trajectory.csv"),
    ("phase-scan", {"phase_scan": {"n": 6, "thetas_deg": [0.0, 135.0, 315.0], "realizations": 4,
                                   "settings": [{"kind": "none"},
                                                {"kind": "diagonal", "strength": 0.05}]}},
     "phase_scan.csv"),
])
def test_replay_reproduces_run_and_phase_scan(tmp_path, command, data, csv_name):
    cfg = write_config(tmp_path, data)
    out, replayed = tmp_path / "out", tmp_path / "replayed"
    assert run_cli(command, "--config", cfg, "--out", out, "--seed", 17) == 0
    assert run_cli("replay", out / "meta.json", "--out", replayed) == 0
    assert (replayed / csv_name).read_bytes() == (out / csv_name).read_bytes()


def test_replay_rejects_bad_record(tmp_path):
    bad = tmp_path / "meta.json"
    bad.write_text(json.dumps({"command": "sweep"}))
    assert run_cli("replay", bad, "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("key, value, message", [
    ("command", "teleport", "cannot replay command 'teleport'"),
    ("command", ["run"], "cannot replay command ['run']"),
    ("master_seed", "x", "master_seed must be an integer in [0, 2^64), got 'x'"),
    ("master_seed", True, "master_seed must be an integer in [0, 2^64), got True"),
    ("master_seed", 1.0, "master_seed must be an integer in [0, 2^64), got 1.0"),
    ("master_seed", -1, "master_seed must be an integer in [0, 2^64), got -1"),
    ("master_seed", 2**64, f"master_seed must be an integer in [0, 2^64), got {2**64}"),
    ("workers", "2", "workers must be an integer >= 1, got '2'"),
    ("workers", True, "workers must be an integer >= 1, got True"),
    ("workers", 0, "workers must be an integer >= 1, got 0"),
])
def test_replay_checks_the_record_before_writing(tmp_path, capsys, key, value, message):
    cfg = write_config(tmp_path, {"protocol": {"name": "ent-phase", "n": 8},
                                  "run": {"samples": 5}})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    meta = json.loads((out / "meta.json").read_text())
    meta[key] = value
    (out / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    replayed = tmp_path / "replayed"
    assert run_cli("replay", out / "meta.json", "--out", replayed) == 2
    assert message in capsys.readouterr().err
    assert not replayed.exists()


@pytest.mark.parametrize("record", [5, "run", ["command", "config", "master_seed"]])
def test_replay_rejects_a_record_that_is_not_an_object(tmp_path, capsys, record):
    bad = tmp_path / "meta.json"
    bad.write_text(json.dumps(record))
    assert run_cli("replay", bad, "--out", tmp_path / "replayed") == 2
    assert "is not a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "replayed").exists()


@pytest.mark.parametrize("config", [None, 5, "x", [1]])
def test_replay_rejects_a_config_that_is_not_a_mapping(tmp_path, capsys, config):
    bad = tmp_path / "meta.json"
    bad.write_text(json.dumps({"command": "run", "config": config, "master_seed": 1}))
    assert run_cli("replay", bad, "--out", tmp_path / "replayed") == 2
    assert f"config error: {bad}: top level must be a mapping" in capsys.readouterr().err
    assert not (tmp_path / "replayed").exists()


@pytest.mark.parametrize("value, message", [
    (b"9" * 5000, "Exceeds the limit (4300 digits)"),
    (b'"\xff"', "can't decode byte 0xff"),
], ids=["huge integer", "bad byte"])
@pytest.mark.parametrize("source", ["config", "record"])
def test_a_value_python_cannot_read_is_a_config_error(tmp_path, capsys, source, value, message):
    if source == "config":
        path = tmp_path / "config.yaml"
        path.write_bytes(b"seed: " + value + b"\n")
        args = ("run", "--config", path)
    else:
        path = tmp_path / "meta.json"
        path.write_bytes(b'{"command": "run", "config": {}, "master_seed": ' + value + b"}")
        args = ("replay", path)
    out = tmp_path / "out"
    assert run_cli(*args, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("under_it", [False, True])
def test_an_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, under_it):
    blocker = tmp_path / "a-file"
    blocker.write_text("kept\n")
    out = blocker / "out" if under_it else blocker
    cfg = write_config(tmp_path, {"network": {"chains": [{"length": 3}]}})
    assert run_cli("build", "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")
    recorded = tmp_path / "recorded"
    assert run_cli("build", "--config", cfg, "--out", recorded) == 0
    capsys.readouterr()
    assert run_cli("replay", recorded / "meta.json", "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")
    assert blocker.read_text() == "kept\n"


def tree(root):
    """Every file under ``root``, relative to it."""
    return sorted(os.path.relpath(os.path.join(path, name), root)
                  for path, _, names in os.walk(root) for name in names)


@pytest.mark.parametrize("command, data", [
    ("build", {"network": {"chains": [{"length": 5}, {"length": 4}, {"length": 6}]}}),
    ("run", {"protocol": {"name": "router", "n": 6}, "run": {"samples": 5}}),
    ("sweep", SWEEP_CONFIG),
    ("phase-scan", {"phase_scan": {"n": 6, "thetas_deg": [0.0, 90.0], "realizations": 3}}),
])
def test_replay_writes_no_file_of_its_own(tmp_path, command, data):
    out, replayed = tmp_path / "out", tmp_path / "replayed"
    assert run_cli(command, "--config", write_config(tmp_path, data), "--out", out) == 0
    assert run_cli("replay", out / "meta.json", "--out", replayed) == 0
    assert tree(replayed) == tree(out)


def test_replay_takes_no_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:  # argparse: the record's seed is the only one
        run_cli("replay", out / "meta.json", "--out", tmp_path / "replayed", "--seed", 999)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 999" in capsys.readouterr().err
    assert not (tmp_path / "replayed").exists()


# --- phase scan ----------------------------------------------------------------

def test_phase_scan_clean_and_disordered(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "seed": 11,
            "phase_scan": {
                "n": 6,
                "thetas_deg": [0.0, 90.0, 180.0, 300.0],
                "realizations": 5,
                "settings": [
                    {"kind": "none"},
                    {"kind": "diagonal", "strength": 0.05},
                ],
            },
        },
    )
    out = tmp_path / "out"
    assert run_cli("phase-scan", "--config", cfg, "--out", out) == 0
    rows = read_csv(out / "phase_scan.csv")
    assert len(rows) == 8
    for row in rows:
        if row["kind"] == "none":
            assert float(row["theta_mean_deg"]) == pytest.approx(
                float(row["theta_deg"]), abs=1e-6
            )
            assert float(row["std_deg"]) == 0.0
        else:
            assert int(row["k"]) == 5
    assert (out / "plot_angles.py").exists()


POOLED_SCAN_CONFIG = {
    "seed": 5,
    "phase_scan": {
        "n": 6,
        "thetas_deg": [0.0, 135.0, 315.0],
        "realizations": 6,
        "settings": [
            {"kind": "none"},
            {"kind": "diagonal", "strength": 0.05},
            {"kind": "off_diagonal", "strength": 0.1},
        ],
    },
}


def scan_config(**settings_2):
    """POOLED_SCAN_CONFIG with its second disordered setting changed."""
    scan = dict(POOLED_SCAN_CONFIG["phase_scan"])
    scan["settings"] = scan["settings"][:2] + [dict(scan["settings"][2], **settings_2)]
    return dict(POOLED_SCAN_CONFIG, phase_scan=scan)


def test_phase_scan_does_not_depend_on_the_worker_count(tmp_path, pool_sizes, capsys):
    cfg = write_config(tmp_path, POOLED_SCAN_CONFIG)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run_cli("phase-scan", "--config", cfg, "--out", serial, "--workers", 1) == 0
    assert run_cli("phase-scan", "--config", cfg, "--out", pooled, "--workers", 2) == 0
    assert pool_sizes == [2]
    assert (pooled / "phase_scan.csv").read_bytes() == (serial / "phase_scan.csv").read_bytes()
    lines = {}
    for name in ("serial", "pooled"):
        journal = (tmp_path / name / "phase_scan.jsonl").read_text().splitlines()
        lines[name] = {json.loads(line)["index"]: line for line in journal}
        assert len(lines[name]) == len(journal) == 3
    assert lines["pooled"] == lines["serial"]
    out = capsys.readouterr().out
    assert all(f"[{done}/3] " in out for done in (1, 2, 3))
    assert "diagonal E=0.05: max |mean - theta|=" in out
    # each run appends its lines as its settings finish, in the order it reports them
    reports = [line.split("] ")[1].split(":")[0] for line in out.splitlines() if line[0] == "["]
    for name, run in (("serial", reports[:3]), ("pooled", reports[3:6])):
        journal = journal_lines(tmp_path / name / "phase_scan.jsonl")
        assert [f"{line['kind']} E={line['e']:g}" for line in journal] == run


def test_phase_scan_resumes_from_checkpoints(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, POOLED_SCAN_CONFIG)
    out = tmp_path / "out"
    assert run_cli("phase-scan", "--config", cfg, "--out", out) == 0
    first = (out / "phase_scan.csv").read_bytes()
    # an interrupted run: the CSV and one setting's line were never written
    (out / "phase_scan.csv").unlink()
    journal = out / "phase_scan.jsonl"
    whole = journal_lines(journal)
    write_journal(journal, whole[:1] + whole[2:])
    ran = []
    values = sweep.PhaseScanCell.values

    def spy(cell, first, stop):
        ran.append((cell.index, first, stop))
        return values(cell, first, stop)

    monkeypatch.setattr(sweep.PhaseScanCell, "values", spy)
    assert run_cli("phase-scan", "--config", cfg, "--out", out) == 0
    assert ran == [(1, 0, 6)]
    assert journal_lines(journal) == whole[:1] + whole[2:] + whole[1:2]
    assert (out / "phase_scan.csv").read_bytes() == first
    replayed = tmp_path / "replayed"
    assert run_cli("replay", out / "meta.json", "--out", replayed) == 0
    assert (replayed / "phase_scan.csv").read_bytes() == first


@pytest.mark.parametrize("command, data, journal", [
    ("sweep", SWEEP_CONFIG, "sweep.jsonl"),
    ("phase-scan", POOLED_SCAN_CONFIG, "phase_scan.jsonl"),
], ids=["sweep", "phase-scan"])
def test_a_resumed_run_counts_its_resumed_cells_in_its_progress(tmp_path, capsys, command, data,
                                                               journal):
    """One progress line per computed cell, numbered after the cells read
    back from the journal, so that the last reads [N/N]."""
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out) == 0
    lines = journal_lines(out / journal)
    write_journal(out / journal, lines[:2])
    capsys.readouterr()
    assert run_cli(command, "--config", cfg, "--out", out) == 0
    progress = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    total = len(lines)
    assert [line.split("]")[0] for line in progress] == [f"[{done}/{total}" for done in
                                                         range(3, total + 1)]


@pytest.mark.parametrize("command, data, discarded", [
    ("phase-scan", scan_config(strength=0.2), 1),
    ("phase-scan", scan_config(kind="diagonal"), 1),
    ("phase-scan", {**POOLED_SCAN_CONFIG, "phase_scan": dict(POOLED_SCAN_CONFIG["phase_scan"],
                                                             thetas_deg=[0.0, 135.0])}, 3),
    ("sweep", SWEEP_CONFIG, 0),  # a sweep's cells 0-2 in the same --out keep their own journal
])
def test_phase_scan_discards_checkpoints_of_another_configuration(
    tmp_path, capsys, command, data, discarded
):
    cfg = write_config(tmp_path, POOLED_SCAN_CONFIG)
    before = write_config(tmp_path, data, name="before.yaml")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run_cli(command, "--config", before, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("phase-scan", "--config", cfg, "--out", out) == 0
    err = capsys.readouterr().err
    assert err.count("written for another configuration; computing the cell again") == discarded
    assert run_cli("phase-scan", "--config", cfg, "--out", fresh) == 0
    assert (out / "phase_scan.csv").read_bytes() == (fresh / "phase_scan.csv").read_bytes()
    # the discarded lines are gone: the journal holds the lines of a fresh run
    assert (sorted((out / "phase_scan.jsonl").read_text().splitlines())
            == sorted((fresh / "phase_scan.jsonl").read_text().splitlines()))


def test_a_sweep_and_a_phase_scan_share_one_out(tmp_path, capsys, monkeypatch):
    sweep_cfg = write_config(tmp_path, SWEEP_CONFIG, name="sweep.yaml")
    scan_cfg = write_config(tmp_path, POOLED_SCAN_CONFIG, name="scan.yaml")
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", sweep_cfg, "--out", out) == 0
    heatmap = (out / "heatmap.csv").read_bytes()
    assert run_cli("phase-scan", "--config", scan_cfg, "--out", out) == 0
    scan = (out / "phase_scan.csv").read_bytes()
    assert [line["index"] for line in journal_lines(out / "sweep.jsonl")] == list(range(8))
    assert [line["index"] for line in journal_lines(out / "phase_scan.jsonl")] == list(range(3))
    assert not (out / "checkpoints").exists()
    assert "warning" not in capsys.readouterr().err

    def never(part):
        raise AssertionError(f"cell {part.cell.index} ran again instead of resuming")

    monkeypatch.setattr(sweep, "run_cell", never)
    for command, cfg, csv_name, first in (("sweep", sweep_cfg, "heatmap.csv", heatmap),
                                          ("phase-scan", scan_cfg, "phase_scan.csv", scan)):
        (out / csv_name).unlink()
        assert run_cli(command, "--config", cfg, "--out", out) == 0
        assert "warning" not in capsys.readouterr().err
        assert (out / csv_name).read_bytes() == first


@pytest.mark.parametrize("blocked", ["", ".tmp"])  # the journal, or its rewrite
@pytest.mark.parametrize("command, data, journal", [
    ("sweep", SWEEP_CONFIG, "sweep.jsonl"),
    ("phase-scan", POOLED_SCAN_CONFIG, "phase_scan.jsonl"),
])
def test_a_journal_that_cannot_be_used_is_a_config_error(tmp_path, capsys, command, data,
                                                         journal, blocked):
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    (out / (journal + blocked)).mkdir(parents=True)  # a directory in its place
    if blocked:
        write_journal(out / journal, [])  # an empty journal, rewritten on start
    assert run_cli(command, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    problem = "cannot write" if blocked else "cannot use journal"  # the rewrite is an output
    assert err.startswith(f"config error: {problem} {out / journal}: ")
    assert str(out / (journal + blocked)) in err
    assert sorted(path.name for path in out.iterdir()) == sorted({journal, journal + blocked})


# --- input bounds ---------------------------------------------------------------

RUN_CONFIG = {"protocol": {"name": "router", "n": 6},
              "disorder": {"kind": "diagonal", "strength": 0.1}}
SCAN_CONFIG = {"phase_scan": {"n": 6, "thetas_deg": [90.0], "realizations": 2}}


@pytest.mark.parametrize("command, data", [
    ("run", RUN_CONFIG), ("sweep", SWEEP_CONFIG), ("phase-scan", SCAN_CONFIG),
])
def test_a_seed_of_2_to_the_64_is_a_config_error(tmp_path, capsys, command, data):
    assert_config_error_writes_nothing(tmp_path, capsys, command, dict(data, seed=2**64),
                                       "seed must be an integer in [0, 2^64)")
    cfg = write_config(tmp_path, data)
    out = tmp_path / "flag"
    assert run_cli(command, "--config", cfg, "--out", out, "--seed", 2**64) == 2
    assert "--seed must be an integer in [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, data", [
    ("build", {"network": {"chains": [{"length": 3}]}}), ("run", RUN_CONFIG),
    ("sweep", SWEEP_CONFIG), ("phase-scan", SCAN_CONFIG), ("replay", RUN_CONFIG),
])
def test_a_worker_count_below_one_is_a_config_error(tmp_path, capsys, command, data):
    cfg = write_config(tmp_path, data)
    args = ("--config", cfg)
    if command == "replay":  # of a recorded run, which replay would run with one worker
        assert run_cli("run", *args, "--out", tmp_path / "recorded") == 0
        args = (tmp_path / "recorded" / "meta.json",)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(command, *args, "--out", out, "--workers", 0) == 2
    assert "config error: --workers must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


# one rule each, whichever source gives the value: a flag, a config key or a
# replayed record (whose seed is its master_seed); argparse takes only
# integers from a flag
RULES = {"seed": "must be an integer in [0, 2^64)", "workers": "must be an integer >= 1"}
OUT_OF_RANGE = [("seed", -1), ("seed", 2**64), ("workers", 0)]
NOT_INTEGERS = [(key, value) for key in RULES for value in (True, 1.0, "x", None)]


@pytest.mark.parametrize("source, key, value", [
    *((source, key, value) for source in ("flag", "config", "record")
      for key, value in OUT_OF_RANGE),
    *((source, key, value) for source in ("config", "record") for key, value in NOT_INTEGERS),
])
def test_a_seed_or_worker_count_has_one_rule_from_every_source(tmp_path, capsys, source, key,
                                                                value):
    data = dict(RUN_CONFIG, run={"samples": 5})
    args = ("run", "--config", write_config(tmp_path, data))
    if source == "flag":
        args, where = args + (f"--{key}", value), f"--{key}"
    elif source == "config":
        cfg = write_config(tmp_path, dict(data, **{key: value}), name="bad.yaml")
        args, where = ("run", "--config", cfg), f"{cfg}.{key}"
    else:
        assert run_cli(*args, "--out", tmp_path / "recorded") == 0
        meta_path = tmp_path / "recorded" / "meta.json"
        field = "master_seed" if key == "seed" else key
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps(dict(meta, **{field: value})))
        args, where = ("replay", meta_path), f"{meta_path}.{field}"
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(*args, "--out", out) == 2
    assert capsys.readouterr().err == f"config error: {where} {RULES[key]}, got {value!r}\n"
    assert not out.exists()


def test_the_largest_u64_seed_runs(tmp_path):
    # two 32-bit seed words: the stream takes the last two of the four
    cfg = write_config(tmp_path, dict(RUN_CONFIG, seed=2**64 - 1))
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "a") == 0
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "b") == 0
    trajectory = (tmp_path / "a" / "trajectory.csv").read_bytes()
    assert trajectory == (tmp_path / "b" / "trajectory.csv").read_bytes()
    cfg = write_config(tmp_path, dict(RUN_CONFIG, seed=2**64 - 2))
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "c") == 0
    assert (tmp_path / "c" / "trajectory.csv").read_bytes() != trajectory


@pytest.mark.parametrize("command, data, message", [
    ("run", dict(RUN_CONFIG, run={"samples": MAX_RUN_SAMPLES + 1}),
     f"run.samples: need 2 to {MAX_RUN_SAMPLES}"),
    ("sweep", dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"],
                                            realizations=MAX_REALIZATIONS + 1)),
     f"sweep.realizations: need 1 to {MAX_REALIZATIONS}"),
    ("phase-scan", {"phase_scan": dict(SCAN_CONFIG["phase_scan"],
                                       realizations=MAX_REALIZATIONS + 1)},
     f"phase_scan.realizations: need 1 to {MAX_REALIZATIONS}"),
    # thetas_deg is the one angle grid
    ("phase-scan", {"phase_scan": {"n": 6, "theta_step": 1e-9}}, "unknown key 'theta_step'; "
     "allowed: ['n', 'realizations', 'settings', 'thetas_deg']"),
    ("phase-scan", {"phase_scan": {"n": 6, "theta_start": 0.0, "theta_stop": 360.0}},
     "unknown key 'theta_start'"),
    ("phase-scan", {"phase_scan": {"n": 6, "thetas_deg": [1.0] * (MAX_SCAN_ANGLES + 1)}},
     f"at most {MAX_SCAN_ANGLES} angles"),
])
def test_counts_above_their_bound_are_config_errors(tmp_path, capsys, command, data, message):
    assert_config_error_writes_nothing(tmp_path, capsys, command, data, message)


FAR_ABOVE = 2_000_000  # a router of this size would ask for a 29 TiB matrix


@pytest.mark.parametrize("command, data, message", [
    ("run", dict(RUN_CONFIG, protocol={"name": "router", "n": FAR_ABOVE}),
     f"protocol.n: at most {MAX_SIZE}, got {FAR_ABOVE}"),
    ("run", dict(RUN_CONFIG, protocol={"name": "router", "m": FAR_ABOVE}),
     f"protocol.m: at most {MAX_SIZE}"),
    ("run", dict(RUN_CONFIG, protocol={"name": "unequal-router", "n_a": 3, "n_b": FAR_ABOVE}),
     f"protocol.n_b: at most {MAX_SIZE}"),
    ("sweep", dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], n_values=[4, FAR_ABOVE])),
     f"sweep.n_values: at most {MAX_SIZE}, got {FAR_ABOVE}"),
    ("sweep", dict(SWEEP_CONFIG, protocol={"name": "router", "m": 2},
                   sweep={"m_values": [FAR_ABOVE], "e_values": [0.1], "realizations": 2}),
     f"sweep.m_values: at most {MAX_SIZE}"),
    ("phase-scan", {"phase_scan": dict(SCAN_CONFIG["phase_scan"], n=FAR_ABOVE)},
     f"phase_scan.n: at most {MAX_SIZE}"),
    ("build", {"network": {"chains": [{"length": MAX_SIZE - 2}, {"length": FAR_ABOVE}]}},
     f"network: the chains have more than {MAX_SIZE} sites"),
])
def test_sizes_above_their_bound_fail_before_any_network_is_built(
        tmp_path, capsys, monkeypatch, command, data, message):
    def trap(*args, **kwargs):
        raise AssertionError("an oversize network was built")

    monkeypatch.setattr(CouplingGraph, "__post_init__", trap)
    for module in (cli, sweep):
        monkeypatch.setattr(module, "build_protocol", trap)
    assert_config_error_writes_nothing(tmp_path, capsys, command, data, message)


@pytest.mark.parametrize("theta", [10**400, -10**400, math.inf, math.nan],
                         ids=["400 digits", "-400 digits", "inf", "nan"])
def test_a_protocol_angle_beyond_a_float_is_a_config_error(tmp_path, capsys, theta):
    # the 400-digit angle once ended `spinnet run` in an OverflowError traceback
    data = dict(RUN_CONFIG, protocol={"name": "phase-sense", "n": 20, "theta_deg": theta})
    assert_config_error_writes_nothing(tmp_path, capsys, "run", data,
                                       "protocol.theta_deg: need a finite angle in degrees")


def test_sizes_at_their_bound_are_accepted():
    cfg = parse_config({
        "protocol": {"name": "router", "n": MAX_SIZE},
        "sweep": {"n_values": [4, MAX_SIZE], "e_values": [0.1]},
        "phase_scan": {"n": MAX_SIZE},
        "network": {"chains": [{"length": MAX_SIZE // 2}] * 2},
    })
    assert cfg.protocol.params == {"n": MAX_SIZE} and max(cfg.sweep.sizes) == MAX_SIZE
    assert cfg.phase_scan.n == MAX_SIZE and cfg.network.n_sites == MAX_SIZE


def test_a_trajectory_above_its_amplitude_bound_fails_before_the_eigensolve(
        tmp_path, capsys, monkeypatch):
    # 100,000 samples of a 1000-site router would keep 1.6 GB of amplitudes
    def trap(*args, **kwargs):
        raise AssertionError("an oversize run went on past its config check")

    for name in ("sample_disorder", "eigh", "run_decomposed"):
        monkeypatch.setattr(cli, name, trap)
    data = dict(RUN_CONFIG, protocol={"name": "router", "n": MAX_SIZE},
                run={"samples": MAX_RUN_SAMPLES})
    assert MAX_RUN_SAMPLES * MAX_SIZE > MAX_RUN_AMPLITUDES
    assert_config_error_writes_nothing(
        tmp_path, capsys, "run", data,
        f"run.samples: {MAX_RUN_SAMPLES} samples of {MAX_SIZE} sites are more than "
        f"{MAX_RUN_AMPLITUDES:,} amplitudes")


# 114 angles x 877,193 devices: the nearest product above the bound that
# realizations <= 10^6 and angles <= 3600 can reach, 2 over it
OVER_SCAN_VALUES = (114, MAX_SCAN_VALUES // 114 + 1)


def test_a_scan_of_more_estimates_than_its_bound_is_a_config_error(tmp_path, capsys):
    angles, realizations = OVER_SCAN_VALUES
    assert angles * realizations == MAX_SCAN_VALUES + 2 and realizations <= MAX_REALIZATIONS
    data = {"phase_scan": {"n": 6, "thetas_deg": [k / 10 for k in range(angles)],
                           "realizations": realizations}}
    assert_config_error_writes_nothing(
        tmp_path, capsys, "phase-scan", data,
        f"phase_scan: {realizations} realizations x {angles} angles are more than "
        f"{MAX_SCAN_VALUES:,} estimates")


def test_a_scan_of_as_many_estimates_as_its_bound_is_accepted():
    thetas = [k / 10 for k in range(100)]
    scan = parse_config({"phase_scan": {"n": 6, "thetas_deg": thetas,
                                        "realizations": MAX_REALIZATIONS}}).phase_scan
    assert scan.realizations * len(scan.thetas_deg) == MAX_SCAN_VALUES


def test_a_scan_of_max_angles_is_accepted():
    thetas = [k / 10 for k in range(MAX_SCAN_ANGLES)]
    scan = parse_config({"phase_scan": {"n": 6, "thetas_deg": thetas}}).phase_scan
    assert scan.thetas_deg == tuple(thetas)
    with pytest.raises(ConfigError, match=f"at most {MAX_SCAN_ANGLES} angles"):
        parse_config({"phase_scan": {"n": 6, "thetas_deg": thetas + [0.0]}})


@pytest.mark.parametrize("command, data, key", [
    ("run", dict(RUN_CONFIG, seed=None), "seed"),
    ("run", dict(RUN_CONFIG, workers=None), "workers"),
    ("run", dict(RUN_CONFIG, run={"samples": None}), "run.samples"),
    ("sweep", dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], realizations=None)),
     "sweep.realizations"),
    ("phase-scan", {"phase_scan": dict(SCAN_CONFIG["phase_scan"], realizations=None)},
     "phase_scan.realizations"),
])
def test_a_null_number_is_a_config_error(tmp_path, capsys, command, data, key):
    message = f"{key}: expected <class 'int'>, got null"
    if key in RULES:  # a seed and a worker count state their own rule
        message = f"{key} {RULES[key]}, got None"
    assert_config_error_writes_nothing(tmp_path, capsys, command, data, message)


# --- a closed stdout --------------------------------------------------------------

def written_files(out):
    return sorted(path.relative_to(out) for path in out.rglob("*") if path.is_file())


@pytest.mark.parametrize("command, data", [
    ("build", {"network": {"chains": [{"length": 3}, {"length": 4}]}}),
    ("run", {"protocol": {"name": "phase-sense", "n": 8, "theta_deg": 45.0},
             "run": {"samples": 5}}),
    ("sweep", SWEEP_CONFIG),
    ("phase-scan", SCAN_CONFIG),
])
def test_a_closed_stdout_ends_the_report_not_the_run(tmp_path, monkeypatch, command, data):
    cfg = write_config(tmp_path, data)
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "open") == 0
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone, as after `| head -n 1`: writes raise EPIPE
    with open(write_end, "w", encoding="utf-8") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "closed") == 0
    opened, closed = tmp_path / "open", tmp_path / "closed"
    assert written_files(closed) == written_files(opened)
    for name in written_files(opened):
        first, second = (out / name for out in (opened, closed))
        if name.name == "meta.json":  # the same record, made at another time
            first, second = (dict(json.loads(p.read_text()), created_utc=None)
                             for p in (first, second))
            assert first == second
        else:
            assert first.read_bytes() == second.read_bytes()


# --- output files ---------------------------------------------------------------

OUTPUTS = {  # every file each command writes, with a config it runs
    "build": ({"network": {"chains": [{"length": 3}, {"length": 4}]}},
              ["edges.txt", "spectrum.csv", "meta.json"]),
    "run": (RUN_CONFIG, ["trajectory.csv", "meta.json", "plot_trajectory.py"]),
    "sweep": (SWEEP_CONFIG, ["heatmap.csv", "contour.csv", "meta.json", "plot_heatmap.py"]),
    "phase-scan": (SCAN_CONFIG, ["phase_scan.csv", "meta.json", "plot_angles.py"]),
}


@pytest.mark.parametrize("command, name", [
    (command, name) for command, (_, names) in OUTPUTS.items() for name in names
])
def test_an_output_that_cannot_be_written_is_a_config_error(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory in the file's place
    assert run_cli(command, "--config", write_config(tmp_path, OUTPUTS[command][0]),
                   "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", OUTPUTS)
def test_a_finished_command_leaves_no_temporary_file(tmp_path, command):
    data, names = OUTPUTS[command]
    cfg, out = write_config(tmp_path, data), tmp_path / "out"
    for _ in range(2):  # a fresh --out, then the same one rewritten (and its journal resumed)
        assert run_cli(command, "--config", cfg, "--out", out) == 0
        assert set(names) <= {path.name for path in out.iterdir()}
        assert not list(out.glob("*.tmp"))


def test_a_sweep_whose_heatmap_is_blocked_resumes_from_its_journal(tmp_path, capsys,
                                                                   monkeypatch):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", fresh) == 0
    (out / "heatmap.csv").mkdir(parents=True)
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    assert len(journal_lines(out / "sweep.jsonl")) == 8  # every cell ran before the write
    (out / "heatmap.csv").rmdir()
    capsys.readouterr()

    def never(part):
        raise AssertionError(f"cell {part.cell.index} ran again")

    monkeypatch.setattr(sweep, "run_cell", never)
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    assert capsys.readouterr().err == ""
    for name in ("heatmap.csv", "contour.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    assert not list(out.glob("*.tmp"))  # the blocked run's heatmap.csv.tmp was written again


# --- meta.json marks a finished run ---------------------------------------------

@pytest.mark.parametrize("blocked", ["contour.csv.tmp", "plot_heatmap.py.tmp"])
def test_a_failed_rerun_leaves_no_meta_json(tmp_path, capsys, blocked):
    """A rerun at another seed that cannot write one of its files exits 2
    and leaves no record: the tables it wrote are not the earlier run's."""
    cfg, out = write_config(tmp_path, SWEEP_CONFIG), tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    assert (out / "meta.json").exists()
    (out / blocked).mkdir()
    assert run_cli("sweep", "--config", cfg, "--out", out, "--seed", 7) == 2
    assert f"config error: cannot write {out / blocked.removesuffix('.tmp')}: " in (
        capsys.readouterr().err)
    assert not (out / "meta.json").exists()


@pytest.mark.parametrize("command", OUTPUTS)
def test_a_finished_command_writes_its_record_last(tmp_path, monkeypatch, command):
    """meta.json is the last file a finished run puts in place, and records its seed."""
    data, names = OUTPUTS[command]
    cfg, out = write_config(tmp_path, data), tmp_path / "out"
    replaced = []
    real_replace = os.replace

    def replace(source, target):
        replaced.append(os.path.basename(target))
        real_replace(source, target)

    monkeypatch.setattr(sweep.os, "replace", replace)
    for seed in (11, 12):  # a fresh --out, then the same one rerun at another seed
        replaced.clear()
        assert run_cli(command, "--config", cfg, "--out", out, "--seed", seed) == 0
        assert json.loads((out / "meta.json").read_text())["master_seed"] == seed
        assert set(names) <= set(replaced) and replaced[-1] == "meta.json"


def test_meta_json_records_the_environment(tmp_path):
    cfg, out = write_config(tmp_path, RUN_CONFIG), tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    environment = json.loads((out / "meta.json").read_text())["environment"]
    assert environment["numpy"] == np.__version__
    assert environment["python"] == ".".join(map(str, sys.version_info[:3]))
    assert environment["cpu_count"] == os.cpu_count()
    assert environment["threads"]["OPENBLAS_NUM_THREADS"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")
    assert set(environment) - {"blas", "lapack"} == {"python", "numpy", "threads", "cpu_count"}


NO_RANDOM_PROBE = """
import json, sys
from spinnet.cli import main
out, configs, loaded = sys.argv[1], sys.argv[2:], {}
for command, config in zip(("sweep", "phase-scan", "run"), configs):
    assert main([command, "--config", config, "--out", out + "/" + command]) == 0
    loaded[command] = [name for name in ("numpy.random", "_hashlib") if name in sys.modules]
print(json.dumps(loaded))
"""


def test_no_command_loads_numpy_random(tmp_path):
    """The package draws its disorder itself: a disordered sweep, phase scan
    and run, one after another in a fresh interpreter, never import
    numpy.random, nor the OpenSSL hashes it pulls in."""
    scan = {"phase_scan": dict(SCAN_CONFIG["phase_scan"],
                               settings=[{"kind": "off_diagonal", "strength": 0.1}])}
    configs = [write_config(tmp_path, data, name=f"{i}.yaml")
               for i, data in enumerate([SWEEP_CONFIG, scan, RUN_CONFIG])]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", NO_RANDOM_PROBE, str(tmp_path), *configs],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == {
        "sweep": [], "phase-scan": [], "run": []}
