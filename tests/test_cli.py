import csv
import json
import math
import os

import numpy as np
import pytest
import yaml

import spinnet.cli as cli
import spinnet.sweep as sweep
from spinnet import InvariantViolation
from spinnet.config import (MAX_REALIZATIONS, MAX_RUN_AMPLITUDES, MAX_RUN_SAMPLES,
                            MAX_SCAN_ANGLES, MAX_SIZE, ConfigError, parse_config)
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
    monkeypatch.setattr(cli, "probe_estimates", lambda decomp, n, thetas: [[41.0]])
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


@pytest.mark.parametrize("duration, message", [
    ("t_m/0", "division by zero"),
    ("2/0*t_m", "division by zero"),
    ("t_m + 1/0.0*t_m", "division by zero"),
    (math.inf, "finite"),
    (math.nan, "finite"),
])
def test_run_rejects_an_undefined_duration(tmp_path, capsys, duration, message):
    data = {"protocol": {"name": "router", "n": 6}, "run": {"duration": duration}}
    assert_config_error_writes_nothing(tmp_path, capsys, "run", data, message)


def test_sweep_rejects_a_zero_denominator_in_observe(tmp_path, capsys):
    data = dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], observe="2/0*t_m"))
    assert_config_error_writes_nothing(tmp_path, capsys, "sweep", data, "division by zero")


# a setting is its kind and strength: the Gaussian's width and J_max are fixed
BAD_DISORDER = [
    ({"width": 0.5}, "unknown key 'width'; allowed: ['kind', 'strength']"),
    ({"strength": math.nan}, "strength must be finite and >= 0"),
    ({"strength": math.inf}, "strength must be finite and >= 0"),
    ({"width": math.nan}, "unknown key 'width'; allowed: ['kind', 'strength']"),
    ({"j_max_ref": 1.0}, "unknown key 'j_max_ref'; allowed: ['kind', 'strength']"),
    ({"strength": -0.1}, "strength must be finite and >= 0"),
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


@pytest.mark.parametrize("e", [math.inf, math.nan, -0.1])
def test_sweep_rejects_non_finite_e_values(tmp_path, capsys, e):
    data = dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], e_values=[0.1, e]))
    assert_config_error_writes_nothing(tmp_path, capsys, "sweep", data,
                                       "need a non-empty list of finite numbers >= 0")


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


def test_sweep_resumes_from_checkpoints(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    first = (out / "heatmap.csv").read_bytes()
    assert len(list((out / "checkpoints").glob("*.json"))) == 8
    (out / "heatmap.csv").unlink()
    # tamper with one checkpoint to prove resumed cells are read, not rerun
    marker = out / "checkpoints" / "cell_00000.json"
    row = json.loads(marker.read_text())
    row["mean"] = 0.123456
    marker.write_text(json.dumps(row))
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    rows = read_csv(out / "heatmap.csv")
    assert float(rows[0]["mean"]) == 0.123456
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
    # the rewritten checkpoints now match seed 7 and are reused silently
    assert run_cli("sweep", "--config", cfg, "--out", out, "--seed", 7) == 0
    assert "warning" not in capsys.readouterr().err
    assert (out / "heatmap.csv").read_bytes() == seed_7


def test_sweep_recomputes_an_unreadable_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    first = (out / "heatmap.csv").read_bytes()
    truncated = out / "checkpoints" / "cell_00003.json"
    truncated.write_bytes(truncated.read_bytes()[:20])
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    err = capsys.readouterr().err
    assert err.count("warning: discarding checkpoint") == 1
    assert "cell_00003.json" in err and "cannot be read" in err
    assert (out / "heatmap.csv").read_bytes() == first
    assert json.loads(truncated.read_text())["index"] == 3


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
    assert not (out / "checkpoints").exists()


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


def test_phase_scan_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    sizes = []
    real_pool = sweep.multiprocessing.Pool

    def pool(processes):
        sizes.append(processes)
        return real_pool(processes=processes)

    monkeypatch.setattr(sweep.multiprocessing, "Pool", pool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)  # a real pool of 2 on any machine
    cfg = write_config(tmp_path, POOLED_SCAN_CONFIG)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run_cli("phase-scan", "--config", cfg, "--out", serial, "--workers", 1) == 0
    assert run_cli("phase-scan", "--config", cfg, "--out", pooled, "--workers", 2) == 0
    assert sizes == [2]
    assert (pooled / "phase_scan.csv").read_bytes() == (serial / "phase_scan.csv").read_bytes()
    for name in ("setting_00000.json", "setting_00001.json", "setting_00002.json"):
        assert ((pooled / "checkpoints" / name).read_bytes()
                == (serial / "checkpoints" / name).read_bytes())
    out = capsys.readouterr().out
    assert all(f"[{done}/3] " in out for done in (1, 2, 3))
    assert "diagonal E=0.05: max |mean - theta|=" in out


def test_phase_scan_resumes_from_checkpoints(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, POOLED_SCAN_CONFIG)
    out = tmp_path / "out"
    assert run_cli("phase-scan", "--config", cfg, "--out", out) == 0
    first = (out / "phase_scan.csv").read_bytes()
    # an interrupted run: the CSV and one setting's checkpoint were never written
    (out / "phase_scan.csv").unlink()
    (out / "checkpoints" / "setting_00001.json").unlink()
    ran = []
    run = sweep.PhaseScanCell.run

    def spy(cell):
        ran.append(cell.index)
        return run(cell)

    monkeypatch.setattr(sweep.PhaseScanCell, "run", spy)
    assert run_cli("phase-scan", "--config", cfg, "--out", out) == 0
    assert ran == [1]
    assert (out / "phase_scan.csv").read_bytes() == first
    replayed = tmp_path / "replayed"
    assert run_cli("replay", out / "meta.json", "--out", replayed) == 0
    assert (replayed / "phase_scan.csv").read_bytes() == first


@pytest.mark.parametrize("command, data, discarded", [
    ("phase-scan", scan_config(strength=0.2), 1),
    ("phase-scan", scan_config(kind="diagonal"), 1),
    ("phase-scan", {**POOLED_SCAN_CONFIG, "phase_scan": dict(POOLED_SCAN_CONFIG["phase_scan"],
                                                             thetas_deg=[0.0, 135.0])}, 3),
    ("sweep", SWEEP_CONFIG, 0),  # a sweep's cells 0-2 in the same --out keep their own names
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


def test_a_sweep_and_a_phase_scan_share_one_out(tmp_path, capsys, monkeypatch):
    sweep_cfg = write_config(tmp_path, SWEEP_CONFIG, name="sweep.yaml")
    scan_cfg = write_config(tmp_path, POOLED_SCAN_CONFIG, name="scan.yaml")
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", sweep_cfg, "--out", out) == 0
    heatmap = (out / "heatmap.csv").read_bytes()
    assert run_cli("phase-scan", "--config", scan_cfg, "--out", out) == 0
    scan = (out / "phase_scan.csv").read_bytes()
    names = sorted(path.name for path in (out / "checkpoints").glob("*.json"))
    assert names == ([f"cell_{i:05d}.json" for i in range(8)]
                     + [f"setting_{i:05d}.json" for i in range(3)])
    assert "warning" not in capsys.readouterr().err

    def never(cell):
        raise AssertionError(f"cell {cell.index} ran again instead of resuming")

    monkeypatch.setattr(sweep, "run_cell", never)
    for command, cfg, csv_name, first in (("sweep", sweep_cfg, "heatmap.csv", heatmap),
                                          ("phase-scan", scan_cfg, "phase_scan.csv", scan)):
        (out / csv_name).unlink()
        assert run_cli(command, "--config", cfg, "--out", out) == 0
        assert "warning" not in capsys.readouterr().err
        assert (out / csv_name).read_bytes() == first


# --- input bounds ---------------------------------------------------------------

RUN_CONFIG = {"protocol": {"name": "router", "n": 6},
              "disorder": {"kind": "diagonal", "strength": 0.1}}
SCAN_CONFIG = {"phase_scan": {"n": 6, "thetas_deg": [90.0], "realizations": 2}}


@pytest.mark.parametrize("command, data", [
    ("run", RUN_CONFIG), ("sweep", SWEEP_CONFIG), ("phase-scan", SCAN_CONFIG),
])
def test_a_seed_of_2_to_the_64_is_a_config_error(tmp_path, capsys, command, data):
    assert_config_error_writes_nothing(tmp_path, capsys, command, dict(data, seed=2**64),
                                       "seed: must be in [0, 2^64)")
    cfg = write_config(tmp_path, data)
    out = tmp_path / "flag"
    assert run_cli(command, "--config", cfg, "--out", out, "--seed", 2**64) == 2
    assert "--seed must be in [0, 2^64)" in capsys.readouterr().err
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
    assert "config error: --workers must be >= 1" in capsys.readouterr().err
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
    assert_config_error_writes_nothing(tmp_path, capsys, command, data,
                                       f"{key}: expected <class 'int'>, got null")

