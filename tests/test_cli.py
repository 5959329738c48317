import csv
import json
import math
import os

import pytest
import yaml

import spinnet.cli as cli
from spinnet import InvariantViolation


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
            "protocol": {"name": "mws", "chain_length": 4, "j_max_b": 0.5},
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
    monkeypatch.setattr(cli, "phase_probe_estimates", lambda graph, n, thetas: [41.0])
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


def test_replay_rejects_bad_record(tmp_path):
    bad = tmp_path / "meta.json"
    bad.write_text(json.dumps({"command": "sweep"}))
    assert run_cli("replay", bad, "--out", tmp_path / "o") == 2


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
