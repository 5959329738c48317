import math
import re

import pytest
import yaml

from spinnet import ChainSpec, NetworkSpec
from spinnet.disorder import DisorderSpec
from spinnet.config import (
    ConfigError,
    RunConfig,
    mirror_tokens,
    parse_config,
    parse_network,
    parse_protocol,
    parse_sweep,
    parse_time_expression,
)


def test_network_parse_and_round_trip():
    data = {"chains": [{"length": 3, "j_max": 1.0}, {"length": 4}]}
    spec = parse_network(data)
    assert spec.chains == (ChainSpec(3, 1.0), ChainSpec(4, 1.0))


def test_config_round_trip_through_yaml():
    raw = {
        "seed": 7,
        "protocol": {"name": "router", "n": 12},
        "sweep": {
            "n_values": [4, 6],
            "e_values": [0.0, 0.1],
            "kinds": ["diagonal"],
            "realizations": 10,
        },
    }
    once = parse_config(yaml.safe_load(yaml.safe_dump(raw)))
    twice = parse_config(yaml.safe_load(yaml.safe_dump(once.raw)))
    assert once.raw == twice.raw
    assert once.sweep == twice.sweep


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"sed": 1})


def test_unknown_key_suggests_close_match():
    with pytest.raises(ConfigError, match="did you mean 'j_max'"):
        parse_network({"chains": [{"length": 3, "jmax": 1.0}]})


def test_network_requires_chains():
    with pytest.raises(ConfigError):
        parse_network({})
    with pytest.raises(ConfigError):
        parse_network({"chains": []})
    with pytest.raises(ConfigError, match="length"):
        parse_network({"chains": [{"j_max": 1.0}]})


def test_protocol_unknown_name_lists_alternatives():
    with pytest.raises(ConfigError, match="available:.*router"):
        parse_protocol({"name": "teleport"})


def test_protocol_rejects_foreign_parameters():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_protocol({"name": "router", "n_a": 3})


def test_sweep_requires_exactly_one_axis():
    base = {"e_values": [0.0], "realizations": 5}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_sweep(dict(base))
    with pytest.raises(ConfigError, match="exactly one"):
        parse_sweep(dict(base, n_values=[4], m_values=[2]))


def test_sweep_validates_kinds_and_values():
    with pytest.raises(ConfigError, match="disorder kind"):
        parse_sweep({"n_values": [4], "e_values": [0.0], "kinds": ["none"]})
    with pytest.raises(ConfigError, match="e_values"):
        parse_sweep({"n_values": [4], "e_values": [-0.1]})
    with pytest.raises(ConfigError, match="realizations"):
        parse_sweep({"n_values": [4], "e_values": [0.0], "realizations": 0})


def test_booleans_are_not_numbers():
    sweep = {"n_values": [4], "e_values": [0.1]}
    for key, bad in [("realizations", True), ("n_values", [True, 4]), ("e_values", [False]),
                     ("eof_pair", [True, 2])]:
        with pytest.raises(ConfigError, match=key):
            parse_sweep(dict(sweep, **{key: bad}))
    with pytest.raises(ConfigError, match="thetas_deg"):
        parse_config({"phase_scan": {"n": 4, "thetas_deg": [True]}})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": True})
    with pytest.raises(ConfigError, match="protocol.n"):
        parse_protocol({"name": "router", "n": True})
    cfg = parse_config(yaml.safe_load(
        "protocol: {name: mws, chain_length: 3, with_flips: true}\nrun: {amplitudes: yes}"))
    assert cfg.protocol.params["with_flips"] is True
    assert cfg.run.amplitudes is True


@pytest.mark.parametrize("data, key", [
    ({"seed": None}, "config.seed"),
    ({"disorder": {"kind": None}}, "disorder.kind"),
    ({"disorder": {"kind": "diagonal", "strength": None}}, "disorder.strength"),
    ({"run": {"amplitudes": None}}, "run.amplitudes"),
    ({"protocol": {"name": "mws", "with_flips": None}}, "protocol.with_flips"),
    ({"sweep": {"n_values": None, "e_values": [0.1]}}, "sweep.n_values"),
    ({"phase_scan": {"n": 4, "thetas_deg": None}}, "phase_scan.thetas_deg"),
    ({"network": {"chains": [{"length": 3, "j_max": None}]}}, "network.chains[1].j_max"),
])
def test_null_is_not_a_value(data, key):
    with pytest.raises(ConfigError, match=re.escape(f"{key}: expected ") + ".*, got null"):
        parse_config(data)


def test_null_sections_take_their_defaults():
    cfg = parse_config({"disorder": None, "run": None})
    assert cfg.disorder == DisorderSpec() and cfg.run == RunConfig()
    with pytest.raises(ConfigError, match="sweep: expected a mapping"):
        parse_config({"sweep": None})


def test_disorder_validation():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"disorder": {"kind": "white-noise"}})
    with pytest.raises(ConfigError):
        parse_config({"disorder": {"kind": "diagonal", "strength": -1}})


def test_seed_and_workers_validated():
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": seed})
    assert parse_config({"seed": 2**64 - 1}).seed == 2**64 - 1
    with pytest.raises(ConfigError, match="workers"):
        parse_config({"workers": 0})


# --- time expressions -----------------------------------------------------------

def test_mirror_tokens_equal_chains():
    tokens = mirror_tokens(NetworkSpec([ChainSpec(3), ChainSpec(3)]))
    assert set(tokens) == {"t_m", "t_m_A", "t_m_B"}
    assert tokens["t_m"] == tokens["t_m_A"] == tokens["t_m_B"]


def test_mirror_tokens_unequal_chains():
    tokens = mirror_tokens(NetworkSpec([ChainSpec(3), ChainSpec(4)]))
    assert "t_m" not in tokens
    assert tokens["t_m_A"] == ChainSpec(3).mirror_time
    assert tokens["t_m_B"] == ChainSpec(4).mirror_time


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("t_m", 2.0),
        ("2*t_m", 4.0),
        ("t_m/2", 1.0),
        ("3*t_m/2", 3.0),
        ("3/2*t_m", 3.0),
        ("t_m_A + t_m_B", 5.0),
        ("2*t_m_A + t_m_B/3", 5.0),
        ("8*t_m_A", 16.0),
        (1.25, 1.25),
        ("0.5", 0.5),
    ],
)
def test_time_expressions(expr, expected):
    tokens = {"t_m": 2.0, "t_m_A": 2.0, "t_m_B": 3.0}
    assert parse_time_expression(expr, tokens) == pytest.approx(expected, rel=1e-12)


def test_time_expression_unknown_token():
    with pytest.raises(ConfigError, match="unknown time token"):
        parse_time_expression("t_m_C", {"t_m": 1.0})


def test_time_expression_garbage():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_time_expression("t_m ** 2", {"t_m": 1.0})
    with pytest.raises(ConfigError):
        parse_time_expression(-1.0, {"t_m": 1.0})


def test_phase_scan_parsing():
    cfg = parse_config(
        {
            "phase_scan": {
                "n": 20,
                "thetas_deg": [0, 45],
                "realizations": 3,
                "settings": [
                    {"kind": "none"},
                    {"kind": "diagonal", "strength": 0.05},
                ],
            }
        }
    )
    scan = cfg.phase_scan
    assert scan.thetas_deg == (0.0, 45.0)
    assert scan.settings[0].kind == "none"
    assert scan.settings[1].strength == 0.05
    default = parse_config({"phase_scan": {"n": 20}}).phase_scan.thetas_deg
    assert default == tuple(float(t) for t in range(0, 360, 15))  # 0, 15, ..., 345


def test_phase_scan_rejects_out_of_range_angles():
    with pytest.raises(ConfigError, match="360"):
        parse_config({"phase_scan": {"n": 8, "thetas_deg": [0.0, 360.0]}})
    with pytest.raises(ConfigError, match="n"):
        parse_config({"phase_scan": {"n": 7, "thetas_deg": [0.0]}})


@pytest.mark.parametrize("scan", [
    {"thetas_deg": [math.nan]},
    {"thetas_deg": [math.inf]},
    {"thetas_deg": [-math.inf, 0.0]},
    {"thetas_deg": [0.0, math.nan]},
])
def test_phase_scan_rejects_non_finite_angles(scan):
    with pytest.raises(ConfigError, match="angles must lie"):
        parse_config({"phase_scan": dict({"n": 8}, **scan)})
