import math
import re

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from spinnet.network import ChainSpec, NetworkSpec
from spinnet.disorder import KINDS, DisorderSpec
from spinnet.protocols import PROTOCOLS, build_protocol
from spinnet.config import (
    ConfigError,
    RunConfig,
    load_config,
    mirror_tokens,
    parse_config,
    parse_network,
    parse_protocol,
    parse_sweep,
    parse_time_expression,
)


# every key of the schema (README, "Config format"), so that generated
# documents reach past the unknown-key check into each section's own rules
SCHEMA_KEYS = sorted({
    "seed", "workers", "network", "protocol", "disorder", "run", "sweep", "phase_scan",
    "chains", "length", "j_max", "name", "kind", "strength", "duration", "samples",
    "amplitudes", "n_values", "m_values", "e_values", "kinds", "realizations", "observable",
    "eof_pair", "observe", "n", "thetas_deg", "settings",
    *(key for _, params in PROTOCOLS.values() for key in params),
})
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                    st.sampled_from([*PROTOCOLS, *KINDS, "auto", "eof", "2*t_m"]))
ANY_DOCUMENTS = st.dictionaries(st.sampled_from(SCHEMA_KEYS), st.recursive(
    SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                     st.dictionaries(st.sampled_from(SCHEMA_KEYS), inner,
                                                     max_size=4)),
    max_leaves=10), max_size=5)
# a protocol section of known keys, so that generated documents reach the builders
PARAMETER_VALUES = st.one_of(SCALARS, st.integers(-10, 1010), st.sampled_from([-10**400, 10**400]))
PROTOCOL_SECTIONS = st.sampled_from(sorted(PROTOCOLS)).flatmap(
    lambda name: st.fixed_dictionaries(
        {"name": st.just(name)}, optional=dict.fromkeys(PROTOCOLS[name][1], PARAMETER_VALUES)))
DOCUMENTS = st.one_of(ANY_DOCUMENTS, st.builds(lambda data, section: dict(data, protocol=section),
                                               ANY_DOCUMENTS, PROTOCOL_SECTIONS))


@settings(max_examples=300, deadline=None)  # about 3 s
@given(DOCUMENTS)
# an integer beyond a float's range once escaped as an OverflowError
@example({"disorder": {"kind": "diagonal", "strength": 10**400}})
@example({"sweep": {"n_values": [4], "e_values": [10**400]}})
@example({"phase_scan": {"n": 4, "thetas_deg": [10**400]}})
@example({"network": {"chains": [{"length": 3, "j_max": 10**400}]}})
@example({"protocol": {"name": "phase-sense", "n": 20, "theta_deg": 10**400}})  # once exit 1
@example({"protocol": {"name": "phase-sense", "n": 20, "theta_deg": -math.inf}})
@example({"protocol": {"name": "unequal-ent", "n_a": -10**400, "n_b": 3}})
def test_a_config_is_parsed_or_is_a_config_error(data):
    """A document is a config or a config error; an accepted protocol section
    builds, or fails with the ValueError that `run` and `sweep` report as a
    config error."""
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    if cfg.protocol is not None:
        try:
            build_protocol(cfg.protocol.name, cfg.protocol.params)
        except ValueError:
            pass


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
    with pytest.raises(ConfigError, match="disorder strength"):
        parse_sweep({"n_values": [4], "e_values": [-0.1]})
    with pytest.raises(ConfigError, match="realizations"):
        parse_sweep({"n_values": [4], "e_values": [0.0], "realizations": 0})


@pytest.mark.parametrize("key, values, repeated", [
    ("n_values", [6, 8, 6], "6"), ("e_values", [0.0, 0.1, 0], "0"),
    ("kinds", ["diagonal", "off_diagonal", "diagonal"], "'diagonal'"),
])
def test_sweep_lists_each_axis_value_once(key, values, repeated):
    data = dict({"n_values": [4], "e_values": [0.0]}, **{key: values})
    with pytest.raises(ConfigError, match=re.escape(f"sweep.{key}: {repeated} is listed twice")):
        parse_sweep(data)


def test_an_empty_list_of_kinds_or_settings_is_rejected():
    with pytest.raises(ConfigError, match=re.escape("sweep.kinds: need at least one")):
        parse_sweep({"n_values": [6], "e_values": [0.1], "kinds": []})
    with pytest.raises(ConfigError, match=re.escape("phase_scan.settings: need at least one")):
        parse_config({"phase_scan": {"n": 8, "settings": []}})
    # a missing key keeps its default
    assert parse_sweep({"n_values": [6], "e_values": [0.1]}).kinds == ("diagonal",)
    assert parse_config({"phase_scan": {"n": 8}}).phase_scan.settings == (DisorderSpec(),)


@pytest.mark.parametrize("text, key, line", [
    ("seed: 1\nseed: 2\n", "seed", 2),
    ("protocol: {name: router, n: 12}\nprotocol: {name: ent-phase, n: 12}\n", "protocol", 2),
    ("sweep:\n  n_values: [4]\n  e_values: [0.1]\n  n_values: [6]\n", "n_values", 4),
    ("sweep: {realizations: 5, realizations: 6}\n", "realizations", 1),
], ids=["top-level", "top-level-section", "nested-block", "flow-mapping"])
def test_a_key_given_twice_is_rejected(tmp_path, text, key, line):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}, line {line}: key {key!r} is given twice")):
        load_config(str(path))


def test_keys_beside_a_merge_override_it(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("protocol:\n  <<: {name: router, n: 12}\n  n: 14\n")
    assert load_config(str(path)).protocol.params == {"n": 14}


@pytest.mark.parametrize("data", [None, 5, "x", [1]])
def test_a_config_must_be_a_mapping(data):
    with pytest.raises(ConfigError, match="record: top level must be a mapping"):
        parse_config(data, where="record")


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
    message = re.escape(f"{key}: expected ") + ".*, got null"
    if key == "config.seed":  # check_seed states the seed's own rule
        message = re.escape(f"{key} must be an integer in [0, 2^64), got None")
    with pytest.raises(ConfigError, match=message):
        parse_config(data)


def test_null_sections_take_their_defaults():
    cfg = parse_config({"disorder": None, "run": None})
    assert cfg.disorder == DisorderSpec() and cfg.run == RunConfig()
    with pytest.raises(ConfigError, match="sweep: expected a mapping"):
        parse_config({"sweep": None})


@pytest.mark.parametrize("entry", [None, "diagonal", 0.05, ["diagonal", 0.05]])
def test_a_phase_scan_setting_is_a_mapping(entry):
    settings = [{"kind": "diagonal", "strength": 0.05}, entry]
    with pytest.raises(ConfigError, match=re.escape("phase_scan.settings[2]: expected a mapping")):
        parse_config({"phase_scan": {"n": 8, "settings": settings}})


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


# digit strings up to far past a float, with or without a fraction
DIGITS = st.integers(0, 10**330).map(str) | st.tuples(
    st.integers(0, 10**330), st.integers(0, 10**20)).map(lambda p: f"{p[0]}.{p[1]}")


@st.composite
def time_terms(draw):
    """One term of the expression grammar, its numbers any digit strings."""
    num, den, div = draw(DIGITS), draw(DIGITS), draw(DIGITS)
    return draw(st.sampled_from([num, f"{num}/{den}", f"{num}*t_m", f"{num}/{den}*t_m",
                                 f"t_m/{div}", f"{num}*t_m/{div}", f"{num}/{den}*t_m/{div}"]))


@settings(max_examples=200)
@given(st.one_of(st.lists(time_terms(), min_size=1, max_size=4).map(" + ".join),
                 st.floats(), st.integers(-10**400, 10**400)))
@example(f"{'9' * 400}/{'9' * 400}*t_m")  # inf / inf
@example(f"{'9' * 400}*t_m")
def test_a_time_is_finite_and_non_negative_or_a_config_error(expr):
    try:
        t = parse_time_expression(expr, {"t_m": math.pi / 2})
    except ConfigError as exc:
        assert "division by zero" in str(exc) or "times must be finite and non-negative" in str(exc)
    else:
        assert type(t) is float and math.isfinite(t) and t >= 0


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


def test_phase_scan_rejects_a_repeated_angle():
    with pytest.raises(ConfigError, match=re.escape("phase_scan.thetas_deg: 90.0 is listed twice")):
        parse_config({"phase_scan": {"n": 8, "thetas_deg": [0, 90, 45.5, 90.0]}})


@pytest.mark.parametrize("scan", [
    {"thetas_deg": [math.nan]},
    {"thetas_deg": [math.inf]},
    {"thetas_deg": [-math.inf, 0.0]},
    {"thetas_deg": [0.0, math.nan]},
])
def test_phase_scan_rejects_non_finite_angles(scan):
    with pytest.raises(ConfigError, match="angles must lie"):
        parse_config({"phase_scan": dict({"n": 8}, **scan)})
