"""Config files: strict YAML schema and observation-time expressions.

Every key is checked against the schema; an unknown key, or one given twice
in a mapping, is an error, not a silent default, so typos like ``jmax`` for
``j_max`` cannot slip through.
Times may be given as expressions over the built network's mirror times
(``t_m``, ``t_m_A``, ``t_m_B``) with rational coefficients, e.g. ``2*t_m``,
``3*t_m/2`` or ``t_m_A + t_m_B``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Any

import yaml

from .disorder import KINDS, SEED_LIMIT, DisorderSpec
from .network import ChainSpec, NetworkSpec
from .protocols import MAX_SIZE, PROTOCOLS, SIZE, Parameter


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


# Bounds on what a config may ask for, so that no input exhausts the
# machine: `spinnet run` keeps every sample's state, and sweeps and phase
# scans keep every realization's value, 8 bytes each in one float64 array
# per cell or setting. With at most MAX_REALIZATIONS per cell or setting, a
# stream index c * K + k stays below 2^64 for any grid of fewer than 1.8e13
# cells, more than a config file can list. Network sizes are at most
# protocols.MAX_SIZE.
MAX_RUN_SAMPLES = 100_000
# `spinnet run` keeps its whole trajectory, run.samples states of one complex
# amplitude per site: 10^7 amplitudes are 160 MB.
MAX_RUN_AMPLITUDES = 10**7
MAX_REALIZATIONS = 1_000_000
MAX_SCAN_ANGLES = 3600
# A phase-scan setting keeps realizations x angles estimates: 10^8 are 0.8 GB.
MAX_SCAN_VALUES = 10**8
# the angles a phase scan probes when its config lists none: 0, 15, ..., 345
DEFAULT_THETAS_DEG = tuple(float(t) for t in range(0, 360, 15))
# A sweep's `observe` is at most this many protocol durations: a draw block's
# Bessel table grows with the time, and at this bound is 10-12 MB at N = 4 and 12.
MAX_OBSERVE_DURATIONS = 100


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that rejects a key given twice in one mapping; the keys
    beside a merge (``<<``) still override what it merges."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        keys: list = []  # not a set: a key may be unhashable until the base class rejects it
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep=deep)
                if key in keys:
                    mark = key_node.start_mark
                    raise ConfigError(f"{mark.name}, line {mark.line + 1}: "
                                      f"key {key!r} is given twice")
                keys.append(key)
        return super().construct_mapping(node, deep)


def load_yaml(path: str) -> Any:
    """The YAML document at ``path``; an empty file is an empty mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bad UTF-8, a 4300+ digit int
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    return {} if data is None else data


def _check_keys(data: dict, allowed: dict[str, type | tuple | None], where: str) -> None:
    for key in data:
        if key not in allowed:
            hint = ""
            close = [k for k in allowed if k.replace("_", "") == str(key).replace("_", "")]
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise ConfigError(f"{where}: unknown key {key!r}{hint}; allowed: {sorted(allowed)}")
    for key, types in allowed.items():
        if key not in data or types is None or (data[key] is None and types is dict):
            continue  # an empty section (`run: null`) takes its defaults
        if not _is(data[key], types):
            got = "null" if data[key] is None else type(data[key]).__name__
            raise ConfigError(f"{where}.{key}: expected {types}, got {got}")


_NUMBER = (int, float)


def _is(value: Any, types: type | tuple) -> bool:
    """isinstance, except that a boolean (YAML yes/true) is not a number."""
    if isinstance(value, bool):
        return bool in (types if isinstance(types, tuple) else (types,))
    return isinstance(value, types)


def check_seed(value: Any, where: str) -> int:
    """A master seed from ``where`` (a flag, a config key or a replayed record)."""
    if not _is(value, int) or not 0 <= value < SEED_LIMIT:
        raise ConfigError(f"{where} must be an integer in [0, 2^64), got {value!r}")
    return value


def check_workers(value: Any, where: str) -> int:
    """A worker count from ``where`` (a flag, a config key or a replayed record)."""
    if not _is(value, int) or value < 1:
        raise ConfigError(f"{where} must be an integer >= 1, got {value!r}")
    return value


def _check_parameter(parameter: Parameter, value: Any, where: str) -> None:
    """A value of ``parameter``'s type from ``where`` lies in its range. Every
    network size a config gives is a :data:`~spinnet.protocols.SIZE`."""
    if not parameter.accepts(value):  # False for nan, too
        raise ConfigError(f"{where}: {parameter.rule}, got {value}")


def parse_network(data: Any, where: str = "network") -> NetworkSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping with a 'chains' list")
    _check_keys(data, {"chains": list}, where)
    chains_raw = data.get("chains")
    if not chains_raw:
        raise ConfigError(f"{where}.chains: need at least one chain")
    chains = []
    sites = 0
    for idx, entry in enumerate(chains_raw, start=1):
        w = f"{where}.chains[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{w}: expected a mapping")
        _check_keys(entry, {"length": int, "j_max": _NUMBER}, w)
        if "length" not in entry:
            raise ConfigError(f"{w}: missing 'length'")
        sites += entry["length"]
        if not SIZE.accepts(sites):  # before a chain of a huge length is built
            raise ConfigError(f"{where}: the chains have more than {MAX_SIZE} sites")
        try:
            chains.append(ChainSpec(entry["length"], float(entry.get("j_max", 1.0))))
        except (OverflowError, ValueError) as exc:  # an integer beyond a float's range
            raise ConfigError(f"{w}: {exc}")
    return NetworkSpec(chains)


@dataclass(frozen=True)
class ProtocolConfig:
    name: str
    params: dict[str, Any] = field(default_factory=dict)


def parse_protocol(data: Any, where: str = "protocol") -> ProtocolConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping with a 'name'")
    name = data.get("name")
    if not isinstance(name, str):
        raise ConfigError(f"{where}.name: protocol name required")
    if name not in PROTOCOLS:
        raise ConfigError(
            f"{where}.name: unknown protocol {name!r}; "
            f"available: {', '.join(sorted(PROTOCOLS))}"
        )
    parameters = PROTOCOLS[name][1]
    allowed: dict[str, type | tuple] = {"name": str}
    allowed.update((key, parameter.types) for key, parameter in parameters.items())
    _check_keys(data, allowed, where)
    params = {k: v for k, v in data.items() if k != "name"}
    for key, value in params.items():
        _check_parameter(parameters[key], value, f"{where}.{key}")
    return ProtocolConfig(name, params)


def parse_disorder(data: Any, where: str = "disorder") -> DisorderSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _check_keys(data, {"kind": str, "strength": _NUMBER}, where)
    try:
        return DisorderSpec(data.get("kind", "none"), float(data.get("strength", 0.0)))
    except (OverflowError, ValueError) as exc:  # an integer beyond a float's range
        raise ConfigError(f"{where}: {exc}")


@dataclass(frozen=True)
class RunConfig:
    duration: str | float | None = None
    samples: int = 400
    amplitudes: bool = False


def parse_run(data: Any, where: str = "run") -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _check_keys(data, {"duration": (str, int, float), "samples": int, "amplitudes": bool}, where)
    samples = data.get("samples", 400)
    if not 2 <= samples <= MAX_RUN_SAMPLES:
        raise ConfigError(f"{where}.samples: need 2 to {MAX_RUN_SAMPLES}, got {samples}")
    return RunConfig(data.get("duration"), samples, bool(data.get("amplitudes", False)))


def _realizations(data: dict, where: str) -> int:
    realizations = data.get("realizations", 1000)
    if not 1 <= realizations <= MAX_REALIZATIONS:
        raise ConfigError(f"{where}.realizations: need 1 to {MAX_REALIZATIONS}, "
                          f"got {realizations}")
    return realizations


@dataclass(frozen=True)
class SweepConfig:
    sizes: tuple[int, ...]
    axis: str  # "n" | "m"
    e_values: tuple[float, ...]
    kinds: tuple[str, ...]
    realizations: int = 1000
    observable: str = "auto"  # auto | fidelity | eof
    eof_pair: tuple[int, int] | None = None
    observe: str | float | None = None


def parse_sweep(data: Any, where: str = "sweep") -> SweepConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _check_keys(
        data,
        {
            "n_values": list,
            "m_values": list,
            "e_values": list,
            "kinds": list,
            "realizations": int,
            "observable": str,
            "eof_pair": list,
            "observe": (str, int, float),
        },
        where,
    )
    if ("n_values" in data) == ("m_values" in data):
        raise ConfigError(f"{where}: give exactly one of 'n_values' or 'm_values'")
    axis = "n" if "n_values" in data else "m"
    sizes = data.get("n_values") or data.get("m_values")
    if not sizes or not all(_is(v, int) and v > 0 for v in sizes):
        raise ConfigError(f"{where}.{axis}_values: need a non-empty list of positive integers")
    _check_parameter(SIZE, max(sizes), f"{where}.{axis}_values")
    e_values = data.get("e_values")
    if not e_values or not all(_is(v, _NUMBER) for v in e_values):
        raise ConfigError(f"{where}.e_values: need a non-empty list of numbers")
    kinds = tuple(data.get("kinds", ["diagonal"]))
    if not kinds:
        raise ConfigError(f"{where}.kinds: need at least one disorder kind")
    for kind in kinds:
        for e in e_values:  # every cell's setting
            parse_disorder({"kind": kind, "strength": e}, where)
        if kind == KINDS[0]:
            raise ConfigError(f"{where}.kinds: {kind!r} is not a disorder kind to sweep")
    for key, values in ((f"{axis}_values", sizes), ("e_values", e_values), ("kinds", kinds)):
        _check_distinct(values, f"{where}.{key}")
    realizations = _realizations(data, where)
    observable = data.get("observable", "auto")
    if observable not in ("auto", "fidelity", "eof"):
        raise ConfigError(f"{where}.observable: expected auto|fidelity|eof, got {observable!r}")
    pair = data.get("eof_pair")
    if pair is not None:
        if len(pair) != 2 or not all(_is(v, int) and v >= 1 for v in pair):
            raise ConfigError(f"{where}.eof_pair: expected two 1-based site labels")
        if observable != "eof":  # auto and fidelity would drop it without a word
            raise ConfigError(f"{where}.eof_pair: only observable: eof reads a site pair, "
                              f"got observable: {observable}")
        pair = (pair[0], pair[1])
    return SweepConfig(
        sizes=tuple(sizes),
        axis=axis,
        e_values=tuple(float(v) for v in e_values),
        kinds=kinds,
        realizations=realizations,
        observable=observable,
        eof_pair=pair,
        observe=data.get("observe"),
    )


def _check_distinct(values: Any, where: str) -> None:
    """A sweep axis is one grid line per value, and a phase scan one curve
    point per angle, so each lists a value once."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{where}: {value!r} is listed twice")
        seen.add(value)


@dataclass(frozen=True)
class PhaseScanConfig:
    n: int
    thetas_deg: tuple[float, ...]
    settings: tuple[DisorderSpec, ...]
    realizations: int = 1000


def parse_phase_scan(data: Any, where: str = "phase_scan") -> PhaseScanConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _check_keys(data, {"n": int, "thetas_deg": list, "settings": list, "realizations": int},
                where)
    n = data.get("n")
    if not isinstance(n, int) or n < 4 or n % 2:
        raise ConfigError(f"{where}.n: need an even network size >= 4")
    _check_parameter(SIZE, n, f"{where}.n")
    thetas = data.get("thetas_deg", DEFAULT_THETAS_DEG)
    if not thetas:
        raise ConfigError(f"{where}.thetas_deg: need at least one angle")
    if not all(_is(v, _NUMBER) for v in thetas):
        raise ConfigError(f"{where}.thetas_deg: need a list of numbers")
    if len(thetas) > MAX_SCAN_ANGLES:
        raise ConfigError(f"{where}.thetas_deg: at most {MAX_SCAN_ANGLES} angles are allowed")
    if not all(0.0 <= t < 360.0 for t in thetas):
        raise ConfigError(f"{where}: angles must lie in [0, 360) degrees")
    thetas = tuple(float(v) for v in thetas)  # in range, so no integer overflows a float
    _check_distinct(thetas, f"{where}.thetas_deg")
    settings_raw = data.get("settings", [{"kind": "none"}])
    if not settings_raw:
        raise ConfigError(f"{where}.settings: need at least one disorder setting")
    settings = tuple(
        parse_disorder(entry, f"{where}.settings[{idx}]")
        for idx, entry in enumerate(settings_raw, start=1)
    )
    realizations = _realizations(data, where)
    if realizations * len(thetas) > MAX_SCAN_VALUES:
        raise ConfigError(f"{where}: {realizations} realizations x {len(thetas)} angles are "
                          f"more than {MAX_SCAN_VALUES:,} estimates")
    return PhaseScanConfig(n, thetas, settings, realizations)


@dataclass(frozen=True)
class Config:
    """Parsed top-level config; sections are optional until a command
    requires them."""

    raw: dict
    seed: int = 0
    workers: int = 1
    network: NetworkSpec | None = None
    protocol: ProtocolConfig | None = None
    disorder: DisorderSpec = DisorderSpec()
    run: RunConfig = RunConfig()
    sweep: SweepConfig | None = None
    phase_scan: PhaseScanConfig | None = None


_TOP_KEYS = {
    "seed": None,  # None: a value with its own check, check_seed
    "workers": None,  # check_workers
    "network": dict,
    "protocol": dict,
    "disorder": dict,
    "run": dict,
    "sweep": dict,
    "phase_scan": dict,
}


def parse_config(data: Any, where: str = "config") -> Config:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be a mapping")
    _check_keys(data, _TOP_KEYS, where)
    return Config(
        raw=data,
        seed=check_seed(data.get("seed", 0), f"{where}.seed"),
        workers=check_workers(data.get("workers", 1), f"{where}.workers"),
        network=parse_network(data["network"]) if "network" in data else None,
        protocol=parse_protocol(data["protocol"]) if "protocol" in data else None,
        # a null section (`disorder: null`) takes its defaults, as a missing one does
        disorder=parse_disorder(data.get("disorder") or {}),
        run=parse_run(data.get("run") or {}),
        sweep=parse_sweep(data["sweep"]) if "sweep" in data else None,
        phase_scan=parse_phase_scan(data["phase_scan"]) if "phase_scan" in data else None,
    )


def load_config(path: str) -> Config:
    return parse_config(load_yaml(path), where=path)


# --- observation-time expressions ----------------------------------------

_TERM_RE = re.compile(
    r"""^\s*
    (?:(?P<num>\d+(?:\.\d+)?)(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?\s*(?:\*\s*)?)?
    (?P<token>[A-Za-z][A-Za-z_0-9]*)?
    (?:\s*/\s*(?P<div>\d+(?:\.\d+)?))?
    \s*$""",
    re.VERBOSE,
)


def mirror_tokens(spec: NetworkSpec) -> dict[str, float]:
    """Expression tokens for a built network: t_m_A, t_m_B and, when all
    chains agree, t_m."""
    times = spec.mirror_times
    tokens: dict[str, float] = {"t_m_A": times[0]}
    if len(times) > 1:
        tokens["t_m_B"] = times[1]
    if all(abs(t - times[0]) < 1e-12 * times[0] for t in times):
        tokens["t_m"] = times[0]
    return tokens


def parse_time_expression(expr: str | float | int, tokens: dict[str, float]) -> float:
    """Evaluate a sum of rational multiples of mirror-time tokens.

    Accepts plain numbers, ``t_m``, ``2*t_m``, ``t_m/2``, ``3*t_m/2``,
    ``3/2*t_m`` and sums such as ``t_m_A + t_m_B``.
    """
    if isinstance(expr, (int, float)):
        total = expr
    else:
        total = 0.0
        for part in str(expr).split("+"):
            m = _TERM_RE.match(part)
            if not m or (m.group("num") is None and m.group("token") is None):
                raise ConfigError(f"cannot parse time term {part.strip()!r} in {expr!r}")
            if 0.0 in (float(m.group(g) or 1.0) for g in ("den", "div")):
                raise ConfigError(f"division by zero in time term {part.strip()!r} of {expr!r}")
            value = 1.0
            if m.group("num") is not None:
                value = float(m.group("num"))
                if m.group("den") is not None:
                    value /= float(m.group("den"))
            if m.group("token") is not None:
                token = m.group("token")
                if token not in tokens:
                    raise ConfigError(
                        f"unknown time token {token!r} in {expr!r}; available: {sorted(tokens)}"
                    )
                value *= tokens[token]
            if m.group("div") is not None:
                value /= float(m.group("div"))
            total += value
    if not 0 <= total <= sys.float_info.max:  # nan (inf / inf) fails too
        raise ConfigError(f"times must be finite and non-negative, got {expr}")
    return float(total)
