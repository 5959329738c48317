"""Config files: strict YAML schema and observation-time expressions.

Every key is checked against the schema; an unknown key is an error, not a
silent default, so typos like ``jmax`` for ``j_max`` cannot slip through.
Times may be given as expressions over the built network's mirror times
(``t_m``, ``t_m_A``, ``t_m_B``) with rational coefficients, e.g. ``2*t_m``,
``3*t_m/2`` or ``t_m_A + t_m_B``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any

import yaml

from .disorder import KINDS, SEED_LIMIT, DisorderSpec
from .network import ChainSpec, NetworkSpec


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


# Bounds on what a config may ask for, so that no input exhausts the
# machine: `spinnet run` keeps every sample's state, and sweeps and phase
# scans keep every realization's value (a Python float each, about 32 bytes).
# With at most MAX_REALIZATIONS per cell or setting, a stream index
# c * K + k stays below 2^64 for any grid of fewer than 1.8e13 cells, more
# than a config file can list.
MAX_RUN_SAMPLES = 100_000
# `spinnet run` keeps its whole trajectory, run.samples states of one complex
# amplitude per site: 10^7 amplitudes are 160 MB.
MAX_RUN_AMPLITUDES = 10**7
MAX_REALIZATIONS = 1_000_000
MAX_SCAN_ANGLES = 3600
# the angles a phase scan probes when its config lists none: 0, 15, ..., 345
DEFAULT_THETAS_DEG = tuple(float(t) for t in range(0, 360, 15))
# Every network size a config gives (a protocol's n, m, n_a, n_b and
# chain_length, a sweep's n_values or m_values, phase_scan.n, the sites of a
# network's chains) is at most MAX_SIZE, five times the paper's largest
# N = 200. `spinnet run` decomposes a dense complex N x N matrix: 16 MB at
# N = 1000, and 144 MB for the 3000 sites of the largest m-chain router.
MAX_SIZE = 1000


def load_yaml(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def _check_keys(data: dict, allowed: dict[str, type | tuple], where: str) -> None:
    for key in data:
        if key not in allowed:
            hint = ""
            close = [k for k in allowed if k.replace("_", "") == str(key).replace("_", "")]
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise ConfigError(f"{where}: unknown key {key!r}{hint}; allowed: {sorted(allowed)}")
    for key, types in allowed.items():
        if key not in data or (data[key] is None and types is dict):
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
        if sites > MAX_SIZE:
            raise ConfigError(f"{where}: the chains have more than {MAX_SIZE} sites")
        try:
            chains.append(ChainSpec(entry["length"], float(entry.get("j_max", 1.0))))
        except ValueError as exc:
            raise ConfigError(f"{w}: {exc}")
    return NetworkSpec(chains)


@dataclass(frozen=True)
class ProtocolConfig:
    name: str
    params: dict[str, Any] = field(default_factory=dict)


_PROTOCOL_PARAMS: dict[str, dict[str, type | tuple]] = {
    "router": {"n": int, "m": int},
    "ent-phase": {"n": int},
    "ent-center": {"n": int},
    "phase-sense": {"n": int, "theta_deg": _NUMBER},
    "unequal-router": {"n_a": int, "n_b": int},
    "unequal-ent": {"n_a": int, "n_b": int},
    "w-state": {"chain_length": int},
    "mws": {"chain_length": int, "with_flips": bool},
    "mws-transfer": {},
    "max-ent": {},
}


def protocol_names() -> list[str]:
    return sorted(_PROTOCOL_PARAMS)


def parse_protocol(data: Any, where: str = "protocol") -> ProtocolConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping with a 'name'")
    name = data.get("name")
    if not isinstance(name, str):
        raise ConfigError(f"{where}.name: protocol name required")
    if name not in _PROTOCOL_PARAMS:
        raise ConfigError(
            f"{where}.name: unknown protocol {name!r}; available: {', '.join(protocol_names())}"
        )
    allowed: dict[str, type | tuple] = {"name": str}
    allowed.update(_PROTOCOL_PARAMS[name])
    _check_keys(data, allowed, where)
    params = {k: v for k, v in data.items() if k != "name"}
    for key, value in params.items():
        if allowed[key] is int and value > MAX_SIZE:  # every integer parameter is a size
            raise ConfigError(f"{where}.{key}: at most {MAX_SIZE}, got {value}")
    return ProtocolConfig(name, params)


def parse_disorder(data: Any, where: str = "disorder") -> DisorderSpec:
    if data is None:
        return DisorderSpec()
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    _check_keys(data, {"kind": str, "strength": _NUMBER}, where)
    kind = data.get("kind", "none")
    if kind not in KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}; allowed: {KINDS}")
    try:
        return DisorderSpec(kind, float(data.get("strength", 0.0)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


@dataclass(frozen=True)
class RunConfig:
    duration: str | float | None = None
    samples: int = 400
    amplitudes: bool = False


def parse_run(data: Any, where: str = "run") -> RunConfig:
    if data is None:
        return RunConfig()
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
    if max(sizes) > MAX_SIZE:
        raise ConfigError(f"{where}.{axis}_values: at most {MAX_SIZE}, got {max(sizes)}")
    e_values = data.get("e_values")
    if not e_values or not all(_is(v, _NUMBER) and 0 <= v < math.inf for v in e_values):
        raise ConfigError(f"{where}.e_values: need a non-empty list of finite numbers >= 0")
    kinds = tuple(data.get("kinds", ["diagonal"]))
    for kind in kinds:
        if kind not in ("diagonal", "off_diagonal"):
            raise ConfigError(f"{where}.kinds: {kind!r} is not a disorder kind")
    realizations = _realizations(data, where)
    observable = data.get("observable", "auto")
    if observable not in ("auto", "fidelity", "eof"):
        raise ConfigError(f"{where}.observable: expected auto|fidelity|eof, got {observable!r}")
    pair = data.get("eof_pair")
    if pair is not None:
        if len(pair) != 2 or not all(_is(v, int) and v >= 1 for v in pair):
            raise ConfigError(f"{where}.eof_pair: expected two 1-based site labels")
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
    if n > MAX_SIZE:
        raise ConfigError(f"{where}.n: at most {MAX_SIZE}, got {n}")
    thetas = data.get("thetas_deg", DEFAULT_THETAS_DEG)
    if not all(_is(v, _NUMBER) for v in thetas):
        raise ConfigError(f"{where}.thetas_deg: need a list of numbers")
    if len(thetas) > MAX_SCAN_ANGLES:
        raise ConfigError(f"{where}.thetas_deg: at most {MAX_SCAN_ANGLES} angles are allowed")
    thetas = tuple(float(v) for v in thetas)
    if not thetas or not all(0.0 <= t < 360.0 for t in thetas):
        raise ConfigError(f"{where}: angles must lie in [0, 360) degrees")
    settings_raw = data.get("settings") or [{"kind": "none"}]
    settings = tuple(
        parse_disorder(entry, f"{where}.settings[{idx}]")
        for idx, entry in enumerate(settings_raw, start=1)
    )
    realizations = _realizations(data, where)
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
    "seed": int,
    "workers": int,
    "network": dict,
    "protocol": dict,
    "disorder": dict,
    "run": dict,
    "sweep": dict,
    "phase_scan": dict,
}


def parse_config(data: dict, where: str = "config") -> Config:
    _check_keys(data, _TOP_KEYS, where)
    seed = data.get("seed", 0)
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"{where}.seed: must be in [0, 2^64), got {seed}")
    workers = data.get("workers", 1)
    if workers < 1:
        raise ConfigError(f"{where}.workers: must be >= 1")
    return Config(
        raw=data,
        seed=seed,
        workers=workers,
        network=parse_network(data["network"]) if "network" in data else None,
        protocol=parse_protocol(data["protocol"]) if "protocol" in data else None,
        disorder=parse_disorder(data.get("disorder")),
        run=parse_run(data.get("run")),
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
        if not 0 <= expr < math.inf:
            raise ConfigError(f"times must be finite and non-negative, got {expr}")
        return float(expr)
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
    if total < 0:
        raise ConfigError(f"time expression {expr!r} is negative")
    return total
