"""Canned network protocols with their analytic target states.

Each constructor returns the network, the protocol (its start site and its
timed phase kicks), the exact states the clean dynamics must reach (global
phase included), and the figure of merit used when the protocol runs under
disorder. Most protocols are checked at one instant, their end, and scored
there by the fidelity to the end state or by the EOF of a site pair; three
(ent-center, the plain mws and the 12-site mws) list several checkpoints.

Mirror-phase bookkeeping: a PST chain of length n maps site i to site
n+1-i at its mirror time while multiplying the state by (-i)^(n-1).
Walking a protocol through the fused network amounts to applying the block
unitary, mirroring the uncoupled chains, and applying it back; all expected
states below come from that algebra.

Phase retrieval (:func:`probe_estimates`) takes one decomposed device or a
stack of them; the disorder scans over it run in :mod:`spinnet.sweep`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .dynamics import Protocol, PureState, ScheduleEvent, propagate, schedule_kicks
from .linalg import BLOCK_ENTRIES, SpectralDecomposition, eigh
from .network import ChainSpec, CouplingGraph, NetworkSpec, network_graph, retune_jmax
from .observables import fidelities, pair_eofs

SQRT2 = math.sqrt(2.0)

# phase flip angle and the three-way-split angle arccos(-1/3)
FLIP = math.pi
W_STATE_ANGLE = math.acos(-1.0 / 3.0)


def phase_power(k: int) -> complex:
    """(-i)**k, exact."""
    return (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)[k % 4]


def phi_factor(n: int) -> complex:
    """Phase of the half-way junction superposition on an even 2-chain network."""
    return phase_power(n // 2 - 1)


def gamma_factor(n: int) -> complex:
    """Phase of the routed end state after a flip at the junction."""
    return phase_power(n - 2)


def delta_factor(n: int) -> complex:
    """Phase of the end-to-end superposition from the quarter-turn protocol."""
    return phase_power(2 * (n // 2 - 1))


def alpha_factor(n_chain: int) -> complex:
    """Single-chain mirror phase (-i)^(n-1)."""
    return phase_power(n_chain - 1)


@dataclass(frozen=True)
class FigureOfMerit:
    """What to measure, and when, for a protocol run."""

    kind: str  # "fidelity" | "eof"
    time: float
    target: PureState | None = None
    pair: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind == "fidelity" and self.target is None:
            raise ValueError("fidelity merit needs a target state")
        if self.kind == "eof" and self.pair is None:
            raise ValueError("eof merit needs a site pair")
        if self.kind not in ("fidelity", "eof"):
            raise ValueError(f"unknown merit kind {self.kind!r}")

    @property
    def sites(self) -> tuple[int, ...]:
        """The 0-based sites the merit reads: the target's nonzero sites, or the EOF pair."""
        if self.kind == "fidelity":
            return tuple(np.flatnonzero(self.target.amplitudes).tolist())
        return tuple(site - 1 for site in self.pair)

    def values(self, amplitudes: np.ndarray) -> np.ndarray:
        """The merit of every row of ``amplitudes``, a 2-D stack of states:
        the one merit path of sweeps and of ``spinnet run``."""
        if self.kind == "fidelity":
            return fidelities(amplitudes, self.target)
        return pair_eofs(amplitudes, *self.pair)


@dataclass(frozen=True)
class ProtocolResult:
    """A ready-to-run protocol: network, schedule, expectations, merit."""

    name: str
    network: NetworkSpec
    protocol: Protocol
    checkpoints: tuple[tuple[float, PureState], ...]
    merit: FigureOfMerit

    def graph(self) -> CouplingGraph:
        return network_graph(self.network)

    @property
    def expected_time(self) -> float:
        return self.checkpoints[-1][0]

    @property
    def expected_state(self) -> PureState:
        return self.checkpoints[-1][1]


def _two_chain_spec(n_total: int) -> NetworkSpec:
    if n_total % 2 != 0 or n_total < 4:
        raise ValueError(f"need an even total of at least 4 sites, got {n_total}")
    half = ChainSpec(n_total // 2)
    return NetworkSpec([half, half])


def _end_state_result(
    name: str, spec: NetworkSpec, protocol: Protocol, expected: PureState,
    pair: tuple[int, int] | None = None,
) -> ProtocolResult:
    """A result whose one checkpoint is ``expected`` at the end of the
    protocol, scored by the fidelity to it, or by the EOF of ``pair``."""
    t_end = protocol.duration
    if pair is None:
        merit = FigureOfMerit("fidelity", t_end, target=expected)
    else:
        merit = FigureOfMerit("eof", t_end, pair=pair)
    return ProtocolResult(name, spec, protocol, ((t_end, expected),), merit)


def two_chain_phase_protocol(n_total: int, angle: float) -> tuple[NetworkSpec, Protocol]:
    """Inject at site 1, kick site N/2+1 by ``angle`` at the mirror time."""
    spec = _two_chain_spec(n_total)
    t_m = spec.chains[0].mirror_time
    return spec, Protocol(1, [ScheduleEvent(t_m, n_total // 2 + 1, angle)], 2 * t_m)


def router_two_chain(n_total: int) -> ProtocolResult:
    """Send the excitation from site 1 to site N on two fused equal chains."""
    spec, protocol = two_chain_phase_protocol(n_total, FLIP)
    expected = PureState.from_terms(n_total, {n_total: gamma_factor(n_total)})
    return _end_state_result("router", spec, protocol, expected)


def entangle_phase_two_chain(n_total: int) -> ProtocolResult:
    """Split the excitation between the two ends with a quarter-turn kick."""
    spec, protocol = two_chain_phase_protocol(n_total, math.pi / 2.0)
    d = delta_factor(n_total)
    expected = PureState.from_terms(
        n_total,
        {1: d * (1.0 + 1.0j) / 2.0, n_total: d * (1.0 - 1.0j) / 2.0},
    )
    return _end_state_result("ent-phase", spec, protocol, expected, pair=(1, n_total))


def phase_sense_two_chain(n_total: int, theta_deg: float) -> ProtocolResult:
    """Probe run A of the phase sensor: the unknown angle kicks the junction.

    With z = e^{i theta} the excitation ends on the two ends as
    delta ((1 + z)|1> + (1 - z)|N>) / 2 at 2 t_m, so P1 = (1 + cos theta)/2.
    """
    theta = math.radians(theta_deg % 360.0)
    spec, protocol = two_chain_phase_protocol(n_total, theta)
    z = complex(math.cos(theta), math.sin(theta))
    d = delta_factor(n_total)
    expected = PureState.from_terms(
        n_total, {1: d * (1.0 + z) / 2.0, n_total: d * (1.0 - z) / 2.0}
    )
    return _end_state_result("phase-sense", spec, protocol, expected)


def entangle_center_two_chain(n_total: int) -> ProtocolResult:
    """End-to-end entanglement from a central injection, no kick at all."""
    spec = _two_chain_spec(n_total)
    t_m = spec.chains[0].mirror_time
    protocol = Protocol(n_total // 2, [], 2 * t_m)
    phase = phi_factor(n_total)
    entangled = PureState.from_terms(
        n_total, {1: phase / SQRT2, n_total: phase / SQRT2}
    )
    revived = PureState.from_terms(n_total, {n_total // 2: delta_factor(n_total)})
    return ProtocolResult(
        name="ent-center",
        network=spec,
        protocol=protocol,
        checkpoints=((t_m, entangled), (2 * t_m, revived)),
        merit=FigureOfMerit("eof", t_m, pair=(1, n_total)),
    )


def unequal_router(n_a: int, n_b: int) -> ProtocolResult:
    """Route across two chains of different lengths; no retuning needed."""
    spec = NetworkSpec([ChainSpec(n_a), ChainSpec(n_b)])
    t_a, t_b = spec.mirror_times
    n_total = n_a + n_b
    protocol = Protocol(1, [ScheduleEvent(t_a, n_a + 1, FLIP)], t_a + t_b)
    expected = PureState.from_terms(n_total, {n_total: gamma_factor(n_total)})
    return _end_state_result("unequal-router", spec, protocol, expected)


def unequal_entangle(n_a: int, n_b: int) -> ProtocolResult:
    """End-to-end entanglement on unequal chains from a central injection.

    The chains must share one mirror time, which is arranged by slowing the
    shorter chain down (its peak coupling shrinks; growing the longer
    chain's coupling may not be physical).
    """
    spec = NetworkSpec([ChainSpec(n_a), ChainSpec(n_b)])
    target, reference = (1, 2) if n_a <= n_b else (2, 1)
    spec = retune_jmax(spec, target, reference)
    n_total = n_a + n_b
    protocol = Protocol(n_a, [], spec.chains[0].mirror_time)
    expected = PureState.from_terms(
        n_total,
        {1: alpha_factor(n_a) / SQRT2, n_total: alpha_factor(n_b) / SQRT2},
    )
    return _end_state_result("unequal-ent", spec, protocol, expected, pair=(1, n_total))


def _equal_chain_network(n_chains: int, chain_len: int) -> NetworkSpec:
    return NetworkSpec([ChainSpec(chain_len)] * n_chains)


def w_state(chain_len: int) -> ProtocolResult:
    """Share the excitation equally over three sites on a 3-chain network.

    Kicking the lower junction site by arccos(-1/3) at t_m splits the
    population 1/3 : 1/3 : 1/3 between site 1 and the two sites of the far
    junction at 2 t_m.
    """
    if chain_len not in (3, 4):
        raise ValueError(f"supported chain lengths are 3 and 4, got {chain_len}")
    spec = _equal_chain_network(3, chain_len)
    t_m = spec.chains[0].mirror_time
    kick_site = chain_len + 1
    far_a, far_b = 2 * chain_len, 2 * chain_len + 1
    protocol = Protocol(1, [ScheduleEvent(t_m, kick_site, W_STATE_ANGLE)], 2 * t_m)
    sign = phase_power(2 * (chain_len - 1))  # +1 for odd chains, -1 for even
    z = complex(math.cos(W_STATE_ANGLE), math.sin(W_STATE_ANGLE))
    expected = PureState.from_terms(
        spec.n_sites,
        {
            1: sign * (1.0 + z) / 2.0,
            far_a: sign * (1.0 - z) / (2.0 * SQRT2),
            far_b: sign * (1.0 - z) / (2.0 * SQRT2),
        },
    )
    return _end_state_result("w-state", spec, protocol, expected)


def mws_9(with_flips: bool = False) -> ProtocolResult:
    """Four-site equal-share entanglement on three 3-site chains.

    Injecting at the central site 5 spreads the excitation over sites
    3, 4, 6, 7 after half a mirror time. Optionally, simultaneous flips at
    sites 4 and 7 then steer it into an end-to-end pair state at 3 t_m / 2.
    """
    spec = _equal_chain_network(3, 3)
    t_m = spec.chains[0].mirror_time
    n = spec.n_sites
    mws = PureState.from_terms(
        n, {3: -0.5j, 4: 0.5j, 6: -0.5j, 7: -0.5j}
    )
    if not with_flips:
        protocol = Protocol(5, [], t_m)
        revived = PureState.from_terms(n, {5: -1.0})
        return ProtocolResult(
            name="mws",
            network=spec,
            protocol=protocol,
            checkpoints=((t_m / 2.0, mws), (t_m, revived)),
            merit=FigureOfMerit("fidelity", t_m / 2.0, target=mws),
        )
    protocol = Protocol(
        5, [ScheduleEvent(t_m / 2.0, 4, FLIP), ScheduleEvent(t_m / 2.0, 7, FLIP)], 1.5 * t_m
    )
    paired = PureState.from_terms(n, {1: 1.0j / SQRT2, 9: 1.0j / SQRT2})
    return _end_state_result("mws", spec, protocol, paired, pair=(1, 9))


# Three 4-site chains, the middle one at half speed: j_max 1/2 makes its
# mirror time t_m,B = 2 t_m,A.
HALF_SPEED_MIDDLE = NetworkSpec([ChainSpec(4), ChainSpec(4, 0.5), ChainSpec(4)])


def mws_12() -> ProtocolResult:
    """Four-site equal-share entanglement on three 4-site chains.

    No site couples directly to both junctions here, so the trick is to run
    the middle chain at half speed (:data:`HALF_SPEED_MIDDLE`): the two
    halves of the injected amplitude then meet the far junction in step, and
    the state cycles through two equal-share patterns, a one-site revival at
    4 t_m,A, and back at 8 t_m,A.
    """
    spec = HALF_SPEED_MIDDLE
    t_a = spec.chains[0].mirror_time
    n = spec.n_sites
    protocol = Protocol(5, [], 8.0 * t_a)
    mws_plus = PureState.from_terms(
        n, {4: -0.5, 5: -0.5, 8: -0.5j, 9: -0.5j}
    )
    mws_minus = PureState.from_terms(
        n, {4: -0.5, 5: -0.5, 8: 0.5j, 9: 0.5j}
    )
    return ProtocolResult(
        name="mws",
        network=spec,
        protocol=protocol,
        checkpoints=(
            (2.0 * t_a, mws_plus),
            (4.0 * t_a, PureState.basis(n, 4)),
            (6.0 * t_a, mws_minus),
            (8.0 * t_a, PureState.basis(n, 5)),
        ),
        merit=FigureOfMerit("fidelity", 2.0 * t_a, target=mws_plus),
    )


def max_entangle_12() -> ProtocolResult:
    """End-to-end pair state on the half-speed-middle 12-site network."""
    spec = HALF_SPEED_MIDDLE
    t_a = spec.chains[0].mirror_time
    protocol = Protocol(5, [ScheduleEvent(2.0 * t_a, 9, FLIP)], 3.0 * t_a)
    expected = PureState.from_terms(spec.n_sites, {1: -1.0j / SQRT2, 12: 1.0 / SQRT2})
    return _end_state_result("max-ent", spec, protocol, expected, pair=(1, 12))


def m_chain_router(n_chains: int) -> ProtocolResult:
    """Route hop by hop across M fused 3-site chains.

    One flip per junction, applied each time the excitation reaches it,
    keeps the excitation moving forward; it arrives at the far end after M
    mirror times.
    """
    if n_chains < 2:
        raise ValueError(f"need at least two chains, got {n_chains}")
    spec = _equal_chain_network(n_chains, 3)
    t_m = spec.chains[0].mirror_time
    kicks = [ScheduleEvent(k * t_m, 3 * k + 1, FLIP) for k in range(1, n_chains)]
    protocol = Protocol(1, kicks, n_chains * t_m)
    sign = 1.0 if n_chains % 2 == 0 else -1.0
    expected = PureState.from_terms(spec.n_sites, {spec.n_sites: sign})
    return _end_state_result("router", spec, protocol, expected)


def mws_transfer_15() -> ProtocolResult:
    """Relocate the four-site equal-share state across a 5-chain network.

    Inject at site 8, wait half a mirror time (the share spreads over sites
    6, 7, 9, 10), flip sites 7 and 10 together, and one mirror time later
    the share sits on sites 3, 4, 12, 13.
    """
    spec = _equal_chain_network(5, 3)
    t_m = spec.chains[0].mirror_time
    protocol = Protocol(
        8, [ScheduleEvent(t_m / 2.0, 7, FLIP), ScheduleEvent(t_m / 2.0, 10, FLIP)], 1.5 * t_m
    )
    expected = PureState.from_terms(
        spec.n_sites, {3: 0.5j, 4: -0.5j, 12: 0.5j, 13: 0.5j}
    )
    return _end_state_result("mws-transfer", spec, protocol, expected)


# --- phase sensing -------------------------------------------------------

def probe_estimates(
    decomp: SpectralDecomposition, thetas_deg: Sequence[float],
    streams: Sequence[int] | None = None,
) -> np.ndarray:
    """Estimate each unknown kick angle on every device of a decomposed stack.

    Per angle, two probes run the phase-sense protocol
    (:func:`two_chain_phase_protocol`) through
    :func:`~spinnet.dynamics.propagate`. Run A kicks by theta and reads P1 =
    (1 + cos theta)/2 at its end; run B adds a known quarter turn and reads
    P1' = (1 - sin theta)/2. atan2(1 - 2 P1', 2 P1 - 1) then recovers the
    full circle; on a clean network the estimate is exact. One propagation
    takes every device to the kick; a chunk of angles, at most BLOCK_ENTRIES
    state entries of probes, is copies of that stack, each with its own
    probe angle, and shares one propagation to the end. The estimates are
    the float64 (angles, devices) array, each the same bit for bit as for
    its device alone, probe by probe: ``abs``, ``atan2``, ``degrees`` and
    the wrap to [0, 360) run per estimate on Python scalars, which numpy's
    SIMD loops may round differently. N is the size of the decomposition;
    ``streams`` name a device whose norm drifts (:func:`propagate`).
    """
    n_total = decomp.eigenvalues.shape[-1]
    _, protocol = two_chain_phase_protocol(n_total, 0.0)
    start, [(t_kick, site, _)] = schedule_kicks(protocol, n_total)
    devices = np.zeros(decomp.eigenvalues.shape, dtype=complex)
    devices[..., start] = 1.0
    halfway = propagate(decomp, devices, 0.0, [], t_kick, streams)

    estimates = np.empty((len(thetas_deg), halfway.size // n_total))
    per_chunk = max(1, BLOCK_ENTRIES // (2 * halfway.size))  # angles, of two probes each
    for first in range(0, len(thetas_deg), per_chunk):
        chunk = [math.radians(theta_deg) for theta_deg in thetas_deg[first:first + per_chunk]]
        # the direct and the quadrature probe of each angle
        angles = [a for theta in chunk for a in (theta, theta + math.pi / 2.0)]
        probes = np.broadcast_to(halfway, (len(angles),) + halfway.shape)
        evolved = propagate(decomp, probes, t_kick, [(t_kick, site, angles)], protocol.duration,
                            streams)
        arrived = evolved[..., start].reshape(len(chunk), 2, -1).tolist()
        estimates[first:first + len(chunk)] = [
            [math.degrees(math.atan2(1.0 - 2.0 * abs(quad) ** 2, 2.0 * abs(direct) ** 2 - 1.0))
             % 360.0 for direct, quad in zip(*pair)]
            for pair in arrived]
    return estimates


def phase_probe_estimates(
    graph: CouplingGraph, n_total: int, thetas_deg: Sequence[float]
) -> list[float]:
    """:func:`probe_estimates` of one device of ``n_total`` sites, decomposed
    once: its estimate at each angle."""
    if n_total != graph.n_sites:
        raise ValueError(f"a probe of {n_total} sites on a graph of {graph.n_sites}")
    return probe_estimates(eigh(graph.to_matrix()), thetas_deg)[:, 0].tolist()


def angle_offset(a_deg: float | np.ndarray, b_deg: float | np.ndarray) -> float | np.ndarray:
    """The signed angle from ``b_deg`` to ``a_deg``, within 180 degrees either way.

    Floats or float64 arrays, elementwise and broadcast: numpy's remainder
    takes Python's float ``%`` step for step (fmod, then the divisor's
    sign), so an array's offsets are the scalar offsets bit for bit.
    """
    return (a_deg - b_deg + 180.0) % 360.0 - 180.0


def unwrap_to_branch(estimate_deg: float | np.ndarray,
                     reference_deg: float | np.ndarray) -> float | np.ndarray:
    """Move an angle onto the branch within 180 degrees of the reference;
    elementwise over arrays, bit for bit as on scalars (:func:`angle_offset`)."""
    return reference_deg + angle_offset(estimate_deg, reference_deg)


# --- name-based dispatch (CLI surface) ------------------------------------

def _mws(p: dict) -> ProtocolResult:
    chain_length = p.pop("chain_length", 3)
    if chain_length == 3:
        return mws_9(with_flips=p.pop("with_flips", False))
    if chain_length == 4:
        return mws_12()
    raise ValueError(f"mws supports chain lengths 3 and 4, got {chain_length}")


# Every network size a config gives (a protocol's n, m, n_a, n_b and
# chain_length, a sweep's n_values or m_values, phase_scan.n, the sites of a
# network's chains) is at most MAX_SIZE, five times the paper's largest
# N = 200. `spinnet run` decomposes a dense complex N x N matrix: 16 MB at
# N = 1000, and 144 MB for the 3000 sites of the largest m-chain router.
MAX_SIZE = 1000


@dataclass(frozen=True)
class Parameter:
    """A parameter as a config gives it: its YAML types, and the range its
    value must lie in, checked once when the config is read."""

    types: type | tuple
    rule: str = ""  # the range, as a config error states it
    accepts: Callable[[Any], bool] = lambda value: True


SIZE = Parameter(int, f"at most {MAX_SIZE}", lambda value: value <= MAX_SIZE)
# an integer beyond a float's range would overflow the builder's float arithmetic
ANGLE = Parameter((int, float), "need a finite angle in degrees",
                  lambda value: abs(value) <= sys.float_info.max)
FLAG = Parameter(bool)

# Each protocol by its CLI name: a builder that pops the parameters it uses
# from a dict, and each parameter's config type and range.
PROTOCOLS: dict[str, tuple[Callable[[dict], ProtocolResult], dict[str, Parameter]]] = {
    "router": (lambda p: m_chain_router(p.pop("m")) if "m" in p else router_two_chain(p.pop("n")),
               {"n": SIZE, "m": SIZE}),
    "ent-phase": (lambda p: entangle_phase_two_chain(p.pop("n")), {"n": SIZE}),
    "ent-center": (lambda p: entangle_center_two_chain(p.pop("n")), {"n": SIZE}),
    "phase-sense": (lambda p: phase_sense_two_chain(p.pop("n"), p.pop("theta_deg", 0.0)),
                    {"n": SIZE, "theta_deg": ANGLE}),
    "unequal-router": (lambda p: unequal_router(p.pop("n_a"), p.pop("n_b")),
                       {"n_a": SIZE, "n_b": SIZE}),
    "unequal-ent": (lambda p: unequal_entangle(p.pop("n_a"), p.pop("n_b")),
                    {"n_a": SIZE, "n_b": SIZE}),
    "w-state": (lambda p: w_state(p.pop("chain_length")), {"chain_length": SIZE}),
    "mws": (_mws, {"chain_length": SIZE, "with_flips": FLAG}),
    "mws-transfer": (lambda p: mws_transfer_15(), {}),
    "max-ent": (lambda p: max_entangle_12(), {}),
}


def build_protocol(name: str, params: dict) -> ProtocolResult:
    """Build a protocol from its CLI name and validated parameters. A
    parameter the chosen protocol does not use (``n`` beside ``m`` for the
    router, ``with_flips`` for the 12-site mws) is an error, not dropped."""
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}")
    p = dict(params)
    try:
        result = PROTOCOLS[name][0](p)
    except KeyError as exc:
        raise ValueError(f"protocol {name!r} is missing parameter {exc.args[0]!r}")
    if p:
        raise ValueError(f"protocol {name!r} built from {sorted(set(params) - set(p))} does "
                         f"not use parameter {', '.join(map(repr, sorted(p)))}")
    return result
