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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import PureState, Protocol, check_norms, kick_site, phase_kick
from .linalg import BLOCK_ENTRIES, SpectralDecomposition, eigh, evolve
from .network import ChainSpec, CouplingGraph, NetworkSpec, network_graph, retune_jmax

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
    return spec, Protocol(1, [phase_kick(n_total // 2 + 1, angle, t_m)], 2 * t_m)


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
    protocol = Protocol(1, [phase_kick(n_a + 1, FLIP, t_a)], t_a + t_b)
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
    protocol = Protocol(1, [phase_kick(kick_site, W_STATE_ANGLE, t_m)], 2 * t_m)
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
        5, [phase_kick(4, FLIP, t_m / 2.0), phase_kick(7, FLIP, t_m / 2.0)], 1.5 * t_m
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
    protocol = Protocol(5, [phase_kick(9, FLIP, 2.0 * t_a)], 3.0 * t_a)
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
    kicks = [phase_kick(3 * k + 1, FLIP, k * t_m) for k in range(1, n_chains)]
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
        8, [phase_kick(7, FLIP, t_m / 2.0), phase_kick(10, FLIP, t_m / 2.0)], 1.5 * t_m
    )
    expected = PureState.from_terms(
        spec.n_sites, {3: 0.5j, 4: -0.5j, 12: 0.5j, 13: 0.5j}
    )
    return _end_state_result("mws-transfer", spec, protocol, expected)


# --- phase sensing -------------------------------------------------------

def probe_estimates(
    decomp: SpectralDecomposition, n_total: int, thetas_deg: Sequence[float],
    streams: Sequence[int] | None = None,
) -> list[list[float]]:
    """Estimate each unknown kick angle on every device of a decomposed stack.

    Per angle, run A reads P1 = (1 + cos theta)/2 at 2 t_m; run B adds a
    known quarter turn to the unknown phase and reads P1' = (1 - sin
    theta)/2. atan2(1 - 2 P1', 2 P1 - 1) then recovers the full circle; on
    a clean network the estimate is exact. One evolve call takes every
    device to t_m; each probe (two per angle) is a copy of that stack,
    kicked by :func:`~spinnet.dynamics.kick_site`, and the probes of a chunk
    of at most BLOCK_ENTRIES state entries share one broadcast evolve call
    to 2 t_m. Each device gets its estimates as scalars: one list per
    device, the same bit for bit as for that device alone, probe by probe
    through :func:`~spinnet.dynamics.propagate`. Every evolved stack passes
    :func:`~spinnet.dynamics.check_norms`, which names a failing device by
    its disorder stream when ``streams`` gives them.
    """
    t_m = ChainSpec(n_total // 2).mirror_time
    kick_index = n_total // 2  # 0-based index of site N/2 + 1
    start = np.zeros(decomp.eigenvalues.shape, dtype=complex)
    start[..., 0] = 1.0
    halfway = evolve(decomp, start, t_m)
    check_norms(halfway, streams, t_m)

    angles = []  # direct, then quadrature, per unknown angle
    for theta_deg in thetas_deg:
        theta = math.radians(theta_deg)
        angles += [theta, theta + math.pi / 2.0]
    populations: list[list[float]] = []  # P1 of every device, per probe
    per_chunk = max(1, BLOCK_ENTRIES // halfway.size)
    for first in range(0, len(angles), per_chunk):
        chunk = angles[first:first + per_chunk]
        probes = np.empty((len(chunk),) + halfway.shape, dtype=complex)
        probes[...] = halfway
        for probe, angle in zip(probes, chunk):
            kick_site(probe, kick_index, angle)
        # from t_m to 2 t_m: 2 t_m - t_m is t_m exactly
        evolved = evolve(decomp, probes, t_m)
        check_norms(evolved, streams, 2 * t_m)
        arrived = evolved[..., 0].reshape(len(chunk), -1)
        populations += [[abs(a) ** 2 for a in probe] for probe in arrived.tolist()]

    estimates: list[list[float]] = [[] for _ in range(halfway[..., 0].size)]
    for direct, quadrature in zip(populations[::2], populations[1::2]):
        for device, p_direct, p_quad in zip(estimates, direct, quadrature):
            est = math.degrees(math.atan2(1.0 - 2.0 * p_quad, 2.0 * p_direct - 1.0))
            device.append(est % 360.0)
    return estimates


def phase_probe_estimates(
    graph: CouplingGraph, n_total: int, thetas_deg: Sequence[float]
) -> list[float]:
    """:func:`probe_estimates` of one device, decomposed once."""
    return probe_estimates(eigh(graph.to_matrix()), n_total, thetas_deg)[0]


def phase_sense_estimate(n_total: int, theta_deg: float) -> float:
    """Clean-network phase retrieval; returns the angle in [0, 360) degrees."""
    spec = _two_chain_spec(n_total)
    return phase_probe_estimates(network_graph(spec), n_total, [theta_deg])[0]


def unwrap_to_branch(estimate_deg: float, reference_deg: float) -> float:
    """Move an angle onto the branch within 180 degrees of the reference."""
    return reference_deg + ((estimate_deg - reference_deg + 180.0) % 360.0 - 180.0)


# --- name-based dispatch (CLI surface) ------------------------------------

def build_protocol(name: str, params: dict) -> ProtocolResult:
    """Build a protocol from its CLI name and validated parameters. A
    parameter the chosen protocol does not use (``n`` beside ``m`` for the
    router, ``with_flips`` for the 12-site mws) is an error, not dropped."""
    p = dict(params)
    try:
        if name == "router":
            result = m_chain_router(p.pop("m")) if "m" in p else router_two_chain(p.pop("n"))
        elif name == "ent-phase":
            result = entangle_phase_two_chain(p.pop("n"))
        elif name == "phase-sense":
            result = phase_sense_two_chain(p.pop("n"), p.pop("theta_deg", 0.0))
        elif name == "ent-center":
            result = entangle_center_two_chain(p.pop("n"))
        elif name == "unequal-router":
            result = unequal_router(p.pop("n_a"), p.pop("n_b"))
        elif name == "unequal-ent":
            result = unequal_entangle(p.pop("n_a"), p.pop("n_b"))
        elif name == "w-state":
            result = w_state(p.pop("chain_length"))
        elif name == "mws":
            chain_length = p.pop("chain_length", 3)
            if chain_length == 3:
                result = mws_9(with_flips=p.pop("with_flips", False))
            elif chain_length == 4:
                result = mws_12()
            else:
                raise ValueError(f"mws supports chain lengths 3 and 4, got {chain_length}")
        elif name == "max-ent":
            result = max_entangle_12()
        elif name == "mws-transfer":
            result = mws_transfer_15()
        else:
            raise ValueError(f"unknown protocol {name!r}")
    except KeyError as exc:
        raise ValueError(f"protocol {name!r} is missing parameter {exc.args[0]!r}")
    if p:
        raise ValueError(f"protocol {name!r} built from {sorted(set(params) - set(p))} does "
                         f"not use parameter {', '.join(map(repr, sorted(p)))}")
    return result
