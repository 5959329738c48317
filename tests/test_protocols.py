import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spinnet import dynamics, protocols
from spinnet.config import ConfigError, parse_protocol
from spinnet.network import ChainSpec, NetworkSpec, network_graph
from spinnet.observables import eof_pair, fidelity
from spinnet.disorder import DisorderSpec, SeededRng, perturb, sample_disorder, stream_draws
from spinnet.dynamics import (Protocol, PureState, ScheduleEvent, propagate, replace_samples,
                              run_schedule)
from spinnet.linalg import eigh, evolve
from spinnet.protocols import (
    FLIP,
    PROTOCOLS,
    alpha_factor,
    angle_offset,
    build_protocol,
    delta_factor,
    entangle_center_two_chain,
    entangle_phase_two_chain,
    gamma_factor,
    m_chain_router,
    max_entangle_12,
    mws_9,
    mws_12,
    mws_transfer_15,
    phase_power,
    phase_probe_estimates,
    phase_sense_two_chain,
    phi_factor,
    probe_estimates,
    router_two_chain,
    two_chain_phase_protocol,
    unequal_entangle,
    unequal_router,
    unwrap_to_branch,
    w_state,
)

from oracles import population, state_at

SQRT2 = math.sqrt(2.0)

ALL_PROTOCOLS = [
    router_two_chain(4),
    router_two_chain(6),
    router_two_chain(12),
    entangle_phase_two_chain(6),
    entangle_phase_two_chain(12),
    entangle_center_two_chain(4),
    entangle_center_two_chain(12),
    unequal_router(3, 4),
    unequal_router(4, 3),
    unequal_router(6, 5),
    unequal_entangle(3, 4),
    unequal_entangle(5, 8),
    w_state(3),
    w_state(4),
    mws_9(),
    mws_9(with_flips=True),
    mws_12(),
    max_entangle_12(),
    m_chain_router(2),
    m_chain_router(5),
    mws_transfer_15(),
    phase_sense_two_chain(8, 45.0),
    phase_sense_two_chain(20, 315.0),
]


def achieved_states(result):
    graph = result.graph()
    times = [t for t, _ in result.checkpoints]
    return run_schedule(graph, replace_samples(result.protocol, times)).states


# --- phase factors ----------------------------------------------------------

def test_phase_power_exact():
    for k in range(-8, 9):
        assert phase_power(k) == (-1j) ** (k % 4)
        assert abs(abs(phase_power(k)) - 1.0) == 0.0


def test_named_phase_factors():
    assert phi_factor(12) == phase_power(5)
    assert gamma_factor(6) == 1.0
    assert gamma_factor(7) == -1.0j
    assert delta_factor(12) == -1.0
    assert delta_factor(6) == 1.0
    assert alpha_factor(3) == -1.0
    assert alpha_factor(4) == 1.0j


# --- every canned protocol hits its analytic target, phase included ---------

@pytest.mark.parametrize("result", ALL_PROTOCOLS, ids=lambda r: f"{r.name}-{r.network.n_sites}")
def test_checkpoints_reached_including_global_phase(result):
    for (t, expected), got in zip(result.checkpoints, achieved_states(result)):
        assert abs(expected.overlap(got) - 1.0) < 1e-9, f"checkpoint at t={t}"


@pytest.mark.parametrize("result", ALL_PROTOCOLS, ids=lambda r: f"{r.name}-{r.network.n_sites}")
def test_merit_is_perfect_on_clean_network(result):
    state = state_at(result.graph(), result.protocol, result.merit.time)
    assert result.merit.values(state.amplitudes[np.newaxis])[0] == pytest.approx(
        1.0, abs=1e-9)


# --- two-chain routing --------------------------------------------------------

def test_router_even_sizes_phase_table():
    for n in (4, 6, 8, 10, 12):
        result = router_two_chain(n)
        state = achieved_states(result)[0]
        assert abs(state.amplitude(n) - gamma_factor(n)) < 1e-9


def test_router_n6_reaches_far_end_with_plus_phase():
    state = achieved_states(router_two_chain(6))[0]
    assert abs(state.amplitude(6) - 1.0) < 1e-9


def test_router_odd_size_rejected():
    with pytest.raises(ValueError):
        router_two_chain(7)
    with pytest.raises(ValueError):
        router_two_chain(2)


def test_no_flip_returns_home():
    spec, _ = two_chain_phase_protocol(12, 0.0)
    g = network_graph(spec)
    t_m = spec.chains[0].mirror_time
    psi = state_at(g, Protocol(1, [], 2 * t_m), 2 * t_m)
    assert population(psi, 1) == pytest.approx(1.0, abs=1e-9)


def test_halfway_superposition_state():
    for n in (4, 6, 12):
        spec, _ = two_chain_phase_protocol(n, 0.0)
        g = network_graph(spec)
        t_m = spec.chains[0].mirror_time
        psi = state_at(g, Protocol(1, [], t_m), t_m)
        expected = PureState.from_terms(
            n, {n // 2: phi_factor(n) / SQRT2, n // 2 + 1: phi_factor(n) / SQRT2}
        )
        assert abs(expected.overlap(psi) - 1.0) < 1e-9


# --- entanglement protocols ----------------------------------------------------

def test_phase_protocol_eof_is_one():
    for n in (6, 12):
        result = entangle_phase_two_chain(n)
        state = achieved_states(result)[0]
        assert eof_pair(state, 1, n) == pytest.approx(1.0, abs=1e-9)


def test_phase_protocol_zero_angle_goes_home():
    spec, protocol = two_chain_phase_protocol(12, 0.0)
    state = state_at(network_graph(spec), protocol, protocol.duration)
    assert population(state, 1) == pytest.approx(1.0, abs=1e-9)
    assert eof_pair(state, 1, 12) == pytest.approx(0.0, abs=1e-9)


def test_phase_protocol_pi_angle_is_router():
    spec, protocol = two_chain_phase_protocol(12, math.pi)
    state = state_at(network_graph(spec), protocol, protocol.duration)
    assert fidelity(state, PureState.basis(12, 12)) == pytest.approx(1.0, abs=1e-9)
    assert eof_pair(state, 1, 12) == pytest.approx(0.0, abs=1e-9)


def test_center_protocol_checkpoints():
    result = entangle_center_two_chain(12)
    entangled, revived = achieved_states(result)
    assert eof_pair(entangled, 1, 12) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(revived, PureState.basis(12, 6)) == pytest.approx(1.0, abs=1e-9)


def test_center_protocol_skips_lower_junction_site():
    result = entangle_center_two_chain(12)
    samples = np.linspace(0.0, result.protocol.duration, 400)
    traj = run_schedule(result.graph(), replace_samples(result.protocol, samples))
    site7 = traj.populations()[:, 6]
    assert float(site7.max()) < 1e-9


# --- unequal chains ---------------------------------------------------------------

def test_unequal_router_three_plus_four():
    result = unequal_router(3, 4)
    state = achieved_states(result)[0]
    assert abs(state.amplitude(7) - (-1.0j)) < 1e-9


def test_unequal_router_reduces_to_equal_router():
    uneven = unequal_router(3, 3)
    even = router_two_chain(6)
    assert uneven.protocol == even.protocol
    assert np.allclose(
        uneven.expected_state.amplitudes, even.expected_state.amplitudes
    )


def test_unequal_entangle_three_plus_four():
    result = unequal_entangle(3, 4)
    state = achieved_states(result)[0]
    expected = PureState.from_terms(7, {1: -1 / SQRT2, 7: 1j / SQRT2})
    assert abs(expected.overlap(state) - 1.0) < 1e-9
    assert eof_pair(state, 1, 7) == pytest.approx(1.0, abs=1e-9)


def test_unequal_entangle_slows_the_shorter_chain():
    result = unequal_entangle(3, 4)
    assert result.network.chains[0].j_max < result.network.chains[1].j_max
    result2 = unequal_entangle(6, 4)
    assert result2.network.chains[1].j_max < result2.network.chains[0].j_max


def test_unretuned_phase_protocol_coefficients():
    # start at 1, quarter-turn kick at site 4 at t_m,A, read out at 2 t_m,A
    spec = NetworkSpec([ChainSpec(3), ChainSpec(4)])
    t_a = spec.chains[0].mirror_time
    g = network_graph(spec)
    protocol = Protocol(1, [ScheduleEvent(t_a, 4, math.pi / 2)], 2 * t_a)
    psi = state_at(g, protocol, 2 * t_a)
    reference = {
        1: (1 + 1j) / 2,
        3: -0.031 + 0.031j,
        4: 0.031 - 0.031j,
        5: 0.15 + 0.15j,
        6: 0.31 - 0.31j,
        7: -0.36 - 0.36j,
    }
    for site, ref in reference.items():
        amp = psi.amplitude(site)
        assert abs(amp.real - ref.real) < 5e-3, f"site {site} real part"
        assert abs(amp.imag - ref.imag) < 5e-3, f"site {site} imag part"
    assert abs(psi.amplitude(2)) < 1e-9


def test_unretuned_entanglement_revival_near_eight_mirror_times():
    spec = NetworkSpec([ChainSpec(3), ChainSpec(4)])
    t_a = spec.chains[0].mirror_time
    g = network_graph(spec)
    protocol = Protocol(1, [ScheduleEvent(t_a, 4, math.pi / 2)], 2 * t_a)
    times = np.linspace(7.5 * t_a, 8.5 * t_a, 160)
    traj = run_schedule(g, replace_samples(protocol, times))
    best = max(eof_pair(s, 1, 7) for s in traj.states)
    assert best > 0.95


# --- three and more chains ----------------------------------------------------------

def test_w_state_populations_balance():
    for chain_len, sites in ((3, (1, 6, 7)), (4, (1, 8, 9))):
        result = w_state(chain_len)
        state = achieved_states(result)[0]
        for site in sites:
            assert population(state, site) == pytest.approx(1 / 3, abs=1e-9)


def test_w_state_reforms_at_even_mirror_multiples():
    result = w_state(3)
    g = result.graph()
    t_m = result.network.chains[0].mirror_time
    for mult in (2, 4, 6):
        psi = state_at(g, result.protocol, mult * t_m)
        assert fidelity(psi, result.expected_state) == pytest.approx(1.0, abs=1e-9)


def test_w_state_other_lengths_rejected():
    with pytest.raises(ValueError):
        w_state(5)


def test_mws9_equal_share_then_revival():
    result = mws_9()
    share, revived = achieved_states(result)
    for site in (3, 4, 6, 7):
        assert population(share, site) == pytest.approx(0.25, abs=1e-9)
    assert fidelity(revived, PureState.basis(9, 5)) == pytest.approx(1.0, abs=1e-9)


def test_mws9_double_flip_pairs_the_ends():
    result = mws_9(with_flips=True)
    state = achieved_states(result)[0]
    assert eof_pair(state, 1, 9) == pytest.approx(1.0, abs=1e-9)


def test_mws12_state_sequence():
    result = mws_12()
    states = achieved_states(result)
    n = result.network.n_sites
    assert fidelity(states[1], PureState.basis(n, 4)) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(states[3], PureState.basis(n, 5)) == pytest.approx(1.0, abs=1e-9)
    # the two equal-share states differ by the relative phase of the far pair
    assert abs(states[0].amplitude(8) + states[2].amplitude(8)) < 1e-9


def test_equal_mirror_times_variant_returns_to_center():
    # with three identical chains the two amplitudes interfere into site 5
    spec = NetworkSpec([ChainSpec(4)] * 3)
    t_m = spec.chains[0].mirror_time
    g = network_graph(spec)
    psi = state_at(g, Protocol(5, [], 2 * t_m), 2 * t_m)
    expected = PureState.from_terms(12, {5: -1.0})
    assert abs(expected.overlap(psi) - 1.0) < 1e-9


def test_max_entangle_12():
    result = max_entangle_12()
    state = achieved_states(result)[0]
    assert eof_pair(state, 1, 12) == pytest.approx(1.0, abs=1e-9)
    others = [s for s in range(1, 13) if s not in (1, 12)]
    for site in others:
        assert population(state, site) < 1e-9


def test_max_entangle_fails_on_identical_chains():
    # same schedule on three equal chains cannot deliver the pair state
    spec = NetworkSpec([ChainSpec(4)] * 3)
    t_a = spec.chains[0].mirror_time
    g = network_graph(spec)
    protocol = Protocol(5, [ScheduleEvent(2 * t_a, 9, FLIP)], 3 * t_a)
    psi = state_at(g, protocol, 3 * t_a)
    target = max_entangle_12().expected_state
    assert fidelity(psi, target) < 0.5
    assert eof_pair(psi, 1, 12) < 0.1


def test_m_chain_router_end_to_end():
    result = m_chain_router(5)
    state = achieved_states(result)[0]
    assert population(state, 15) == pytest.approx(1.0, abs=1e-9)


def test_m_chain_router_reduces_to_two_chain():
    assert m_chain_router(2).protocol == router_two_chain(6).protocol
    assert np.allclose(
        m_chain_router(2).expected_state.amplitudes,
        router_two_chain(6).expected_state.amplitudes,
    )


def test_m_chain_router_three_chains():
    result = m_chain_router(3)
    state = achieved_states(result)[0]
    assert population(state, 9) == pytest.approx(1.0, abs=1e-9)


def test_m_chain_router_needs_two_chains():
    with pytest.raises(ValueError):
        m_chain_router(1)


def test_mws_transfer_relocates_the_share():
    result = mws_transfer_15()
    state = achieved_states(result)[0]
    for site in (3, 4, 12, 13):
        assert population(state, site) == pytest.approx(0.25, abs=1e-9)


def test_mws_transfer_share_before_flips():
    result = mws_transfer_15()
    g = result.graph()
    t_m = result.network.chains[0].mirror_time
    psi = state_at(g, Protocol(8, [], t_m / 2), t_m / 2)
    for site in (6, 7, 9, 10):
        assert population(psi, site) == pytest.approx(0.25, abs=1e-9)


def test_mws_transfer_keeps_oscillating():
    result = mws_transfer_15()
    g = result.graph()
    t_m = result.network.chains[0].mirror_time
    psi = state_at(g, result.protocol, 2.5 * t_m)
    for site in (6, 7, 9, 10):
        assert population(psi, site) == pytest.approx(0.25, abs=1e-9)


def test_mws_share_from_other_central_site():
    result = mws_transfer_15()
    g = result.graph()
    t_m = result.network.chains[0].mirror_time
    psi = state_at(g, Protocol(5, [], t_m / 2), t_m / 2)
    for site in (3, 4, 6, 7):
        assert population(psi, site) == pytest.approx(0.25, abs=1e-9)


# --- phase sensing -------------------------------------------------------------------

def test_phase_sense_quadrature_populations():
    # run A's readout population is (1 + cos theta) / 2
    spec, _ = two_chain_phase_protocol(12, 0.0)
    g = network_graph(spec)
    t_m = spec.chains[0].mirror_time
    for theta in (0.0, math.pi / 3, math.pi / 2, math.pi, 4.0):
        protocol = Protocol(1, [ScheduleEvent(t_m, 7, theta)], 2 * t_m)
        p1 = population(state_at(g, protocol, 2 * t_m), 1)
        assert p1 == pytest.approx((1 + math.cos(theta)) / 2, abs=1e-10)


def test_phase_sense_exact_on_clean_network():
    for theta in (0.0, 45.0, 90.0, 135.0, 180.0, 271.5, 359.0):
        estimate = phase_probe_estimates(build_protocol("phase-sense", {"n": 12}).graph(), 12,
                                         [theta])[0]
        error = abs(estimate - theta)
        assert min(error, 360.0 - error) < 1e-6


def test_phase_sense_realization_on_given_graph():
    g = network_graph(NetworkSpec([ChainSpec(10), ChainSpec(10)]))
    assert abs(phase_probe_estimates(g, 20, [123.0])[0] - 123.0) < 1e-6


@pytest.mark.parametrize("n_total", [10, 40])
def test_the_probe_size_must_be_the_graph_size(n_total):
    graph = build_protocol("phase-sense", {"n": 20}).graph()
    with pytest.raises(ValueError, match=f"a probe of {n_total} sites on a graph of 20"):
        phase_probe_estimates(graph, n_total, [30.0, 200.0])


def test_probe_over_a_stack_matches_each_device_alone():
    graph = network_graph(NetworkSpec([ChainSpec(10), ChainSpec(10)]))
    devices = [
        sample_disorder(graph, DisorderSpec(kind, 0.1), SeededRng(20230724, stream))
        for kind, stream in (("diagonal", 4), ("off_diagonal", 5), ("off_diagonal", 6))
    ]
    thetas = [15.0 * k for k in range(24)]
    stack = eigh(np.array([device.to_matrix() for device in devices]))
    alone = [phase_probe_estimates(device, 20, thetas) for device in devices]
    # angle-major: one list per angle, one estimate per device
    assert probe_estimates(stack, thetas).tolist() == [list(angle) for angle in zip(*alone)]


# the five devices of the N = 50 bench phase scan (off-diagonal E = 0.10, seed
# 20230724) that read 315 degrees as its antipode: on the unwrap branch cut,
# where a last-bit change of the probe would show
TIE_STREAMS = (2269, 2528, 2548, 2856, 2915)


def per_angle_probe(decomp, n_total, thetas_deg):
    """The probe one angle at a time, each run through propagate; one list of
    device estimates per angle."""
    t_m = ChainSpec(n_total // 2).mirror_time
    start = np.zeros(decomp.eigenvalues.shape, dtype=complex)
    start[..., 0] = 1.0
    halfway = evolve(decomp, start, t_m)

    def populations(angle):
        kicked = propagate(decomp, halfway, t_m, ((t_m, n_total // 2, angle),), 2 * t_m)
        return [float(abs(a) ** 2) for a in kicked[..., 0].reshape(-1)]

    estimates = []
    for theta_deg in thetas_deg:
        theta = math.radians(theta_deg)
        direct, quadrature = populations(theta), populations(theta + math.pi / 2.0)
        per_device = []
        for p_direct, p_quad in zip(direct, quadrature):
            est = math.degrees(math.atan2(1.0 - 2.0 * p_quad, 2.0 * p_direct - 1.0))
            per_device.append(est % 360.0)
        estimates.append(per_device)
    return estimates


def tie_block():
    """The bench's complex decomposition of a block holding the tie devices."""
    graph = build_protocol("phase-sense", {"n": 50}).graph()
    spec = DisorderSpec("off_diagonal", 0.10)
    streams = (2268,) + TIE_STREAMS
    values, onsite = perturb(graph, spec, stream_draws(graph, spec, 20230724, streams))
    return graph, spec, eigh(graph.assemble(values, onsite).astype(complex))


def test_probe_keeps_the_bits_of_one_angle_at_a_time():
    _, _, decomp = tie_block()
    got = probe_estimates(decomp, (135.0, 315.0))
    assert got.tolist() == per_angle_probe(decomp, 50, (135.0, 315.0))
    for estimate in got[1][1:]:  # the ties at 315 degrees really are on the cut
        assert abs(estimate - 135.0) < 1e-9


def test_one_device_probe_keeps_the_bits_of_one_angle_at_a_time():
    graph, spec, _ = tie_block()
    device = sample_disorder(graph, spec, SeededRng(20230724, TIE_STREAMS[0]))
    thetas = (135.0, 315.0) + tuple(15.0 * k for k in range(24))
    expected = per_angle_probe(eigh(device.to_matrix()), 50, thetas)
    assert phase_probe_estimates(device, 50, thetas) == [angle[0] for angle in expected]


def test_probe_estimates_do_not_depend_on_the_chunk_size(monkeypatch):
    _, _, decomp = tie_block()
    thetas = tuple(15.0 * k for k in range(24))
    whole = probe_estimates(decomp, thetas)
    calls = []
    monkeypatch.setattr(dynamics, "evolve",
                        lambda d, psi, t: calls.append(np.shape(psi)) or evolve(d, psi, t))
    monkeypatch.setattr(protocols, "BLOCK_ENTRIES", 7 * 2 * 6 * 50)  # 7 angles a chunk
    assert probe_estimates(decomp, thetas).tolist() == whole.tolist()
    assert calls == [(6, 50)] + [(14, 6, 50)] * 3 + [(6, 6, 50)]


@pytest.mark.parametrize("n", [32, 50])
def test_probe_memory_is_bounded_by_the_chunk(monkeypatch, n):
    calls = []
    monkeypatch.setattr(dynamics, "evolve",
                        lambda d, psi, t: calls.append(np.shape(psi)) or evolve(d, psi, t))
    thetas = [k * 0.1 for k in range(3600)]
    estimates = phase_probe_estimates(build_protocol("phase-sense", {"n": n}).graph(), n, thetas)
    per_chunk = 2 ** 14 // (2 * n)  # angles, of two probes each
    assert len(calls) == 1 + math.ceil(3600 / per_chunk)
    if n == 32:  # a state size dividing 2^14 fills every chunk
        assert len(calls) == 1 + math.ceil(7200 * n / 2 ** 14)
    assert max(math.prod(shape) for shape in calls) <= 2 ** 14
    assert all(abs((est - theta + 180.0) % 360.0 - 180.0) < 1e-6
               for est, theta in zip(estimates, thetas))


ANGLE = st.floats(0.0, 360.0, exclude_max=True)


@given(estimate=ANGLE, reference=ANGLE)
# a sum just below 0 wraps to 360: the offset is +180
@example(estimate=0.0, reference=180.00000000000003)
def test_angle_offset_keeps_the_bits_of_the_branch_rule(estimate, reference):
    # the operations the phase scan's bench reference rows were written with
    offset = (estimate - reference + 180.0) % 360.0 - 180.0
    assert angle_offset(estimate, reference) == offset and abs(offset) <= 180.0
    assert unwrap_to_branch(estimate, reference) == reference + offset


BELOW_360 = math.nextafter(360.0, 0.0)
# any finite angle, and the edges of the rule: 0, just below 360, half turns
ANY_ANGLE = st.one_of(st.floats(-720.0, 720.0), st.sampled_from([0.0, BELOW_360, 180.0, -180.0]))


@given(estimates=st.lists(ANY_ANGLE, min_size=1, max_size=8),
       references=st.lists(ANY_ANGLE, min_size=1, max_size=8))
@example(estimates=[BELOW_360, 0.0], references=[BELOW_360, 0.0])
@example(estimates=[315.0, 135.0, 45.0], references=[135.0, 315.0, 225.0])  # exactly 180 away
@example(estimates=[10.0, 350.0], references=[350.0, 10.0])  # offsets of -20 and +20
def test_the_angle_rule_on_arrays_is_the_scalar_rule(estimates, references):
    """The phase scan unwraps a stack's (angles, devices) estimates against a
    column of references; each element has the bits of the scalar rule."""
    grid = np.array(estimates)[np.newaxis, :]
    column = np.array(references)[:, np.newaxis]
    for rule in (angle_offset, unwrap_to_branch):
        scalars = np.array([[rule(e, r) for e in estimates] for r in references])
        assert rule(grid, column).tobytes() == scalars.tobytes()


# --- dispatch ----------------------------------------------------------------------

def test_build_protocol_dispatch():
    assert build_protocol("router", {"n": 6}).name == "router"
    assert build_protocol("router", {"m": 3}).network.n_sites == 9
    assert build_protocol("mws", {"chain_length": 4}).network.n_sites == 12
    assert build_protocol("w-state", {"chain_length": 3}).name == "w-state"


def test_build_protocol_unknown_name():
    with pytest.raises(ValueError, match="unknown protocol"):
        build_protocol("teleport", {})


@pytest.mark.parametrize("name, params, unused", [
    ("router", {"n": 12, "m": 3}, "'n'"),
    ("mws", {"chain_length": 3, "j_max_b": 0.7}, "'j_max_b'"),
    ("mws", {"chain_length": 4, "with_flips": True}, "'with_flips'"),
    ("max-ent", {"j_max_b": 0.5}, "'j_max_b'"),
])
def test_build_protocol_rejects_unused_parameters(name, params, unused):
    with pytest.raises(ValueError, match=f"does not use parameter {unused}"):
        build_protocol(name, params)


def test_build_protocol_missing_parameter():
    with pytest.raises(ValueError, match="missing parameter"):
        build_protocol("router", {})


# the smallest parameters each protocol builds at
SMALLEST_PARAMS = {
    "router": {"n": 4}, "ent-phase": {"n": 4}, "ent-center": {"n": 4}, "phase-sense": {"n": 4},
    "unequal-router": {"n_a": 2, "n_b": 2}, "unequal-ent": {"n_a": 2, "n_b": 2},
    "w-state": {"chain_length": 3}, "mws": {}, "max-ent": {}, "mws-transfer": {},
}
# a config value of each parameter type
VALUE_OF_TYPE = {int: 4, bool: True, (int, float): 22.5}


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_protocol_table_parses_builds_and_rejects_a_foreign_key(name):
    _, parameters = PROTOCOLS[name]
    data = dict({"name": name}, **{key: VALUE_OF_TYPE[p.types] for key, p in parameters.items()})
    assert parse_protocol(data).params.keys() == parameters.keys()
    assert build_protocol(name, SMALLEST_PARAMS[name]).name == name
    with pytest.raises(ConfigError, match="unknown key 'j_max_b'"):
        parse_protocol({"name": name, "j_max_b": 0.5})
    with pytest.raises(ValueError, match="does not use parameter 'j_max_b'"):
        build_protocol(name, dict(SMALLEST_PARAMS[name], j_max_b=0.5))
