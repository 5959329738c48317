import io
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spinnet import (
    ChainSpec,
    DisorderSpec,
    InvariantViolation,
    NetworkSpec,
    Protocol,
    PureState,
    SeededRng,
    chain_graph,
    evolve,
    eigh,
    mirror_time,
    network_graph,
    phase_kick,
    run_schedule,
    sample_disorder,
    state_at,
)
from spinnet.dynamics import propagate, replace_samples, uniform_samples
from spinnet.protocols import phase_probe_estimates

from conftest import random_single_excitation_state


# --- states ------------------------------------------------------------------

def test_basis_state():
    psi = PureState.basis(4, 3)
    assert psi.amplitude(3) == 1.0
    assert psi.population(3) == 1.0
    assert psi.population(1) == 0.0


def test_norm_enforced():
    with pytest.raises(InvariantViolation):
        PureState(np.array([1.0, 1.0]))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        PureState(np.array([np.nan, 0.0]))


def test_site_range_checked():
    psi = PureState.basis(3, 1)
    with pytest.raises(ValueError):
        psi.amplitude(0)
    with pytest.raises(ValueError):
        psi.amplitude(4)
    with pytest.raises(ValueError):
        PureState.basis(3, 5)


# --- phase kicks ----------------------------------------------------------------

def _kick(psi: PureState, index: int, angle: float) -> np.ndarray:
    """One kick through the propagation kernel, with no evolution around it."""
    decomp = eigh(chain_graph(ChainSpec(psi.n_sites)).to_matrix())
    return propagate(decomp, psi.amplitudes, 1.0, [(1.0, index, angle)], 1.0)


def test_kick_zero_is_identity(rng):
    psi = random_single_excitation_state(rng, 6)
    out = _kick(psi, 2, 0.0)
    assert np.array_equal(out, psi.amplitudes)


def test_kick_pi_flips_sign():
    psi = PureState.basis(5, 2)
    out = _kick(psi, 1, math.pi)
    assert abs(out[1] + 1.0) < 1e-15


def test_kick_only_touches_one_site(rng):
    psi = random_single_excitation_state(rng, 8)
    before = np.array(psi.amplitudes)
    out = _kick(psi, 4, 1.2345)
    expected = psi.amplitude(5) * np.exp(1j * 1.2345)
    assert abs(out[4] - expected) < 1e-15
    for index in range(8):
        if index != 4:
            assert out[index] == psi.amplitudes[index]
    assert abs(np.linalg.norm(out) - np.linalg.norm(psi.amplitudes)) < 1e-15
    assert np.array_equal(psi.amplitudes, before)  # the input is left alone


# --- schedule validation --------------------------------------------------------

def test_events_must_be_sorted():
    with pytest.raises(ValueError, match="sorted"):
        Protocol(1, [phase_kick(2, 1.0, 0.8), phase_kick(2, 1.0, 0.3)], 1.0)


def test_event_beyond_duration_rejected():
    with pytest.raises(ValueError):
        Protocol(1, [phase_kick(2, 1.0, 2.0)], 1.0)


def test_negative_event_time_rejected():
    with pytest.raises(ValueError):
        phase_kick(1, 1.0, -0.5)


def test_event_site_out_of_range():
    g = chain_graph(ChainSpec(3))
    with pytest.raises(ValueError, match="site"):
        run_schedule(g, Protocol(7, [], 1.0))
    with pytest.raises(ValueError, match="site"):
        run_schedule(g, Protocol(1, [phase_kick(4, 1.0, 0.5)], 1.0))


# --- evolution ------------------------------------------------------------------

def test_bare_chain_pst_against_expm_oracle():
    n = 7
    g = chain_graph(ChainSpec(n))
    t_m = mirror_time(n)
    traj = run_schedule(g, Protocol(1, [], t_m, (t_m,)))
    state = traj.states[0]
    oracle = scipy.linalg.expm(-1j * g.to_matrix() * t_m)[:, 0]
    assert np.allclose(state.amplitudes, oracle, atol=1e-11)
    assert abs(state.population(n) - 1.0) < 1e-10


def test_two_chain_halfway_superposition():
    # twelve sites: equal split over the junction pair with phase (-i)^5
    n = 12
    g = network_graph(NetworkSpec([ChainSpec(6), ChainSpec(6)]))
    t_m = mirror_time(6)
    psi = state_at(g, Protocol(1, [], t_m), t_m)
    a6, a7 = psi.amplitude(6), psi.amplitude(7)
    assert abs(abs(a6) ** 2 - 0.5) < 1e-12
    assert abs(abs(a7) ** 2 - 0.5) < 1e-12
    assert abs(a6 - a7) < 1e-12  # zero relative phase
    assert abs(a6 - (-1j) ** 5 / math.sqrt(2)) < 1e-12


def test_event_applies_before_recording():
    n = 8
    g = network_graph(NetworkSpec([ChainSpec(4), ChainSpec(4)]))
    t_m = mirror_time(4)
    bare = state_at(g, Protocol(1, [], t_m), t_m)
    kicked = state_at(
        g, Protocol(1, [phase_kick(5, math.pi, t_m)], t_m), t_m
    )
    assert abs(kicked.amplitude(5) + bare.amplitude(5)) < 1e-12
    assert abs(kicked.amplitude(4) - bare.amplitude(4)) < 1e-12


def test_norm_conserved_on_random_schedules(rng):
    for _ in range(20):
        n_chains = int(rng.integers(1, 4))
        spec = NetworkSpec([ChainSpec(int(rng.integers(2, 7))) for _ in range(n_chains)])
        g = network_graph(spec)
        duration = float(rng.uniform(1.0, 30.0))
        start = int(rng.integers(1, g.n_sites + 1))
        events = []
        for t in sorted(rng.uniform(0.0, duration, size=rng.integers(0, 5))):
            events.append(
                phase_kick(int(rng.integers(1, g.n_sites + 1)), float(rng.uniform(0, 2 * math.pi)), float(t))
            )
        samples = sorted(float(t) for t in rng.uniform(0.0, duration, size=7))
        traj = run_schedule(g, Protocol(start, events, duration, samples))
        for state in traj.states:
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_two_chain_periodicity(rng):
    for n in (4, 6, 10):
        g = network_graph(NetworkSpec([ChainSpec(n // 2), ChainSpec(n // 2)]))
        t_m = mirror_time(n // 2)
        psi = state_at(g, Protocol(1, [], 2 * t_m), 2 * t_m)
        assert abs(psi.population(1) - 1.0) < 1e-9


def test_time_reversal(rng):
    for _ in range(10):
        spec = NetworkSpec([ChainSpec(int(rng.integers(2, 6))) for _ in range(2)])
        g = network_graph(spec)
        t = float(rng.uniform(0.5, 20.0))
        start = int(rng.integers(1, g.n_sites + 1))
        forward = state_at(g, Protocol(start, [], t), t)
        back = evolve(eigh(g.to_matrix()), forward.amplitudes, -t)
        expected = np.zeros(g.n_sites, dtype=complex)
        expected[start - 1] = 1.0
        assert np.allclose(back, expected, atol=1e-9)


# --- propagation kernel ------------------------------------------------------------

def test_kernel_keeps_the_straight_line_arithmetic():
    # one off-diagonal E = 0.10 device of the N = 50 phase scan (stream 2269 sits
    # on the estimator's branch cut, so a last-bit change would show here)
    n, t_m = 50, mirror_time(25)
    graph = sample_disorder(
        network_graph(NetworkSpec([ChainSpec(25), ChainSpec(25)])),
        DisorderSpec("off_diagonal", 0.10),
        SeededRng(20230724, 2269),
    )
    decomp = eigh(graph.to_matrix())
    start = np.zeros(n, dtype=complex)
    start[0] = 1.0
    halfway = evolve(decomp, start, t_m)

    def reference(angle):
        kicked = halfway.copy()
        kicked[n // 2] *= complex(math.cos(angle), math.sin(angle))
        return evolve(decomp, kicked, t_m)

    thetas = [15.0 * k for k in range(24)]
    expected = []
    for theta_deg in thetas:
        p_direct = float(abs(reference(math.radians(theta_deg))[0]) ** 2)
        p_quadrature = float(abs(reference(math.radians(theta_deg) + math.pi / 2.0)[0]) ** 2)
        est = math.degrees(math.atan2(1.0 - 2.0 * p_quadrature, 2.0 * p_direct - 1.0))
        expected.append(est % 360.0)
    assert phase_probe_estimates(graph, n, thetas) == expected

    for angle in (0.0, math.pi / 2.0, math.pi, math.radians(315.0)):
        protocol = Protocol(1, [phase_kick(n // 2 + 1, angle, t_m)], 2 * t_m, (2 * t_m,))
        state = run_schedule(graph, protocol).states[0]
        assert np.array_equal(state.amplitudes, reference(angle))


def test_kernel_over_a_stack_matches_each_state_alone():
    # a state's bits must not depend on the stack it is propagated in
    graph = network_graph(NetworkSpec([ChainSpec(4), ChainSpec(4), ChainSpec(3)]))
    h = graph.to_matrix().real
    stack = np.array([h + np.diag(np.full(graph.n_sites, 0.01 * k)) for k in range(9)])
    start = np.zeros((9, graph.n_sites), dtype=complex)
    start[:, 0] = 1.0
    kicks = [(0.7, 4, math.pi / 3), (0.7, 8, 1.1), (2.0, 4, -0.4)]
    together = propagate(eigh(stack), start, 0.0, kicks, 3.1)
    for k in range(9):
        alone = propagate(eigh(stack[k:k + 1]), start[k:k + 1], 0.0, kicks, 3.1)
        assert np.array_equal(alone[0], together[k])
        single = propagate(eigh(stack[k]), start[k], 0.0, kicks, 3.1)
        assert np.array_equal(single, together[k])


@st.composite
def kicked_runs(draw):
    """A small fused network, a start site and a time-sorted kick list."""
    lengths = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    graph = network_graph(NetworkSpec([ChainSpec(n) for n in lengths]))
    t_end = draw(st.floats(0.0, 25.0))
    kicks = draw(st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            st.integers(0, graph.n_sites - 1),
            st.floats(-2 * math.pi, 2 * math.pi),
        ),
        max_size=6,
    ))
    kicks = sorted((fraction * t_end, site, angle) for fraction, site, angle in kicks)
    start = np.zeros(graph.n_sites, dtype=complex)
    start[draw(st.integers(0, graph.n_sites - 1))] = 1.0
    return eigh(graph.to_matrix()), start, kicks, t_end


KERNEL_SETTINGS = settings(max_examples=60, deadline=None)


@KERNEL_SETTINGS
@given(kicked_runs())
def test_kernel_conserves_norm(run):
    decomp, start, kicks, t_end = run
    out = propagate(decomp, start, 0.0, kicks, t_end)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


@KERNEL_SETTINGS
@given(kicked_runs())
def test_kernel_runs_back_to_the_start(run):
    decomp, start, kicks, t_end = run
    amp = propagate(decomp, start, 0.0, kicks, t_end)
    t_now = t_end
    for t_kick, site, angle in reversed(kicks):
        amp = evolve(decomp, amp, t_kick - t_now)
        amp = propagate(decomp, amp, t_kick, [(t_kick, site, -angle)], t_kick)
        t_now = t_kick
    amp = evolve(decomp, amp, -t_now)
    assert np.allclose(amp, start, atol=1e-9)


@KERNEL_SETTINGS
@given(kicked_runs(), st.integers(0, 6))
def test_kernel_split_at_a_kick_matches_one_call(run, split):
    decomp, start, kicks, t_end = run
    split = min(split, len(kicks))
    t_split = kicks[split][0] if split < len(kicks) else t_end
    first = propagate(decomp, start, 0.0, kicks[:split], t_split)
    both = propagate(decomp, first, t_split, kicks[split:], t_end)
    assert np.array_equal(both, propagate(decomp, start, 0.0, kicks, t_end))


# --- trajectories -----------------------------------------------------------------

def test_trajectory_rows_and_header():
    g = chain_graph(ChainSpec(3))
    protocol = Protocol(1, [], 2.0, uniform_samples(2.0, 5))
    traj = run_schedule(g, protocol)
    assert traj.populations().shape == (5, 3)
    assert np.allclose(traj.populations().sum(axis=1), 1.0, atol=1e-10)

    buffer = io.StringIO()
    traj.write_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "t,site_1,site_2,site_3"
    assert len(lines) == 6

    buffer = io.StringIO()
    traj.write_csv(buffer, amplitudes=True)
    assert buffer.getvalue().splitlines()[0] == "t,re_1,im_1,re_2,im_2,re_3,im_3"


def test_unsorted_sample_times_are_returned_in_given_order():
    g = chain_graph(ChainSpec(2))
    protocol = Protocol(1, [], 2.0, (1.5, 0.5))
    traj = run_schedule(g, protocol)
    assert traj.times[0] == 1.5 and traj.times[1] == 0.5
    direct = state_at(g, Protocol(1, [], 2.0), 1.5)
    assert np.allclose(traj.states[0].amplitudes, direct.amplitudes, atol=1e-12)


def test_state_at_matches_expm(rng):
    g = network_graph(NetworkSpec([ChainSpec(3), ChainSpec(4)]))
    t = 2.341
    psi = state_at(g, Protocol(2, [], t), t)
    oracle = scipy.linalg.expm(-1j * g.to_matrix() * t)[:, 1]
    assert np.allclose(psi.amplitudes, oracle, atol=1e-11)


def test_replace_samples_extends_duration():
    protocol = Protocol(1, [], 1.0)
    extended = replace_samples(protocol, (5.0,))
    assert extended.duration == 5.0
