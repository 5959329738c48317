"""Acceptance suite.

Exact checks pin every analytic protocol state (global phase included) at
1e-9; Monte-Carlo checks reproduce the disorder-robustness levels with
K = 1000 realizations and a +/- 1.5 percentage-point tolerance for sampling
noise. Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion.
"""

import math

import numpy as np
import pytest

import spinnet as sn
from spinnet import (
    ChainSpec,
    DisorderSpec,
    NetworkSpec,
    PureState,
    SeededRng,
    eigh,
    eof_pair,
    fidelity,
    join_unitary,
    network_graph,
    sample_disorder,
)
from spinnet.dynamics import Protocol, phase_kick, replace_samples, run_schedule, state_at
from spinnet.observables import ensemble_average
from spinnet.protocols import gamma_factor, phi_factor
from spinnet.sweep import ensemble_merit, phase_scan_setting, run_cells, sweep_cells
from spinnet.config import SweepConfig

from conftest import random_single_excitation_state

K = 1000            # realizations per Monte-Carlo cell
MC_TOL = 0.015      # +/- 1.5 percentage points of sampling tolerance
EXACT = 1e-9
SEED = 20240
SIZES = (4, 6, 8, 10, 12)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def reached(result, checkpoint_index=None):
    """Worst |<expected|achieved> - 1| over the protocol's checkpoints."""
    times = [t for t, _ in result.checkpoints]
    states = run_schedule(result.graph(), replace_samples(result.protocol, times)).states
    pairs = zip(result.checkpoints, states)
    if checkpoint_index is not None:
        pairs = [(result.checkpoints[checkpoint_index], states[checkpoint_index])]
    return max(abs(exp.overlap(got) - 1.0) for (_, exp), got in pairs)


def mc_mean(result, kind, e, stream_base=0, merit=None):
    spec = DisorderSpec(kind, e)
    acc = ensemble_merit(result, spec, K, SEED, stream_base=stream_base, merit=merit)
    return acc.mean


def test_criterion_01_router_and_halfway_states():
    worst = 0.0
    for n in SIZES:
        worst = max(worst, reached(sn.router_two_chain(n)))
        spec = NetworkSpec([ChainSpec(n // 2)] * 2)
        g = network_graph(spec)
        t_m = spec.chains[0].mirror_time
        psi = state_at(g, Protocol(1, [], t_m), t_m)
        expected = PureState.from_terms(
            n, {n // 2: phi_factor(n) / math.sqrt(2), n // 2 + 1: phi_factor(n) / math.sqrt(2)}
        )
        worst = max(worst, abs(expected.overlap(psi) - 1.0))
    report(1, worst < EXACT,
           f"two-chain routing and halfway superposition, N in {SIZES}: worst defect {worst:.2e}")


def test_criterion_02_entanglement_protocols():
    worst_eof = 1.0
    worst_defect = 0.0
    for n in SIZES:
        phase = sn.entangle_phase_two_chain(n)
        state = state_at(phase.graph(), phase.protocol, phase.merit.time)
        worst_eof = min(worst_eof, eof_pair(state, 1, n))
        center = sn.entangle_center_two_chain(n)
        states = run_schedule(
            center.graph(),
            replace_samples(center.protocol, [t for t, _ in center.checkpoints]),
        ).states
        worst_eof = min(worst_eof, eof_pair(states[0], 1, n))
        worst_defect = max(
            worst_defect, 1.0 - fidelity(states[1], PureState.basis(n, n // 2))
        )
    ok = worst_eof > 1.0 - EXACT and worst_defect < EXACT
    report(2, ok, f"end-to-end EOF = 1 (worst {worst_eof:.12f}) and central revival "
                  f"(worst fidelity defect {worst_defect:.2e})")


def test_criterion_03_unequal_chains():
    defect_router = reached(sn.unequal_router(3, 4))
    defect_ent = reached(sn.unequal_entangle(3, 4))

    spec = NetworkSpec([ChainSpec(3), ChainSpec(4)])
    t_a = spec.chains[0].mirror_time
    g = network_graph(spec)
    psi = state_at(
        g, Protocol(1, [phase_kick(4, math.pi / 2, t_a)], 2 * t_a), 2 * t_a
    )
    reference = {
        1: (1 + 1j) / 2, 3: -0.031 + 0.031j, 4: 0.031 - 0.031j,
        5: 0.15 + 0.15j, 6: 0.31 - 0.31j, 7: -0.36 - 0.36j,
    }
    coeff_err = max(
        max(abs(psi.amplitude(s).real - v.real), abs(psi.amplitude(s).imag - v.imag))
        for s, v in reference.items()
    )
    ok = defect_router < EXACT and defect_ent < EXACT and coeff_err < 5e-3
    report(3, ok, f"3+4 network: router defect {defect_router:.2e}, retuned pair-state "
                  f"defect {defect_ent:.2e}, unretuned coefficients off by {coeff_err:.4f}")


def test_criterion_04_nine_site_network():
    s = 1 / math.sqrt(2)
    u_expected = np.eye(9)
    u_expected[2:4, 2:4] = [[s, s], [s, -s]]
    u_expected[5:7, 5:7] = [[s, s], [s, -s]]
    u_ok = np.array_equal(join_unitary(NetworkSpec([ChainSpec(3)] * 3)), u_expected)

    w = sn.w_state(3)
    w_state_at_target = state_at(w.graph(), w.protocol, w.merit.time)
    pop_err_w = max(
        abs(w_state_at_target.population(site) - 1 / 3) for site in (1, 6, 7)
    )

    mws = sn.mws_9()
    share = state_at(mws.graph(), mws.protocol, mws.merit.time)
    pop_err_mws = max(abs(share.population(site) - 0.25) for site in (3, 4, 6, 7))

    defect_pair = reached(sn.mws_9(with_flips=True))
    ok = u_ok and pop_err_w < EXACT and pop_err_mws < EXACT and defect_pair < EXACT
    report(4, ok, f"9-site: block unitary exact = {u_ok}, W populations off by "
                  f"{pop_err_w:.2e}, four-site share off by {pop_err_mws:.2e}, "
                  f"end-pair defect {defect_pair:.2e}")


def test_criterion_05_twelve_site_half_speed_middle():
    defect_seq = reached(sn.mws_12())
    defect_pair = reached(sn.max_entangle_12())

    spec = NetworkSpec([ChainSpec(4)] * 3)
    t_m = spec.chains[0].mirror_time
    psi = state_at(network_graph(spec), Protocol(5, [], 2 * t_m), 2 * t_m)
    defect_equal = abs(PureState.from_terms(12, {5: -1.0}).overlap(psi) - 1.0)

    ok = defect_seq < EXACT and defect_pair < EXACT and defect_equal < EXACT
    report(5, ok, f"12-site: four-state sequence defect {defect_seq:.2e}, end-pair "
                  f"defect {defect_pair:.2e}, equal-speed variant defect {defect_equal:.2e}")


def test_criterion_06_fifteen_site_network():
    defect_router = reached(sn.m_chain_router(5))
    transfer = sn.mws_transfer_15()
    state = state_at(transfer.graph(), transfer.protocol, transfer.merit.time)
    pop_err = max(abs(state.population(site) - 0.25) for site in (3, 4, 12, 13))
    ok = defect_router < EXACT and pop_err < EXACT
    report(6, ok, f"15-site: hop-by-hop routing defect {defect_router:.2e}, "
                  f"relocated share off by {pop_err:.2e}")


def test_criterion_07_spectrum_preservation():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        n_chains = int(rng.integers(2, 6))
        spec = NetworkSpec(
            [ChainSpec(int(rng.integers(2, 9))) for _ in range(n_chains)]
        )
        joined = eigh(sn.hadamard_join(spec).to_matrix()).eigenvalues
        parts = np.sort(np.concatenate(
            [eigh(sn.chain_graph(c).to_matrix()).eigenvalues for c in spec.chains]
        ))
        worst = max(worst, float(np.max(np.abs(joined - parts))))
    report(7, worst < EXACT, f"50 random fusions preserve the spectrum (worst {worst:.2e})")


def test_criterion_08_concurrence_closed_form():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        psi = random_single_excitation_state(rng, n)
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        wootters = sn.concurrence(sn.reduce_two_sites(psi, int(i), int(j)))
        closed = 2.0 * abs(psi.amplitude(int(i))) * abs(psi.amplitude(int(j)))
        worst = max(worst, abs(wootters - closed))
    report(8, worst < EXACT, f"Wootters pipeline vs closed form on 1000 states "
                             f"(worst {worst:.2e})")


def test_criterion_09_router_diagonal_robustness():
    m1 = mc_mean(sn.router_two_chain(100), "diagonal", 0.05)
    m2 = mc_mean(sn.router_two_chain(100), "diagonal", 0.10, stream_base=K)
    ok = m1 > 0.98 - MC_TOL and m2 > 0.92 - MC_TOL
    report(9, ok, f"router N=100 diagonal: E=0.05 -> {m1:.4f} (>0.98), "
                  f"E=0.10 -> {m2:.4f} (>0.92)")


def test_criterion_10_router_off_diagonal_robustness():
    m = mc_mean(sn.router_two_chain(40), "off_diagonal", 0.10)
    report(10, m > 0.90 - MC_TOL, f"router N=40 off-diagonal E=0.10 -> {m:.4f} (>0.90)")


def test_criterion_11_entanglement_robustness():
    m1 = mc_mean(sn.entangle_phase_two_chain(100), "diagonal", 0.05)
    m2 = mc_mean(sn.entangle_phase_two_chain(50), "diagonal", 0.10, stream_base=K)
    m3 = mc_mean(sn.entangle_phase_two_chain(20), "off_diagonal", 0.10, stream_base=2 * K)
    ok = m1 > 0.96 - MC_TOL and m2 > 0.94 - MC_TOL and m3 > 0.92 - MC_TOL
    report(11, ok, f"end-to-end EOF: N=100 diag E=0.05 -> {m1:.4f} (>0.96), "
                   f"N=50 diag E=0.10 -> {m2:.4f} (>0.94), "
                   f"N=20 off-diag E=0.10 -> {m3:.4f} (~>0.92)")


def test_criterion_12_center_injection_is_more_robust():
    center = sn.entangle_center_two_chain(12)
    phase = sn.entangle_phase_two_chain(12)
    gaps = []
    for idx, e in enumerate((0.125, 0.15, 0.20, 0.25)):
        m_center = mc_mean(center, "off_diagonal", e, stream_base=2 * idx * K)
        m_phase = mc_mean(phase, "off_diagonal", e, stream_base=(2 * idx + 1) * K)
        gaps.append(m_center - m_phase)
    ok = all(g > 0 for g in gaps)
    report(12, ok, "central injection beats the kicked protocol for E > 0.10 "
                   f"(EOF gaps {['%.3f' % g for g in gaps]})")


def test_criterion_13_unequal_pair_state_robustness():
    result = sn.unequal_entangle(3, 4)
    m_diag = mc_mean(result, "diagonal", 0.20)
    m_off_05 = mc_mean(result, "off_diagonal", 0.05, stream_base=K)
    m_off_10 = mc_mean(result, "off_diagonal", 0.10, stream_base=2 * K)
    ok = abs(m_diag - 0.995) < MC_TOL and m_off_05 > 0.97 - MC_TOL and m_off_10 > 0.97 - MC_TOL
    report(13, ok, f"3+4 pair state: diag E=0.20 -> {m_diag:.4f} (~0.995), "
                   f"off-diag E=0.05 -> {m_off_05:.4f}, E=0.10 -> {m_off_10:.4f} (>0.97)")


def test_criterion_14_nine_site_robustness():
    w = sn.w_state(3)
    w_diag_25 = mc_mean(w, "diagonal", 0.25)
    w_diag_05 = mc_mean(w, "diagonal", 0.05, stream_base=K)
    w_off_20 = mc_mean(w, "off_diagonal", 0.20, stream_base=2 * K)
    pair = sn.mws_9(with_flips=True)
    p_diag_15 = mc_mean(pair, "diagonal", 0.15, stream_base=3 * K)
    p_off_10 = mc_mean(pair, "off_diagonal", 0.10, stream_base=4 * K)
    ok = (w_diag_25 >= 0.97 - MC_TOL and w_diag_05 >= 0.985 - MC_TOL
          and w_off_20 >= 0.95 - MC_TOL and p_diag_15 >= 0.99 - MC_TOL
          and p_off_10 >= 0.98 - MC_TOL)
    report(14, ok, f"9-site: W diag E=0.25 -> {w_diag_25:.4f} (>=0.97), "
                   f"E=0.05 -> {w_diag_05:.4f} (>=0.985), off-diag E=0.20 -> "
                   f"{w_off_20:.4f} (>=0.95); end-pair EOF diag E=0.15 -> "
                   f"{p_diag_15:.4f} (>=0.99), off-diag E=0.10 -> {p_off_10:.4f} (>=0.98)")


def test_criterion_15_larger_network_robustness():
    w12 = sn.w_state(4)
    m_diag = mc_mean(w12, "diagonal", 0.15)
    m_off = mc_mean(w12, "off_diagonal", 0.10, stream_base=K)
    transfer = sn.mws_transfer_15()
    m_t = mc_mean(transfer, "diagonal", 0.10, stream_base=2 * K)
    ok = m_diag > 0.99 - MC_TOL and m_off > 0.98 - MC_TOL and m_t > 0.99 - MC_TOL
    report(15, ok, f"12-site W: diag E=0.15 -> {m_diag:.4f} (~>0.99), off-diag "
                   f"E=0.10 -> {m_off:.4f} (~>0.98); 15-site share transfer diag "
                   f"E=0.10 -> {m_t:.4f} (>0.99)")


def test_criterion_16_phase_scan():
    thetas = tuple(float(t) for t in np.arange(0.0, 360.0, 15.0))
    clean_err = max(
        min(abs(sn.phase_sense_estimate(20, t) - t),
            360.0 - abs(sn.phase_sense_estimate(20, t) - t))
        for t in thetas
    )

    def rms_deviation(n, kind, e, base):
        stats = phase_scan_setting(n, thetas, DisorderSpec(kind, e), K, SEED, base)
        devs = [((mean - t + 180.0) % 360.0) - 180.0 for (mean, _, _), t in zip(stats, thetas)]
        return math.sqrt(sum(d * d for d in devs) / len(devs))

    rms20 = rms_deviation(20, "diagonal", 0.05, 0)
    rms50 = rms_deviation(50, "diagonal", 0.05, K)
    rms20_off = rms_deviation(20, "off_diagonal", 0.10, 2 * K)  # reported only
    ok = clean_err < 1e-6 and rms20 < 2.0 and rms50 < 2.0
    report(16, ok, f"phase scan: clean error {clean_err:.2e} deg; diagonal E=0.05 "
                   f"RMS N=20 {rms20:.3f} deg, N=50 {rms50:.3f} deg (<2); "
                   f"off-diagonal E=0.10 N=20 RMS {rms20_off:.2f} deg (qualitative)")


def test_criterion_17_property_suites():
    rng = np.random.default_rng(SEED + 2)
    # norm conservation on random kicked schedules
    norm_ok = True
    for _ in range(10):
        spec = NetworkSpec([ChainSpec(int(rng.integers(2, 7))) for _ in range(2)])
        g = network_graph(spec)
        duration = float(rng.uniform(1.0, 20.0))
        start = int(rng.integers(1, g.n_sites + 1))
        events = []
        for t in sorted(rng.uniform(0.0, duration, size=3)):
            events.append(phase_kick(int(rng.integers(1, g.n_sites + 1)),
                                     float(rng.uniform(0, 2 * math.pi)), float(t)))
        traj = run_schedule(g, Protocol(start, events, duration,
                                        tuple(rng.uniform(0, duration, 5))))
        norm_ok &= all(
            abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-10 for s in traj.states
        )

    # parallel determinism: same cells, different worker counts
    sweep = SweepConfig(sizes=(4, 6), axis="n", e_values=(0.0, 0.2),
                        kinds=("diagonal",), realizations=16)
    cells = sweep_cells("router", {}, sweep, SEED)
    serial = run_cells(cells, workers=1)
    parallel = run_cells(cells, workers=3)
    parallel_ok = serial == parallel

    # seed replay: identical stream addresses give identical ensembles
    result = sn.router_two_chain(8)
    a = ensemble_merit(result, DisorderSpec("off_diagonal", 0.1), 32, SEED, stream_base=5)
    b = ensemble_merit(result, DisorderSpec("off_diagonal", 0.1), 32, SEED, stream_base=5)
    replay_ok = a.values == b.values

    # ensemble identity: mean of pure-state fidelities equals the trace form
    target = random_single_excitation_state(rng, 8)
    states = [random_single_excitation_state(rng, 8) for _ in range(64)]
    mean_fid = ensemble_average([fidelity(s, target) for s in states])[0]
    rho_bar = np.mean([np.outer(s.amplitudes, s.amplitudes.conj()) for s in states], axis=0)
    trace_form = float(np.real(target.amplitudes.conj() @ rho_bar @ target.amplitudes))
    identity_ok = abs(mean_fid - trace_form) < 1e-12

    ok = norm_ok and parallel_ok and replay_ok and identity_ok
    report(17, ok, f"norm conservation {norm_ok}, parallel determinism {parallel_ok}, "
                   f"seed replay {replay_ok}, ensemble identity {identity_ok}")
