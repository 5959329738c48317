import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spinnet import (
    EnsembleAccumulator,
    PureState,
    concurrence,
    ensemble_average,
    ensemble_eof,
    eof,
    eof_pair,
    fidelity,
    reduce_two_sites,
)
from spinnet.observables import binary_entropy, eof_from_concurrence, fidelities, pair_eofs

from conftest import random_single_excitation_state


def embed_single_excitation(state: PureState) -> np.ndarray:
    """The same state written in the full 2^n computational basis."""
    n = state.n_sites
    full = np.zeros(2 ** n, dtype=complex)
    for site in range(1, n + 1):
        full[1 << (site - 1)] = state.amplitude(site)
    return full


def partial_trace_oracle(state: PureState, i: int, j: int) -> np.ndarray:
    """Reduced state of sites (i, j) by explicit summation over the rest."""
    n = state.n_sites
    full = embed_single_excitation(state)
    rest = [s for s in range(1, n + 1) if s not in (i, j)]
    rho = np.zeros((4, 4), dtype=complex)
    for qi_a, qj_a, qi_b, qj_b in itertools.product((0, 1), repeat=4):
        total = 0.0 + 0.0j
        for bits in itertools.product((0, 1), repeat=len(rest)):
            idx_a = (qi_a << (i - 1)) | (qj_a << (j - 1))
            idx_b = (qi_b << (i - 1)) | (qj_b << (j - 1))
            for site, bit in zip(rest, bits):
                idx_a |= bit << (site - 1)
                idx_b |= bit << (site - 1)
            total += full[idx_a] * np.conj(full[idx_b])
        rho[2 * qi_a + qj_a, 2 * qi_b + qj_b] = total
    return rho


# --- fidelity -----------------------------------------------------------------

def test_fidelity_self_is_one(rng):
    psi = random_single_excitation_state(rng, 9)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_orthogonal_states():
    assert fidelity(PureState.basis(4, 1), PureState.basis(4, 3)) == 0.0


def test_fidelity_half_for_equal_superposition():
    psi = PureState.from_terms(6, {3: 1 / math.sqrt(2), 4: 1 / math.sqrt(2)})
    assert fidelity(psi, PureState.basis(6, 3)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_phase_insensitive(rng):
    psi = random_single_excitation_state(rng, 5)
    rotated = PureState(psi.amplitudes * np.exp(1j * 0.7))
    assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(PureState.basis(3, 1), PureState.basis(4, 1))


# --- reduced two-site states ------------------------------------------------------

def test_reduce_excitation_elsewhere():
    rho = reduce_two_sites(PureState.basis(5, 4), 1, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected)


def test_reduce_excitation_at_first_site():
    rho = reduce_two_sites(PureState.basis(5, 2), 2, 3)
    expected = np.zeros((4, 4))
    expected[2, 2] = 1.0
    assert np.allclose(rho, expected)


def test_reduce_bell_like_pair():
    psi = PureState.from_terms(4, {2: 1 / math.sqrt(2), 4: 1 / math.sqrt(2)})
    rho = reduce_two_sites(psi, 2, 4)
    assert rho[1, 2] == pytest.approx(0.5)
    assert rho[2, 1] == pytest.approx(0.5)
    assert np.trace(rho) == pytest.approx(1.0)


def test_reduce_same_site_rejected():
    with pytest.raises(ValueError):
        reduce_two_sites(PureState.basis(3, 1), 2, 2)


def test_reduce_matches_partial_trace_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(3, 8))
        psi = random_single_excitation_state(rng, n)
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        got = reduce_two_sites(psi, int(i), int(j))
        oracle = partial_trace_oracle(psi, int(i), int(j))
        assert np.allclose(got, oracle, atol=1e-12)


# --- concurrence / EOF --------------------------------------------------------------

def test_concurrence_product_state():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    assert concurrence(rho) == 0.0


def test_concurrence_maximally_entangled():
    psi = PureState.from_terms(2, {1: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)})
    assert concurrence(reduce_two_sites(psi, 1, 2)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_closed_form_on_random_states(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        psi = random_single_excitation_state(rng, n)
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        wootters = concurrence(reduce_two_sites(psi, int(i), int(j)))
        closed_form = 2.0 * abs(psi.amplitude(int(i))) * abs(psi.amplitude(int(j)))
        assert abs(wootters - closed_form) < 1e-9


@st.composite
def single_excitation_pairs(draw):
    """A normalised single-excitation state and two distinct 1-based sites."""
    n = draw(st.integers(2, 10))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    amp = np.array([complex(draw(parts), draw(parts)) for _ in range(n)])
    norm = float(np.linalg.norm(amp))
    assume(norm > 1e-3)
    i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    return PureState(amp / norm), i, j


@settings(max_examples=300, deadline=None)
@given(single_excitation_pairs())
def test_closed_form_concurrence_matches_wootters(case):
    psi, i, j = case
    wootters = concurrence(reduce_two_sites(psi, i, j))
    closed_form = 2.0 * abs(psi.amplitude(i)) * abs(psi.amplitude(j))
    assert abs(wootters - closed_form) <= 1e-12
    assert abs(pair_eofs(psi.amplitudes[None], i, j)[0] - eof_pair(psi, i, j)) <= 1e-12


def test_vectorised_merits_match_the_scalar_ones(rng):
    states = [random_single_excitation_state(rng, 7) for _ in range(5)]
    stack = np.array([s.amplitudes for s in states])
    target = states[0]
    assert np.allclose(fidelities(stack, target), [fidelity(s, target) for s in states],
                       rtol=0, atol=1e-15)
    assert np.allclose(pair_eofs(stack, 2, 6), [eof_pair(s, 2, 6) for s in states],
                       rtol=0, atol=1e-12)
    for bad in ((3, 3), (0, 2), (2, 8)):
        with pytest.raises(ValueError):
            pair_eofs(stack, *bad)


def test_concurrence_rejects_non_density_matrix():
    with pytest.raises(ValueError, match="trace"):
        concurrence(np.eye(4))
    with pytest.raises(ValueError):
        concurrence(np.eye(3) / 3.0)


def test_eof_endpoints():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == pytest.approx(1.0)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)


def test_eof_of_quarter_turn_split_state():
    # amplitudes (1 + i)/2 and (1 - i)/2 both have modulus 1/sqrt(2)
    psi = PureState.from_terms(12, {1: (1 + 1j) / 2, 12: (1 - 1j) / 2})
    assert eof_pair(psi, 1, 12) == pytest.approx(1.0, abs=1e-12)


def test_eof_monotone_in_concurrence():
    grid = np.linspace(0.0, 1.0, 101)
    values = [eof_from_concurrence(c) for c in grid]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_eof_of_mixed_state():
    # an equal mixture of the two one-excitation basis states is separable
    rho = np.zeros((4, 4))
    rho[1, 1] = 0.5
    rho[2, 2] = 0.5
    assert eof(rho) == 0.0


# --- ensemble statistics ---------------------------------------------------------------

def test_ensemble_average_constant():
    mean, std, sem = ensemble_average([0.7, 0.7, 0.7])
    assert mean == pytest.approx(0.7)
    assert std == 0.0
    assert sem == 0.0


def test_ensemble_average_two_values():
    mean, std, sem = ensemble_average([0.0, 1.0])
    assert mean == 0.5
    assert std == pytest.approx(math.sqrt(0.5))
    assert sem == pytest.approx(math.sqrt(0.25))


def test_ensemble_average_single_value():
    mean, std, sem = ensemble_average([0.3])
    assert (mean, std, sem) == (0.3, 0.0, 0.0)


def test_ensemble_average_empty_rejected():
    with pytest.raises(ValueError):
        ensemble_average([])


def test_accumulator_extend_is_order_independent(rng):
    values = list(rng.uniform(0.0, 1.0, size=1000))
    chunks = [values[i::7] for i in range(7)]
    forward = EnsembleAccumulator()
    for chunk in chunks:
        forward.extend(chunk)
    backward = EnsembleAccumulator()
    for chunk in reversed(chunks):
        backward.extend(reversed(chunk))
    assert forward.mean == backward.mean
    assert forward.std == backward.std
    assert forward.count == backward.count == 1000


def test_mean_fidelity_equals_trace_form(rng):
    n = 6
    target = random_single_excitation_state(rng, n)
    states = [random_single_excitation_state(rng, n) for _ in range(40)]
    mean_fid = ensemble_average([fidelity(s, target) for s in states])[0]
    rho_bar = np.mean(
        [np.outer(s.amplitudes, s.amplitudes.conj()) for s in states], axis=0
    )
    trace_form = float(
        np.real(target.amplitudes.conj() @ rho_bar @ target.amplitudes)
    )
    assert abs(mean_fid - trace_form) < 1e-12


def test_eof_conventions_differ():
    plus = PureState.from_terms(2, {1: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)})
    minus = PureState.from_terms(2, {1: 1 / math.sqrt(2), 2: -1 / math.sqrt(2)})
    per_realization = ensemble_eof([plus, minus], 1, 2)
    mean_state = ensemble_eof([plus, minus], 1, 2, convention="mean_state")
    assert per_realization == pytest.approx(1.0, abs=1e-12)
    assert mean_state == pytest.approx(0.0, abs=1e-12)


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        ensemble_eof([PureState.basis(2, 1)], 1, 2, convention="bogus")
