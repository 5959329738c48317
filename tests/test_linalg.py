import math
import re

import numpy as np
import pytest
import scipy.linalg

from spinnet.linalg import InvariantViolation, eigh, evolve
from spinnet.network import ChainSpec, chain_graph, mirror_time

from conftest import random_hermitian


def tridiagonal_eigenvalues_by_bisection(diag, off):
    """Roots of the characteristic polynomial of a symmetric tridiagonal
    matrix, found by bisection on sign changes of the Sturm recurrence."""
    n = len(diag)

    def charpoly(lam):
        p_prev, p = 1.0, diag[0] - lam
        for k in range(1, n):
            p_prev, p = p, (diag[k] - lam) * p - off[k - 1] ** 2 * p_prev
        return p

    bound = max(abs(d) for d in diag) + 2 * max((abs(e) for e in off), default=0.0) + 1.0
    grid = np.linspace(-bound, bound, 20001)
    values = [charpoly(x) for x in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            lo, hi = a, b
            for _ in range(80):
                mid = (lo + hi) / 2
                if charpoly(lo) * charpoly(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append((lo + hi) / 2)
    return sorted(roots)


def test_flip_matrix_eigenvalues():
    decomp = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0])


def test_diagonal_matrix_eigenvectors_are_identity_columns():
    decomp = eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(decomp.eigenvalues, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(decomp.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_three_site_chain_against_bisection_oracle():
    h = chain_graph(ChainSpec(3)).to_matrix()
    decomp = eigh(h)
    oracle = tridiagonal_eigenvalues_by_bisection(
        [0.0, 0.0, 0.0], [h[0, 1].real, h[1, 2].real]
    )
    assert np.allclose(decomp.eigenvalues, oracle, atol=1e-9)
    assert np.allclose(decomp.eigenvalues, -decomp.eigenvalues[::-1], atol=1e-12)


def test_non_hermitian_rejected_with_diagnostic():
    bad = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(InvariantViolation, match="asymmetry"):
        eigh(bad)


@pytest.mark.parametrize("h, entry, bad", [
    ([[np.nan, 1.0], [1.0, 0.0]], "(0, 0)", "nan"),  # passed the gate, as nan > atol is False
    ([[0.0, np.inf], [np.inf, 0.0]], "(0, 1)", "inf"),  # symmetric: inf - inf is nan
    ([[0.0, 1.0], [-np.inf, 0.0]], "(1, 0)", "-inf"),
    ([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, np.nan + 0j]]], "(1, 1, 1)", r"\(nan\+0j\)"),
])
def test_a_non_finite_entry_is_rejected_and_named(h, entry, bad):
    with pytest.raises(InvariantViolation, match=rf"entry {re.escape(entry)} is {bad}, not finite"):
        eigh(np.array(h))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_eigh_returns_read_only_c_ordered_arrays(rng, kind):
    h = random_symmetric_stack(rng, 3, 6) if kind == "real" else random_hermitian(rng, 6)
    decomp = eigh(h)
    for array in (decomp.eigenvalues, decomp.eigenvectors):
        assert array.flags.c_contiguous and not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_non_square_rejected():
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))


def test_evolve_time_zero_is_identity(rng):
    h = random_hermitian(rng, 6)
    decomp = eigh(h)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    assert np.allclose(evolve(decomp, psi, 0.0), psi, atol=1e-14)


def test_two_site_quarter_period():
    decomp = eigh(chain_graph(ChainSpec(2)).to_matrix())
    psi = evolve(decomp, np.array([1.0, 0.0]), math.pi / 2)
    assert np.allclose(psi, [0.0, -1.0j], atol=1e-12)


def test_three_site_mirror_against_expm_oracle():
    h = chain_graph(ChainSpec(3)).to_matrix()
    t_m = mirror_time(3)
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    expected = scipy.linalg.expm(-1j * h * t_m) @ psi0
    got = evolve(eigh(h), psi0, t_m)
    assert np.allclose(got, expected, atol=1e-12)
    assert np.allclose(got, [0.0, 0.0, -1.0], atol=1e-12)


def test_evolve_dimension_mismatch_rejected(rng):
    decomp = eigh(random_hermitian(rng, 4))
    with pytest.raises(ValueError):
        evolve(decomp, np.zeros(5), 1.0)


def test_unitarity_on_random_matrices(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        decomp = eigh(random_hermitian(rng, n))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        t = float(rng.uniform(0.0, 100.0))
        assert abs(np.linalg.norm(evolve(decomp, psi, t)) - 1.0) < 1e-10


def test_composition(rng):
    for _ in range(50):
        n = int(rng.integers(2, 17))
        decomp = eigh(random_hermitian(rng, n))
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        t1, t2 = rng.uniform(-10.0, 10.0, size=2)
        two_steps = evolve(decomp, evolve(decomp, psi, t1), t2)
        one_step = evolve(decomp, psi, t1 + t2)
        assert np.allclose(two_steps, one_step, atol=1e-9)


def test_reconstruction(rng):
    for _ in range(50):
        n = int(rng.integers(2, 33))
        h = random_hermitian(rng, n)
        d = eigh(h)
        rebuilt = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.conj().T
        assert np.allclose(rebuilt, h, atol=1e-9)
        assert np.allclose(
            d.eigenvectors.conj().T @ d.eigenvectors, np.eye(n), atol=1e-10
        )
        assert np.all(np.diff(d.eigenvalues) >= 0)


# --- stacks ---------------------------------------------------------------------

def random_symmetric_stack(rng, count, n):
    a = rng.normal(size=(count, n, n))
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def test_real_stack_keeps_a_real_decomposition(rng):
    stack = random_symmetric_stack(rng, 5, 7)
    d = eigh(stack)
    assert d.eigenvalues.shape == (5, 7) and d.eigenvectors.shape == (5, 7, 7)
    assert d.eigenvectors.dtype == np.float64
    for h, w, v in zip(stack, d.eigenvalues, d.eigenvectors):
        assert np.allclose(v @ np.diag(w) @ v.T, h, atol=1e-12)
        assert np.allclose(w, eigh(h.astype(complex)).eigenvalues, atol=1e-12)


def test_complex_input_stays_complex(rng):
    assert eigh(random_hermitian(rng, 4)).eigenvectors.dtype == np.complex128


def test_stack_hermiticity_checked_per_matrix(rng):
    stack = random_symmetric_stack(rng, 4, 5)
    stack[2, 0, 3] += 1e-6
    with pytest.raises(InvariantViolation, match="1.000e-06"):
        eigh(stack)


def test_stacked_evolve_matches_one_matrix_at_a_time(rng):
    stack = random_symmetric_stack(rng, 6, 8)
    psi = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    stacked = evolve(eigh(stack), psi, 1.7)
    for h, start, got in zip(stack, psi, stacked):
        assert np.allclose(got, evolve(eigh(h.astype(complex)), start, 1.7), atol=1e-12)
    with pytest.raises(ValueError):
        evolve(eigh(stack), psi[:5], 1.0)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_stack_of_states_broadcasts_over_a_decomposed_stack(rng, kind):
    stack = random_symmetric_stack(rng, 5, 9)
    if kind == "complex":
        stack = np.array([random_hermitian(rng, 9) for _ in range(5)])
    decomp = eigh(stack)
    assert decomp.eigenvectors.dtype.kind == ("c" if kind == "complex" else "f")
    states = rng.normal(size=(7, 5, 9)) + 1j * rng.normal(size=(7, 5, 9))
    got = evolve(decomp, states, 1.3)
    assert got.shape == (7, 5, 9)
    for probe, expected in zip(got, states):
        assert np.array_equal(probe, evolve(decomp, expected, 1.3))  # bit for bit


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_stack_of_states_broadcasts_over_one_matrix(rng, kind):
    h = random_symmetric_stack(rng, 1, 11)[0] if kind == "real" else random_hermitian(rng, 11)
    decomp = eigh(h)
    states = rng.normal(size=(6, 11)) + 1j * rng.normal(size=(6, 11))
    got = evolve(decomp, states, 0.7)
    for probe, state in zip(got, states):
        assert np.array_equal(probe, evolve(decomp, state, 0.7))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_evolve_does_not_depend_on_the_memory_layout(rng, kind):
    # the matmul rounds differently for a strided operand, so the state stack
    # is taken C-ordered: the probes of a phase scan are a broadcast copy
    stack = random_symmetric_stack(rng, 6, 50)
    if kind == "complex":
        stack = np.array([random_hermitian(rng, 50) for _ in range(6)])
    decomp = eigh(stack)
    states = rng.normal(size=(6, 50)) + 1j * rng.normal(size=(6, 50))
    probes = np.array(np.broadcast_to(states, (7, 6, 50)))  # numpy's K order
    expected = evolve(decomp, np.ascontiguousarray(probes), 1.3).tobytes()
    assert evolve(decomp, probes, 1.3).tobytes() == expected
    assert evolve(decomp, np.asfortranarray(probes), 1.3).tobytes() == expected


@pytest.mark.parametrize("shape", [(3, 5, 8), (3, 4, 9), (9,), (5,), (2, 4)])
def test_a_mismatched_trailing_shape_is_rejected(rng, shape):
    decomp = eigh(random_symmetric_stack(rng, 5, 9))
    with pytest.raises(ValueError, match="expected \\(5, 9\\)"):
        evolve(decomp, np.zeros(shape), 1.0)


def inline_evolve(decomp, psi0, t):
    """:func:`evolve` with V† formed inline on every call, as before the
    decomposition cached it: the reference for its bits."""
    psi0 = np.ascontiguousarray(psi0, dtype=complex)
    v = decomp.eigenvectors
    phases = np.exp(-1j * decomp.eigenvalues * t)
    coefficients = (v.swapaxes(-1, -2).conj() @ psi0[..., None])[..., 0]
    return (v @ (phases * coefficients)[..., None])[..., 0]


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("devices", [(), (6,)])
@pytest.mark.parametrize("lead", [(), (7,), (3, 2)])
def test_evolve_through_the_cached_adjoint_keeps_the_inline_bits(rng, kind, devices, lead):
    n = 50  # large enough for the matmul to run on BLAS
    if kind == "real":
        h = random_symmetric_stack(rng, 6, n)
    else:
        h = np.array([random_hermitian(rng, n) for _ in range(6)])
    decomp = eigh(h if devices else h[0])
    states = rng.normal(size=lead + devices + (n,)) + 1j * rng.normal(size=lead + devices + (n,))
    for t in (0.9, 2.3):  # the second call reuses the adjoint the first formed
        assert evolve(decomp, states, t).tobytes() == inline_evolve(decomp, states, t).tobytes()
    assert decomp.adjoint is decomp.adjoint
