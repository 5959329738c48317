"""Dense Hermitian linear algebra, for one matrix or a stack of them.

Everything downstream evolves states through one spectral decomposition per
Hamiltonian: decompose once, reuse for every requested time. Matrices here
are small (tens to a few hundred sites), so a dense eigensolver is exact
enough and cheap enough. A real symmetric input keeps a real decomposition;
a stack along leading axes is decomposed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12


class InvariantViolation(RuntimeError):
    """A numerical invariant (hermiticity, norm conservation, ...) was broken."""


def frozen_array(a: np.ndarray) -> np.ndarray:
    """A contiguous, read-only array with the values of ``a``.

    Copies writeable input rather than freezing the caller's buffer in
    place; already-frozen arrays are shared.
    """
    a = np.ascontiguousarray(a)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def hermiticity_defect(h: np.ndarray) -> float:
    """Largest absolute entry of h - h† over every matrix of a stack."""
    if h.size == 0:
        return 0.0
    return float(np.max(np.abs(h - np.swapaxes(h, -1, -2).conj())))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix: H = V diag(eigenvalues) V†.

    Eigenvalues are real and ascending; eigenvector k sits in column k of
    ``eigenvectors``, which is real for a real symmetric H. Within a
    degenerate cluster only the projector is well-defined, so callers must
    never rely on individual degenerate eigenvectors. A decomposed stack
    carries the same leading axes on both arrays.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(h: np.ndarray, atol: float = HERMITICITY_ATOL) -> SpectralDecomposition:
    """Decompose a dense Hermitian matrix, or a stack of them.

    The decomposition keeps the input's kind: real symmetric input gives a
    real one, complex input a complex one. Rejects input whose worst
    asymmetry over the stack exceeds ``atol``, reporting that magnitude.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    defect = hermiticity_defect(h)
    if defect > atol:
        raise InvariantViolation(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {atol:.1e}"
        )
    w, v = np.linalg.eigh(h)
    return SpectralDecomposition(frozen_array(w), frozen_array(v))


def evolve(decomp: SpectralDecomposition, psi0: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(-iHt) to ``psi0`` through the spectral basis (hbar = 1).

    For a decomposed stack ``psi0`` holds one state per matrix, along the
    same leading axes.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != decomp.eigenvalues.shape:
        raise ValueError(
            f"state has shape {psi0.shape}, expected {decomp.eigenvalues.shape}"
        )
    v = decomp.eigenvectors
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return _matvec(v, phases * _matvec(v.swapaxes(-1, -2).conj(), psi0))


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for matching stacks of matrices and vectors.

    A real ``a`` multiplies the real and imaginary parts of ``x`` as the two
    columns of one real product instead of being promoted to complex.
    """
    if a.dtype.kind == "c":
        return (a @ x[..., None])[..., 0]
    pairs = np.ascontiguousarray(x).view(float).reshape(*x.shape, 2)
    return (a @ pairs).view(complex)[..., 0]
