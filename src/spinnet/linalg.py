"""Hermitian propagators, for one matrix or a stack of them.

Two operators evolve states, and ``dynamics.propagate`` takes either:

- :class:`SpectralDecomposition` from :func:`eigh`, a dense eigensystem:
  decompose once, then :func:`evolve` to any time at O(N^2) per state. A
  stack along leading axes is decomposed in one call, and many states per
  matrix evolve in one call too. The decomposition itself costs O(N^3), and
  its rounding depends on the LAPACK build. Its arrays are LAPACK's own,
  frozen in place, and V† is formed once per decomposition, not per call.
  ``spinnet run`` and the phase scan propagate this way, on the complex
  matrix of ``to_matrix()``.
- :class:`BandOperator` from :func:`band_operator`, a stack of real
  symmetric Hamiltonians held as their nonzero diagonals, each with its own
  Gershgorin spectral interval. :func:`chebyshev_evolve` expands
  exp(-iHt) in Chebyshev polynomials (Tal-Ezer and Kosloff, J. Chem. Phys.
  81, 3967, 1984), with no decomposition. A series term costs N for the
  main diagonal plus, for each off-diagonal, the rows its edges occupy: the
  offset-2 diagonal of two fused chains holds only the junction's couplings.
  A complex state costs two real vectors, and a stack of real start vectors
  per matrix runs in the same series as extra column groups.
  Its arithmetic is elementwise real, so each matrix's result is the same
  bit for bit whatever stack it sits in, and it does not depend on the
  BLAS/LAPACK build or thread count. Every sweep propagates this way, at any
  size.

Every work array of the series starts on a 64-byte boundary, a cache line
and one AVX-512 vector. numpy takes array data from malloc, which
aligns it to 16 bytes, so each vector load or store of its SIMD loops then
splits a cache line: on one core of an AVX-512 Xeon with numpy 2.4, a
multiply of two (140, 116) arrays into a third takes 5.4 us aligned and
11-12 us at an 8-, 16- or 32-byte offset. IEEE arithmetic gives the same
bits at any alignment and SIMD width.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12

# Array entries per block of work: the 2N per realization of a disorder draw
# block and of a sweep's band states, the N^2 per matrix of a phase scan's
# dense stack, or the states of one phase-probe evolve call. 2^14 entries are
# 128 KiB real, 256 KiB complex, so a block stays within a few percent of a
# worker's peak memory whatever the size of the run.
BLOCK_ENTRIES = 1 << 14

# glibc's malloc hands a freed chunk above its mmap threshold back to the
# kernel, and trims the top of the heap once more than its trim threshold
# is free there; both thresholds start at 128 KiB. A block's work arrays are
# about that size, so every block would unmap or trim them and fault them in
# again, page by page. Chunks up to 16 complex blocks stay on the heap, and
# the heap keeps up to 16 times that free at its top.
MMAP_THRESHOLD = 16 * BLOCK_ENTRIES * 16  # 4 MiB
TRIM_THRESHOLD = 16 * MMAP_THRESHOLD  # 64 MiB
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters

# A Chebyshev coefficient 2 J_k below the unit roundoff no longer changes a
# unit-norm state; the series stops at the last order above it.
CHEBYSHEV_CUTOFF = 2.0 ** -53
# Miller's recurrence for J_k(x) starts at order x + 18 x^(1/3) + 20, where
# J_k(x) is below 1e-30; the cutoff order is about x + 11 x^(1/3). The seed is
# small enough that the recurrence stays within range down to J_0 for
# arguments down to TINY_ARGUMENT; smaller ones are raised to it, which moves
# no coefficient by more than 1e-20.
MILLER_SEED = 1e-280
TINY_ARGUMENT = 1e-20


class InvariantViolation(RuntimeError):
    """A numerical invariant (hermiticity, norm conservation, ...) was broken."""


@functools.lru_cache(maxsize=1)
def keep_heap() -> bool:
    """Raise glibc's trim and mmap thresholds to TRIM_THRESHOLD and
    MMAP_THRESHOLD for this process, once; True when both took effect.

    Without ``mallopt`` in the process's C library (as on macOS or Windows)
    this does nothing and returns False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the symbols the process has loaded
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
                & mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD))


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
    """Largest absolute entry of h - h† over every matrix of a stack; nan
    or inf when an entry is not finite."""
    if h.size == 0:
        return 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
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

    @functools.cached_property
    def adjoint(self) -> np.ndarray:
        """V†, formed once. It keeps the layout of
        ``eigenvectors.swapaxes(-1, -2).conj()``, a transposed view or its
        Fortran-ordered copy, on which :func:`evolve`'s rounding depends."""
        return self.eigenvectors.swapaxes(-1, -2).conj()


def eigh(h: np.ndarray) -> SpectralDecomposition:
    """Decompose a dense Hermitian matrix, or a stack of them.

    The decomposition keeps the input's kind: real symmetric input gives a
    real one, complex input a complex one. Rejects input whose worst
    asymmetry over the stack exceeds ``HERMITICITY_ATOL``, reporting that
    magnitude, and input with an entry that is not finite, naming it. The
    arrays are LAPACK's own, frozen in place.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    defect = hermiticity_defect(h)
    if not defect <= HERMITICITY_ATOL:  # a nan defect, from a nan or inf entry, fails too
        bad = np.argwhere(~np.isfinite(h))
        if len(bad):
            index = tuple(bad[0].tolist())
            raise InvariantViolation(f"matrix entry {index} is {h[index]}, not finite")
        raise InvariantViolation(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds {HERMITICITY_ATOL:.1e}"
        )
    w, v = np.linalg.eigh(h)
    v = np.ascontiguousarray(v)  # evolve's rounding expects C order, numpy's own
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(w, v)


def evolve(decomp: SpectralDecomposition, psi0: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(-iHt) to ``psi0`` through the spectral basis (hbar = 1).

    For a decomposed stack ``psi0`` holds one state per matrix, along the
    same leading axes. Axes in front of those broadcast over the
    decomposition: a (A, B, N) stack over a (B, N, N) one, or (A, N) over
    one matrix, gives what A separate calls give, bit for bit, with V† and
    the phases computed once. The matmul's rounding depends on the memory
    layout of its operand, so ``psi0`` is taken C-ordered: any layout of a
    stack evolves to the bits of its C-ordered copy.
    """
    psi0 = np.ascontiguousarray(psi0, dtype=complex)
    shape = decomp.eigenvalues.shape
    if psi0.ndim < len(shape) or psi0.shape[psi0.ndim - len(shape):] != shape:
        raise ValueError(
            f"state has shape {psi0.shape}, expected {shape} after any leading axes"
        )
    phases = np.exp(-1j * decomp.eigenvalues * t)
    coefficients = (decomp.adjoint @ psi0[..., None])[..., 0]
    return (decomp.eigenvectors @ (phases * coefficients)[..., None])[..., 0]


@dataclass(frozen=True)
class BandOperator:
    """A stack of real symmetric Hamiltonians held as their nonzero diagonals.

    ``bands[..., 0, i]`` is H[i, i]; for j >= 1, ``bands[..., j, i]`` is
    H[i, i + offsets[j - 1]]. Diagonal j is read only over its span, the
    rows ``spans[j - 1]`` = (first, stop) from the first to the last row of
    the edges on it, the same for every matrix of the stack; it is zero
    outside. Matrix b's spectrum lies in its Gershgorin interval
    [``lower[b]``, ``upper[b]``].
    """

    offsets: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]
    bands: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def band_operator(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                  onsite: np.ndarray) -> BandOperator:
    """The Hamiltonians with couplings ``values`` (..., E) on the edges
    (``rows``, ``cols``), rows < cols, and site energies ``onsite`` (..., N),
    as a :class:`BandOperator` on the diagonals that the edges occupy, each
    spanning the rows of its edges whatever their values.

    A realization's interval comes from its own row sums only.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    values, onsite = np.asarray(values, dtype=float), np.asarray(onsite, dtype=float)
    n = onsite.shape[-1]
    offset = cols - rows
    offsets = sorted(set(offset.tolist()))  # np.unique would import numpy.ma
    occupied = [rows[offset == d] for d in offsets]
    spans = tuple((int(r.min()), int(r.max()) + 1) for r in occupied)
    lead = np.broadcast_shapes(values.shape[:-1], onsite.shape[:-1])
    bands = np.zeros(lead + (1 + len(offsets), n))
    bands[..., 0, :] = onsite
    bands[..., 1 + np.searchsorted(offsets, offset), rows] = values
    radius = np.zeros(lead + (n,))
    for j, (d, (first, stop)) in enumerate(zip(offsets, spans), start=1):
        edge = np.abs(bands[..., j, first:stop])
        radius[..., first:stop] += edge
        radius[..., first + d: stop + d] += edge
    return BandOperator(tuple(offsets), spans, frozen_array(bands),
                        frozen_array(np.min(bands[..., 0, :] - radius, axis=-1)),
                        frozen_array(np.max(bands[..., 0, :] + radius, axis=-1)))


def bessel_coefficients(x: np.ndarray) -> np.ndarray:
    """J_k(x_b) for k = 0..K along axis 0, for every x_b >= 0 of ``x`` (B,).

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, normalised
    by J_0 + 2 sum J_2k = 1. Its start order, and the cutoff past which the
    coefficients are exactly 0, depend on x_b alone, and every operation is
    elementwise along B, so column b does not depend on the other arguments;
    K is the largest cutoff of the block.
    """
    x = np.maximum(np.asarray(x, dtype=float), TINY_ARGUMENT)
    # Python floats: a vectorised cube root may round an element differently
    # depending on the length of the array it sits in
    start = [math.ceil(v + 18.0 * v ** (1.0 / 3.0)) + 20 for v in x.tolist()]
    top = max(start)
    start_orders = np.array(start)
    seeds = {k: start_orders == k for k in set(start)}
    factor = np.arange(top + 1)[:, None] * (2.0 / x)  # 2k / x
    j = np.zeros((top + 2, len(x)))
    total = np.zeros(len(x))
    rows, factors = list(j), list(factor)  # row views, made once: the loop is per-call bound
    for k in range(top, 0, -1):
        if k in seeds:
            rows[k][seeds[k]] = MILLER_SEED
        np.multiply(factors[k], rows[k], out=rows[k - 1])
        rows[k - 1] -= rows[k + 1]
        if k % 2 == 0:
            total += rows[k]
    total = j[0] + 2.0 * total
    j /= total
    order = np.arange(top + 2)[:, None]
    significant = np.abs(j) >= CHEBYSHEV_CUTOFF / 2.0
    cutoff = top + 2 - np.argmax(significant[::-1], axis=0)
    j[order >= cutoff] = 0.0
    return j[: int(cutoff.max())]


def chebyshev_evolve(op: BandOperator, psi0: np.ndarray, t: float) -> np.ndarray:
    """Apply exp(-iHt), t >= 0, to the states of the matrices of ``op`` (B, N).

    ``psi0`` is one complex state per matrix, (B, N), or a real stack of G
    start vectors per matrix, (G, B, N); the result is complex, of the same
    shape. With H = c + r H' and the spectrum of H' in [-1, 1],
    exp(-iHt) = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(r t) T_k(H'),
    where [c - r, c + r] is the matrix's own Gershgorin interval. Every real
    vector is one column group of a single series: a real start is one group,
    a complex state two, its real and imaginary parts (one, when it has no
    imaginary part). The polynomials T_k(H') follow the three-term
    recurrence on all groups at once, and the even and odd orders are summed
    apart, each with a real coefficient. Group g of a stack gets the same
    bits as alone.
    """
    psi0 = np.asarray(psi0)
    stacked = not np.iscomplexobj(psi0)
    shape = op.bands.shape[:-2] + op.bands.shape[-1:]
    if len(shape) != 2 or psi0.shape[stacked:] != shape or psi0.ndim != 2 + stacked:
        raise ValueError(f"state has shape {psi0.shape}, expected {shape} complex "
                         f"or (starts,) + {shape} real")
    if t < 0:
        raise ValueError(f"chebyshev_evolve runs forward only, got t = {t}")
    center = (op.upper + op.lower) / 2.0
    radius = (op.upper - op.lower) / 2.0
    coeffs = _series_coefficients(tuple((radius * t).tolist()))
    if stacked:
        parts = tuple(psi0.astype(float, copy=False))
    else:  # a real state skips the imaginary part, whose every term would be 0
        parts = (psi0.real, psi0.imag) if psi0.imag.any() else (psi0.real,)
    with np.errstate(over="ignore", invalid="ignore"):  # the norm guard reports a blow-up
        even, odd = _chebyshev_sums(op, center, radius, coeffs, parts)
        # group g evolves to e^{-ict} (re_g + i im_g), all as (N, groups, B)
        re, im = even, -odd
        if len(parts) == 2 and not stacked:  # U (a + i b) = U a + i U b
            re, im = re[:, :1] - im[:, 1:], im[:, :1] + re[:, 1:]
    angle = center * t
    cos = np.array([math.cos(a) for a in angle.tolist()])
    sin = np.array([math.sin(a) for a in angle.tolist()])
    out = np.empty((re.shape[1],) + shape, dtype=complex)
    out.real = (re * cos + im * sin).transpose(1, 2, 0)
    out.imag = (im * cos - re * sin).transpose(1, 2, 0)
    return out if stacked else out[0]


@functools.lru_cache(maxsize=1)
def _series_coefficients(x: tuple[float, ...]) -> np.ndarray:
    """The coefficients (2 - delta_k0) J_k(x_b) of :func:`chebyshev_evolve`, each
    signed as the nonzero part of (-i)^k; read-only. The last set is kept for
    a forward run whose segments are all equal, such as the m-chain router's
    one mirror time per hop; a sweep's split runs one series per block."""
    coeffs = bessel_coefficients(np.array(x))
    coeffs[1:] *= 2.0
    coeffs[2::4] *= -1.0  # (-i)^k: the even orders alternate in sign,
    coeffs[3::4] *= -1.0  # and so do the odd ones, which carry -i
    coeffs.setflags(write=False)
    return coeffs


def _chebyshev_sums(op: BandOperator, center: np.ndarray, radius: np.ndarray,
                    coeffs: np.ndarray, parts: tuple[np.ndarray, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The even- and odd-order sums of ``coeffs[k] * T_k(H') v`` for every
    real (B, N) vector stack v of ``parts``, each (N, len(parts), B).

    The parts run side by side as the column groups of one
    (N, len(parts) * B) array, so every operation is one contiguous
    elementwise pass.
    """
    # 2 H' = (H - c) * (2 / r); a matrix with r = 0 is c times the identity
    scale = np.divide(2.0, radius, out=np.zeros_like(radius), where=radius > 0)[:, None]
    n = op.bands.shape[-1]
    diagonal = _columns([(op.bands[:, 0] - center[:, None]) * scale] * len(parts))
    off = [_columns([op.bands[:, j, first:stop] * scale] * len(parts))
           for j, (first, stop) in enumerate(op.spans, start=1)]
    coeffs = list(_columns([coeffs.T] * len(parts)))
    start = _columns(list(parts))
    scratch = _aligned(start.shape)
    heads = [scratch[: stop - first] for first, stop in op.spans]
    # row i of the span of offset d couples v[i + d] (hi) into out[i] (lo), and back
    windows = [(slice(first + d, stop + d), slice(first, stop))
               for d, (first, stop) in zip(op.offsets, op.spans)]

    # A term is a dozen numpy calls on small arrays, so each buffer carries its
    # hi and lo views, one pair per offset, made once.
    def with_views(v: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        return v, [(v[hi], v[lo]) for hi, lo in windows]

    def recur(v: tuple, out: tuple) -> None:  # out <- 2 H' v - out
        (v, v_views), (out, out_views) = v, out
        np.multiply(diagonal, v, out=scratch)
        np.subtract(scratch, out, out=out)
        for u, head, (v_hi, v_lo), (out_hi, out_lo) in zip(off, heads, v_views, out_views):
            np.multiply(u, v_hi, out=head)
            out_lo += head
            np.multiply(u, v_lo, out=head)
            out_hi += head

    previous = with_views(start)
    sums = [np.multiply(coeffs[0], start, out=_aligned(start.shape)), _aligned(start.shape)]
    sums[1].fill(0.0)
    if len(coeffs) > 1:
        current = with_views(_aligned(start.shape))
        current[0].fill(0.0)
        recur(previous, current)
        np.multiply(current[0], 0.5, out=current[0])
        np.multiply(coeffs[1], current[0], out=scratch)
        sums[1] += scratch
    for k in range(2, len(coeffs)):
        recur(current, previous)
        previous, current = current, previous
        np.multiply(coeffs[k], current[0], out=scratch)
        sums[k % 2] += scratch
    even, odd = (a.reshape(n, len(parts), -1) for a in sums)
    return even, odd


def _columns(blocks: list[np.ndarray]) -> np.ndarray:
    """The (m, len(blocks) * B) array whose columns are the rows of each
    (B, m) block in turn: the layout :func:`chebyshev_evolve` works in."""
    out = _aligned((blocks[0].shape[-1], sum(len(b) for b in blocks)))
    np.concatenate(blocks, axis=0, out=out.T)
    return out


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape`` whose data
    starts on a 64-byte boundary: the first boundary of a buffer 8 entries
    longer."""
    size = math.prod(shape)
    buffer = np.empty(size + 8)
    first = -buffer.ctypes.data % 64 // 8
    return buffer[first: first + size].reshape(shape)
