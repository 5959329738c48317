"""Timed protocols: free evolution punctuated by instantaneous local phases.

A protocol over one static network injects one excitation at its start site
at t = 0, then applies its time-sorted phase kicks, each an ideal zero-width
diagonal unitary. Between kicks the state evolves under
the network Hamiltonian through one operator, built once: a spectral
decomposition, or for a sweep's block of disorder realizations the band
diagonals of their Hamiltonians (``linalg``). When a kick and a
recording time coincide, the kick is applied first, so states engineered
"at t" are what gets observed at t. :func:`propagate` holds every stack it
returns to unit norm within ``NORM_ATOL`` (:func:`check_norms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (BandOperator, InvariantViolation, SpectralDecomposition, chebyshev_evolve,
                     eigh, evolve, frozen_array)
from .network import CouplingGraph

NORM_ATOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Complex amplitudes over the single-excitation basis, unit norm.

    Site labels are 1-based in every accessor; ``amplitudes[k]`` belongs to
    site k+1.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = frozen_array(np.asarray(self.amplitudes, dtype=complex))
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must be a non-empty vector")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_ATOL:
            raise InvariantViolation(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")

    @classmethod
    def basis(cls, n_sites: int, site: int) -> "PureState":
        """The excitation localised at ``site`` (1-based)."""
        _check_site(site, n_sites)
        amp = np.zeros(n_sites, dtype=complex)
        amp[site - 1] = 1.0
        return cls(amp)

    @classmethod
    def from_terms(cls, n_sites: int, terms: dict[int, complex]) -> "PureState":
        """Build a state from {site: amplitude}; must already be normalised."""
        amp = np.zeros(n_sites, dtype=complex)
        for site, value in terms.items():
            _check_site(site, n_sites)
            amp[site - 1] = value
        return cls(amp)

    @property
    def n_sites(self) -> int:
        return int(self.amplitudes.shape[0])

    def amplitude(self, site: int) -> complex:
        _check_site(site, self.n_sites)
        return complex(self.amplitudes[site - 1])

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other> (phase-sensitive)."""
        if other.n_sites != self.n_sites:
            raise ValueError("states live on different site counts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _check_site(site: int, n_sites: int) -> None:
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")


@dataclass(frozen=True)
class ScheduleEvent:
    """One phase kick: multiply ``site`` by e^{i angle} at ``time``."""

    time: float
    site: int
    angle: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event times must be non-negative")
        if not math.isfinite(self.angle):
            raise ValueError("phase angle must be finite")


@dataclass(frozen=True)
class Protocol:
    """The 1-based site injected at t = 0, the time-sorted phase kicks, the
    run duration and the recording grid."""

    start: int
    events: tuple[ScheduleEvent, ...]
    duration: float
    sample_times: tuple[float, ...] = ()

    def __init__(
        self,
        start: int,
        events: Iterable[ScheduleEvent],
        duration: float,
        sample_times: Iterable[float] = (),
    ):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "duration", float(duration))
        object.__setattr__(self, "sample_times", tuple(float(t) for t in sample_times))
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        times = [e.time for e in self.events]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("kicks must be sorted by time")
        if any(t > self.duration for t in times):
            raise ValueError("kick times must not exceed the duration")
        if any(t < 0 or t > self.duration for t in self.sample_times):
            raise ValueError("sample times must lie within [0, duration]")


def propagate(
    operator: SpectralDecomposition | BandOperator,
    amplitudes: np.ndarray,
    t_start: float,
    kicks: Sequence[tuple[float, int, float | Sequence[float]]],
    t_end: float,
    streams: Sequence[int] | None = None,
) -> np.ndarray:
    """Evolve amplitudes held at ``t_start`` to ``t_end``, kicking on the way.

    ``kicks`` are time-sorted (time, 0-based site, angle) triples within
    [t_start, t_end]; each multiplies its site by e^{i angle} before any
    evolution past its time. An angle may also be one angle per entry of
    the leading axis of ``amplitudes``, as for the probes of a phase scan.
    Evolution runs from stop to stop, so the segments are the same whatever
    the caller records in between. The operator is a spectral decomposition
    (:func:`~spinnet.linalg.evolve`) or a band operator
    (:func:`~spinnet.linalg.chebyshev_evolve`); a stacked one propagates one
    state per matrix, along the leading axes of ``amplitudes``, and axes in
    front of those broadcast over it. The input array is never modified;
    each kick is :func:`kick_site` on a C-ordered copy, so a broadcast input
    evolves to the bits of its materialised stack. The returned stack passes
    :func:`check_norms` at ``t_end``; ``streams`` only name a failing state.
    """
    advance = chebyshev_evolve if isinstance(operator, BandOperator) else evolve
    t_now = t_start
    for t_kick, site, angle in kicks:
        if t_kick > t_now:
            amplitudes = advance(operator, amplitudes, t_kick - t_now)
            t_now = t_kick
        amplitudes = np.array(amplitudes, order="C")
        kick_site(amplitudes, site, angle)
    if t_end > t_now:
        amplitudes = advance(operator, amplitudes, t_end - t_now)
    check_norms(amplitudes, streams, t_end)
    return amplitudes


def kick_site(amplitudes: np.ndarray, site: int, angle: float | Sequence[float]) -> None:
    """Multiply the 0-based ``site`` of every state in ``amplitudes`` by
    e^{i angle}, in place: the one kick of :func:`propagate`. ``angle`` is
    one angle, or one angle per entry of the leading axis.

    The product is spelled out in real multiplies and adds, each rounded
    once, as Python's scalar complex product rounds it: numpy's complex
    multiply rounds differently for a strided column of two or more states
    than for one, which would tie a state's last bits to the size of its
    stack. The phase comes from ``math.cos`` and ``math.sin`` of each angle.
    """
    column = amplitudes[..., site]
    if np.ndim(angle) == 0:
        cos, sin = math.cos(angle), math.sin(angle)
    else:
        angles = np.asarray(angle, dtype=float).tolist()
        if column.shape[:1] != (len(angles),):
            raise ValueError(f"{len(angles)} kick angles for the leading axis of "
                             f"{amplitudes.shape}")
        shape = (len(angles),) + (1,) * (column.ndim - 1)
        cos = np.array([math.cos(a) for a in angles]).reshape(shape)
        sin = np.array([math.sin(a) for a in angles]).reshape(shape)
    re, im = column.real, column.imag
    column.real, column.imag = re * cos - im * sin, re * sin + im * cos


@dataclass(frozen=True)
class Trajectory:
    """Recorded states at the protocol's sample times."""

    times: np.ndarray
    states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", frozen_array(np.asarray(self.times, dtype=float)))
        if len(self.states) != self.times.shape[0]:
            raise ValueError("one recorded state per sample time")

    def populations(self) -> np.ndarray:
        """Per-site |amplitude|^2, one row per sample time."""
        return np.array([s.populations() for s in self.states])


def schedule_kicks(protocol: Protocol, n_sites: int) -> tuple[int, list[tuple[float, int, float]]]:
    """Check a protocol's sites against an ``n_sites`` network and compile it.

    Returns the 0-based start site and the kicks as the (time, 0-based site,
    angle) triples :func:`propagate` takes. Kick order is already enforced
    by :class:`Protocol`.
    """
    _check_site(protocol.start, n_sites)
    for event in protocol.events:
        _check_site(event.site, n_sites)
    return protocol.start - 1, [(e.time, e.site - 1, e.angle) for e in protocol.events]


def check_norms(amplitudes: np.ndarray, streams: Sequence[int] | None, t: float) -> None:
    """Raise :class:`~spinnet.linalg.InvariantViolation` unless every state
    along the last axis of ``amplitudes`` has unit norm within NORM_ATOL.

    The message names the worst state, and any state whose norm is not
    finite before the others, together with the time ``t``. ``streams``,
    when the caller knows them, are the disorder streams of the states along
    the second-to-last axis; a stack of probes of one block's devices repeats
    them along any axis in front of it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 inside the norm of inf
        norms = np.linalg.norm(amplitudes, axis=-1).reshape(-1)
    defects = np.where(np.isfinite(norms), np.abs(norms - 1.0), np.inf)
    worst = int(np.argmax(defects))
    if defects[worst] > NORM_ATOL:
        state = "" if streams is None else f" from stream {streams[worst % len(streams)]}"
        drift = (f"drifted by {defects[worst]:.3e}" if np.isfinite(norms[worst])
                 else f"is {norms[worst]}")
        raise InvariantViolation(
            f"norm of the state{state} {drift} (bound {NORM_ATOL:.0e}) at t = {t}"
        )


def run_schedule(graph: CouplingGraph, protocol: Protocol) -> Trajectory:
    """Execute a protocol on a network and record the sampled states."""
    return run_decomposed(eigh(graph.to_matrix()), protocol)


def run_decomposed(decomp: SpectralDecomposition, protocol: Protocol) -> Trajectory:
    """Execute a protocol under one decomposed Hamiltonian and record the
    sampled states.

    Every evolution segment reuses ``decomp``, so runs that share it (the
    trajectory and the checks of ``spinnet run``) share one eigensolve. The
    protocol is checked by :func:`schedule_kicks`.
    """
    n_sites = decomp.eigenvalues.shape[-1]
    start, kicks = schedule_kicks(protocol, n_sites)
    amp = np.zeros(n_sites, dtype=complex)
    amp[start] = 1.0

    recorded: list[PureState | None] = [None] * len(protocol.sample_times)
    t_now = 0.0
    fired = 0
    for k in np.argsort(protocol.sample_times, kind="stable"):
        t = protocol.sample_times[k]
        # events fire before anything is recorded at the same instant
        due = fired
        while due < len(kicks) and kicks[due][0] <= t:
            due += 1
        amp = propagate(decomp, amp, t_now, kicks[fired:due], t)
        t_now, fired = t, due
        recorded[k] = PureState(amp)

    return Trajectory(np.asarray(protocol.sample_times, dtype=float), tuple(recorded))


def replace_samples(protocol: Protocol, sample_times: Sequence[float]) -> Protocol:
    duration = max(protocol.duration, max(sample_times, default=0.0))
    return Protocol(protocol.start, protocol.events, duration, sample_times)
