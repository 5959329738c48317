"""Timed protocols: free evolution punctuated by instantaneous local phases.

A protocol is a time-ordered event list over one static network: exactly one
excitation injection at t = 0, then any number of phase injections, each an
ideal zero-width diagonal unitary. Between events the state evolves under
the network Hamiltonian through one operator, built once: a spectral
decomposition, or for a sweep's block of disorder realizations the band
diagonals of their Hamiltonians (``linalg``). When an event and a
recording time coincide, the event is applied first, so states engineered
"at t" are what gets observed at t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .linalg import (BandOperator, InvariantViolation, SpectralDecomposition, chebyshev_evolve,
                     eigh, evolve, frozen_array)
from .network import CouplingGraph

NORM_ATOL = 1e-10

INJECT = "inject"
PHASE = "phase"


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

    def population(self, site: int) -> float:
        return abs(self.amplitude(site)) ** 2

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
    """One timed action: inject the excitation, or kick a site's phase."""

    time: float
    action: str
    site: int
    angle: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in (INJECT, PHASE):
            raise ValueError(f"unknown action {self.action!r}")
        if self.time < 0:
            raise ValueError("event times must be non-negative")
        if not math.isfinite(self.angle):
            raise ValueError("phase angle must be finite")


def inject(site: int, time: float = 0.0) -> ScheduleEvent:
    return ScheduleEvent(time, INJECT, site)


def phase_kick(site: int, angle: float, time: float) -> ScheduleEvent:
    return ScheduleEvent(time, PHASE, site, angle)


@dataclass(frozen=True)
class Protocol:
    """Time-ordered events plus the run duration and recording grid."""

    events: tuple[ScheduleEvent, ...]
    duration: float
    sample_times: tuple[float, ...] = ()

    def __init__(
        self,
        events: Iterable[ScheduleEvent],
        duration: float,
        sample_times: Iterable[float] = (),
    ):
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "duration", float(duration))
        object.__setattr__(self, "sample_times", tuple(float(t) for t in sample_times))
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        times = [e.time for e in self.events]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("events must be sorted by time")
        if any(t > self.duration for t in times):
            raise ValueError("event times must not exceed the duration")
        if any(t < 0 or t > self.duration for t in self.sample_times):
            raise ValueError("sample times must lie within [0, duration]")


def uniform_samples(duration: float, count: int = 400) -> tuple[float, ...]:
    """Uniform recording grid over [0, duration], endpoints included."""
    return tuple(np.linspace(0.0, duration, count))


def propagate(
    operator: SpectralDecomposition | BandOperator,
    amplitudes: np.ndarray,
    t_start: float,
    kicks: Sequence[tuple[float, int, float]],
    t_end: float,
) -> np.ndarray:
    """Evolve amplitudes held at ``t_start`` to ``t_end``, kicking on the way.

    ``kicks`` are time-sorted (time, 0-based site, angle) triples within
    [t_start, t_end]; each multiplies its site by e^{i angle} before any
    evolution past its time. Evolution runs from stop to stop, so the
    segments are the same whatever the caller records in between. The
    operator is a spectral decomposition (:func:`~spinnet.linalg.evolve`) or
    a band operator (:func:`~spinnet.linalg.chebyshev_evolve`); a stacked
    one propagates one state per matrix, along the leading axes of
    ``amplitudes``. The input array is never modified; each kick is
    :func:`kick_site` on a copy.
    """
    advance = chebyshev_evolve if isinstance(operator, BandOperator) else evolve
    t_now = t_start
    for t_kick, site, angle in kicks:
        if t_kick > t_now:
            amplitudes = advance(operator, amplitudes, t_kick - t_now)
            t_now = t_kick
        amplitudes = np.array(amplitudes)
        kick_site(amplitudes, site, angle)
    if t_end > t_now:
        amplitudes = advance(operator, amplitudes, t_end - t_now)
    return amplitudes


def kick_site(amplitudes: np.ndarray, site: int, angle: float) -> None:
    """Multiply the 0-based ``site`` of every state in ``amplitudes`` by
    e^{i angle}, in place: the one kick of :func:`propagate` and of the
    phase probe.

    One scalar Python complex product per state: numpy's vector loop rounds
    differently for a strided column of two or more states than for one,
    which would tie a state's last bits to the size of its stack.
    """
    phase = complex(math.cos(angle), math.sin(angle))
    column = amplitudes[..., site]
    column.flat = [a * phase for a in column.reshape(-1).tolist()]


@dataclass(frozen=True)
class Trajectory:
    """Recorded states at the protocol's sample times."""

    times: np.ndarray
    states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", frozen_array(np.asarray(self.times, dtype=float)))
        if len(self.states) != self.times.shape[0]:
            raise ValueError("one recorded state per sample time")

    @property
    def n_sites(self) -> int:
        return self.states[0].n_sites if self.states else 0

    def populations(self) -> np.ndarray:
        """Per-site |amplitude|^2, one row per sample time."""
        return np.array([s.populations() for s in self.states])

    def write_csv(self, out: TextIO, amplitudes: bool = False) -> None:
        """Populations per site (`t,site_1,...,site_N`); with ``amplitudes``
        the real/imaginary parts are dumped instead (`t,re_1,im_1,...`)."""
        n = self.n_sites
        if amplitudes:
            header = ",".join(f"re_{i},im_{i}" for i in range(1, n + 1))
            out.write(f"t,{header}\n")
            for t, state in zip(self.times, self.states):
                row = ",".join(
                    f"{a.real:.12g},{a.imag:.12g}" for a in state.amplitudes
                )
                out.write(f"{t:.12g},{row}\n")
        else:
            header = ",".join(f"site_{i}" for i in range(1, n + 1))
            out.write(f"t,{header}\n")
            for t, pops in zip(self.times, self.populations()):
                row = ",".join(f"{p:.12g}" for p in pops)
                out.write(f"{t:.12g},{row}\n")


def schedule_kicks(protocol: Protocol, n_sites: int) -> tuple[int, list[tuple[float, int, float]]]:
    """Check a protocol against an ``n_sites`` network and compile it.

    Returns the 0-based injection site and the kicks as the (time, 0-based
    site, angle) triples :func:`propagate` takes. Rejected protocols: no
    injection, injection after t = 0, more than one injection (the dynamics
    stay in the single-excitation sector), or sites out of range. Event
    order is already enforced by :class:`Protocol`.
    """
    injections = [e for e in protocol.events if e.action == INJECT]
    if len(injections) != 1:
        raise ValueError(f"exactly one injection required, got {len(injections)}")
    if injections[0].time != 0.0 or protocol.events[0].action != INJECT:
        raise ValueError("the injection must be the first event, at t = 0")
    for event in protocol.events:
        _check_site(event.site, n_sites)
    kicks = [(e.time, e.site - 1, e.angle) for e in protocol.events[1:]]
    return injections[0].site - 1, kicks


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
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_ATOL:
            raise InvariantViolation(f"norm drifted to {norm!r} at t = {t}")
        recorded[k] = PureState(amp)

    return Trajectory(np.asarray(protocol.sample_times, dtype=float), tuple(recorded))


def state_at(graph: CouplingGraph, protocol: Protocol, t: float) -> PureState:
    """The state at one instant, skipping any other recording."""
    run = run_schedule(graph, replace_samples(protocol, (t,)))
    return run.states[0]


def replace_samples(protocol: Protocol, sample_times: Sequence[float]) -> Protocol:
    duration = max(protocol.duration, max(sample_times, default=0.0))
    return Protocol(protocol.events, duration, sample_times)
