"""Spin-network simulator: PST chains fused by Hadamard-block unitaries,
timed phase-injection protocols, and disorder-ensemble robustness sweeps.

Site labels are 1-based throughout the public API; all dynamics live in the
single-excitation subspace, with J_max = 1 setting the energy unit and
hbar = 1.
"""

__version__ = "0.1.0"

from .disorder import DisorderSpec, SeededRng, sample_disorder
from .dynamics import (
    Protocol,
    PureState,
    phase_kick,
    run_schedule,
    state_at,
)
from .linalg import InvariantViolation, SpectralDecomposition, eigh, evolve
from .network import (
    ChainSpec,
    CouplingGraph,
    NetworkSpec,
    chain_graph,
    hadamard_join,
    join_unitary,
    mirror_time,
    network_graph,
    pst_couplings,
    read_edge_list,
    retune_jmax,
    write_edge_list,
)
from .observables import (
    EnsembleAccumulator,
    concurrence,
    ensemble_average,
    eof,
    eof_pair,
    fidelity,
    reduce_two_sites,
)
from .protocols import (
    FigureOfMerit,
    ProtocolResult,
    build_protocol,
    entangle_center_two_chain,
    entangle_phase_two_chain,
    m_chain_router,
    max_entangle_12,
    mws_9,
    mws_12,
    mws_transfer_15,
    router_two_chain,
    unequal_entangle,
    unequal_router,
    w_state,
)

__all__ = [
    "__version__",
    "ChainSpec",
    "CouplingGraph",
    "DisorderSpec",
    "EnsembleAccumulator",
    "FigureOfMerit",
    "InvariantViolation",
    "NetworkSpec",
    "Protocol",
    "ProtocolResult",
    "PureState",
    "SeededRng",
    "SpectralDecomposition",
    "build_protocol",
    "chain_graph",
    "concurrence",
    "eigh",
    "ensemble_average",
    "entangle_center_two_chain",
    "entangle_phase_two_chain",
    "eof",
    "eof_pair",
    "evolve",
    "fidelity",
    "hadamard_join",
    "join_unitary",
    "m_chain_router",
    "max_entangle_12",
    "mirror_time",
    "mws_9",
    "mws_12",
    "mws_transfer_15",
    "network_graph",
    "phase_kick",
    "pst_couplings",
    "read_edge_list",
    "reduce_two_sites",
    "retune_jmax",
    "router_two_chain",
    "run_schedule",
    "sample_disorder",
    "state_at",
    "unequal_entangle",
    "unequal_router",
    "w_state",
    "write_edge_list",
]
