"""Spin-network simulator: PST chains fused by Hadamard-block unitaries,
timed phase-injection protocols, and disorder-ensemble robustness sweeps.

Site labels are 1-based throughout the public API; all dynamics live in the
single-excitation subspace, with J_max = 1 setting the energy unit and
hbar = 1.
"""

__version__ = "0.1.0"
