"""Koopman wavefunction mechanics.

Exact operator algebra for the non-projective and projective Hilbert
space formulations of classical mechanics and their quantum-classical
hybrids, plus a split-step spectral simulator for the corresponding
phase-space wavefunction dynamics, with characteristics-based reference
solutions.
"""

__version__ = "0.1.0"
