"""Qutrit channel simulation on two-qubit encodings.

Realizes the spin-1 (Landau-Streater style) and transpose-depolarizing
(Werner-Holevo style) qutrit channels as elementary-gate circuits on pairs
of qubits, reconstructs them by state tomography and Choi matrices, and
quantifies implementation quality under configurable gate noise.

The package root holds only __version__: import the modules, e.g.
``from qutritsim import choi``.
"""

__version__ = "0.1.0"
