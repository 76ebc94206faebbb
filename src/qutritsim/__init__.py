"""Qutrit channel simulation on two-qubit encodings.

Realizes the spin-1 (Landau-Streater style) and transpose-depolarizing
(Werner-Holevo style) qutrit channels as elementary-gate circuits on pairs
of qubits, reconstructs them by state tomography and Choi matrices, and
quantifies implementation quality under configurable gate noise.
"""

from .linalg import (ATOL, as_matrix, equal_up_to_global_phase, hermitian_eig,
                     is_psd, is_unitary, kron, kron_all, partial_trace,
                     project_to_density, sqrtm_psd)
from .circuits import (Circuit, Gate, NoiseConfig, gate_matrix,
                       sample_counts, simulate_density, simulate_state,
                       unitary_of)
from .channels import (ChannelRep, Ordering, SpinGenerators,
                       StinespringDilation, apply_channel, choi_of,
                       covariance_unitary, is_cptp, ls_apply, ls_stinespring,
                       spin1_generators, wh_apply, wh_stinespring)
from .coupling import CouplingMap, RoutingError, preset_map, reverse_cnot, route_circuit, validate
from .encoding import (embed_density, embed_two_qutrit_unitary, induced_channel,
                       project_qutrit, project_two_qutrits)
from .decompositions import (SConfig, QuasiToffoliVariant, basis_density,
                             ls_channel_circuit,
                             prep_basis_circuit, prep_superposition_circuit,
                             quasi_toffoli_circuit, quasi_toffoli_matrix,
                             s_config_unitary, s_permutation_circuit,
                             w_tilde_circuit, w_tilde_matrix,
                             wh_channel_circuit)
from .tomography import (TomographyRecord, channel_fidelity_sweep, collect,
                         fidelity, reconstruct_qutrit, reconstruct_state,
                         settings_for)
from .choi import (analytic_choi, channel_from_choi, choi_direct,
                   choi_fidelity, choi_linear, rederive_coefficients)

__version__ = "0.1.0"
