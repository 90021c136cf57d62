"""Deterministic workbench for quantum information processing on strongly
coupled nuclear-spin systems."""

from .core import (SpinSystem, EigenSystem, Transition, TransitionCatalog,
                   SpinSystemError, build_hamiltonian, diagonalize,
                   eigensystem, mixing_angle_ab, transition_catalog,
                   sq_transition_count, load_spin_system, parse_spin_system,
                   format_spin_system)
from .dynamics import (DynamicsError, equilibrium_deviation,
                       selective_pulse_unitary, apply_selective_pulse,
                       hard_pulse_unitary, crush_gradient, free_evolution,
                       selective_population_update, apply_unitary, pure_part,
                       format_state, parse_state)
from .pulselang import (PulseProgram, PulseProgramError, parse_program,
                        format_program, execute)
from .assignment import (ConnectivityMatrix, LevelDiagram, AssignmentError,
                         reconstruct_levels, verify_diagram,
                         parse_connectivity, diagram_from_catalog,
                         diagrams_isomorphic)

__version__ = "0.1.0"
