"""dqcc: compiler mapping quantum circuits onto interconnected QPU clusters.

Pipeline: parse OpenQASM 2.0, lower to the {rx, rz, h, cx} native set, ASAP
schedule, assign qubits to the two QPUs by cardinality-constrained minimum
bisection of the circuit's interaction graph, re-optimize over rolling time windows with
teleport migrations, then expand remote operations into EPR-mediated LOCC
gadgets whose semantics a branch-enumerating statevector oracle can verify.
"""
from .circuits import (Circuit, CircuitError, DurationModel, Gate, GateKind,
                       ScheduledCircuit, count_inter_qpu, count_two_qubit,
                       decompose_to_basis, schedule_asap)
from .qasm import QasmError, emit_qasm, parse_qasm
from .graphs import (InteractionGraph, PartitionVector, cheeger_screen,
                     conductance, interaction_graph, laplacian_eigenvalues)
from .partition import SizeSpec, cut_cost, exact_min_cut, kl_refine, spectral_partition
from .hardware import HardwareSpec, QPU, default_hardware, load_hardware_spec
from .mapper import CapacityError, MappedProgram, global_assign, local_optimize
from .gadgets import (ExpandedProgram, epr_prepare, expand_program,
                      expand_remote_cnot, expand_teleport)
from .sim import BranchState, SimulationError, equivalence_report, simulate

__version__ = "0.1.0"

__all__ = [
    "Circuit", "CircuitError", "DurationModel", "Gate", "GateKind",
    "ScheduledCircuit", "count_inter_qpu", "count_two_qubit",
    "decompose_to_basis", "schedule_asap",
    "QasmError", "emit_qasm", "parse_qasm",
    "InteractionGraph", "PartitionVector", "cheeger_screen", "conductance",
    "interaction_graph", "laplacian_eigenvalues",
    "SizeSpec", "cut_cost", "exact_min_cut", "kl_refine", "spectral_partition",
    "HardwareSpec", "QPU", "default_hardware", "load_hardware_spec",
    "CapacityError", "MappedProgram", "global_assign", "local_optimize",
    "ExpandedProgram", "epr_prepare", "expand_program",
    "expand_remote_cnot", "expand_teleport",
    "BranchState", "SimulationError", "equivalence_report", "simulate",
]
