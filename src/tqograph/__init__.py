"""Graph-state distance criteria, derived codes, and brute-force oracles."""

__version__ = "0.1.0"

from .gf2 import BitString, Gf2Matrix
from .graphs import FamilySpec, Graph, gen_family, toric3d_vertex, toric_vertex
from .analysis import SetQuery, c_set, d_max
from .oracle import StateVector, build_graph_state, graph_basis_state
from .stabilizer import Pauli, StabilizerGroup, code_pair_stabilizers, verify_3d_code

__all__ = [
    "BitString",
    "Gf2Matrix",
    "FamilySpec",
    "Graph",
    "gen_family",
    "toric_vertex",
    "toric3d_vertex",
    "SetQuery",
    "c_set",
    "d_max",
    "StateVector",
    "build_graph_state",
    "graph_basis_state",
    "Pauli",
    "StabilizerGroup",
    "code_pair_stabilizers",
    "verify_3d_code",
]
