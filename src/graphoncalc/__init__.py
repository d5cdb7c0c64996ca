"""Exact calculus of multigraph homomorphism densities on step kernels.

Multigraph enumeration and canonical forms, exact morphism counting,
rational step kernels with norms and tensor products, pinned and decorated
densities, higher directional derivatives with their scale-consistency
matrices, Taylor-coefficient recovery, and graph power series.
"""

from .calculus import (ConsistencyVector, DerivativeRequest, StarComparison,
                       extract_T, gamma, gateaux_exact, gateaux_numeric,
                       sidorenko_star_check)
from .consistency import (ConsistencyMatrix, StructureReport, apply_constraint,
                          pi_fiber_oracle, pi_formula, verify_structure)
from .density import (ARG, DecoratedDensity, density, eval_decorated,
                      labelled_density, multiplicativity_check, pins_from_json,
                      pins_to_json)
from .limits import DEFAULT_LIMITS, WIDE_LIMITS, CapExceeded, Limits
from .morphisms import (count_aut, count_hom, count_surj,
                        surjection_total_order, t_combinatorial)
from .multigraph import (Multigraph, canonical_key, complete_graph,
                         cycle_graph, disjoint_union, enumerate_Hn,
                         enumerate_Hnp, glue_product, graph_from_json,
                         graph_signature, graph_to_json, matching,
                         parallel_edges, path_graph, simplify, single_edge,
                         star_graph, strip_isolated)
from .series import (GeometricTail, PowerSeries, QuantumGraph, TaylorReport,
                     WhitneyMatrix, eval_quantum, eval_series,
                     lagrange_interpolate, quantum_from_json, quantum_multiply,
                     quantum_to_json, radius_of_convergence, taylor_recover,
                     whitney_matrix)
from .stepkernel import (StepKernel, basis_edge, cut_norm, from_graph,
                         is_admissible, kernel_from_json, kernel_to_json,
                         l1_norm, permute_parts, refine, tensor_product)

__all__ = [
    "ARG", "CapExceeded", "ConsistencyMatrix", "ConsistencyVector",
    "DEFAULT_LIMITS", "DecoratedDensity", "DerivativeRequest", "GeometricTail",
    "Limits", "Multigraph", "PowerSeries", "QuantumGraph", "StarComparison",
    "StepKernel", "StructureReport", "TaylorReport", "WIDE_LIMITS",
    "WhitneyMatrix", "apply_constraint", "basis_edge", "canonical_key",
    "complete_graph", "count_aut", "count_hom", "count_surj", "cut_norm",
    "cycle_graph", "density", "disjoint_union", "enumerate_Hn",
    "enumerate_Hnp", "eval_decorated", "eval_quantum", "eval_series",
    "extract_T", "from_graph", "gamma", "gateaux_exact", "gateaux_numeric",
    "glue_product", "graph_from_json", "graph_signature", "graph_to_json",
    "is_admissible", "kernel_from_json", "kernel_to_json", "l1_norm",
    "labelled_density", "lagrange_interpolate", "matching",
    "multiplicativity_check", "parallel_edges", "path_graph", "permute_parts",
    "pi_fiber_oracle", "pi_formula", "pins_from_json", "pins_to_json",
    "quantum_from_json", "quantum_multiply", "quantum_to_json",
    "radius_of_convergence", "refine", "sidorenko_star_check", "simplify",
    "single_edge", "star_graph", "strip_isolated", "surjection_total_order",
    "t_combinatorial", "taylor_recover", "tensor_product", "verify_structure",
    "whitney_matrix",
]
