"""Exact MAX MIN vertex cover and edge-ideal invariants.

A dependency-free library for computing minimal vertex covers, matching
numbers, independence-complex homology over a chosen coefficient field,
graded Betti tables (projective dimension and regularity) of edge ideals,
plus isomorph-free enumeration and the verification harnesses built on top.
"""

from .errors import GraphParseError, ParameterRangeError, ResourceLimitError
from .graphs import (Graph, complement, is_bipartite, is_chordal,
                     is_connected, is_gap_free, isolated_vertices)
from .families import (FamilySpec, build_family, complete_bipartite,
                       complete_graph, cycle_graph, extremal_pendant_clique,
                       parse_family, path_graph, pendant_clique, two_k2)
from .gio import (emit_graph, from_edge_list, from_graph6, parse_graph,
                  to_edge_list, to_graph6)
from .covers import (CoverReport, cover_report, enumerate_minimal_covers,
                     induced_matching_number, is_minimal_vertex_cover,
                     is_vertex_cover, matching_number,
                     maximal_independent_sets, tau_max)
from .homology import (GF2, GF3, QQ, FieldSpec, SimplicialComplex,
                       homology_dims, independence_complex,
                       reduced_euler_characteristic)
from .betti import (BettiTable, DualReport, betti_table, dual_check,
                    field_disagreements, pd_and_reg, render_betti_ascii)
from .spectrum import (SpectrumPlan, build_pdr_graph, build_spectrum_graph,
                       cover_lower_bound, pdr_range, plan_spectrum)
from .atlas import (CanonicalForm, FamilyTag, canonical_form,
                    enumerate_graphs, pdr_spectrum, random_graph,
                    recognize_family, verify_bound, verify_classification,
                    verify_spectrum)

__version__ = "0.1.0"
