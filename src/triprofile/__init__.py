"""3-vertex subgraph density profiles of graphs and step graphons, the
boundary curves of their pairwise feasible regions, the extremal
constructions attaining them, and the associated clique-structure
maximization."""

from .boundary import (CurveParams, MembershipVerdict, Region, edge_partition,
                       isolated_mass_for_cotriangle,
                       linked_cliques_cross_density, linked_cliques_profile,
                       linked_cliques_sigma_for_triangle, membership,
                       min_triangle_density, min_triangle_density_inverse,
                       parse_region, piece_tables, region_coords,
                       s03_upper_bound, s13_upper_bound, s13_upper_piece,
                       s13_upper_slope, sample_boundary, three_cliques_profile,
                       three_cliques_sigma_for_triangle)
from .census import (DensityVector, Graph, StepGraphon, TripleCensus,
                     census_brute, census_fast, densities, graphon_densities,
                     graphon_densities_brute, read_edge_list,
                     read_step_graphon, write_edge_list, write_step_graphon)
from .constructions import (FAMILIES, Family, FamilySpec, blowup_graph,
                            clique_plus_isolated_graphon, finite_census,
                            g0_graph, g0_graphon, g1_graph, g1_graphon,
                            g1_profile, g2_graphon, g2_profile, limit_graphon,
                            min_triangle_graphon, realize, s12_graphon,
                            s23_graphon, sample_w_random_graph)
from .errors import DomainError, InputFormatError
from .optimizer import (Candidate, FeasiblePoint, OptimizationResult,
                        analytic_candidates, closed_form_max, maximize_grid,
                        objective, optimal_sigma, stationarity_residual,
                        stationary_y, validate_alpha)

__version__ = "0.1.0"
