"""2D H(curl)-conforming Stokes discretization with weak no-slip boundary conditions."""

from .analysis import (ErrorBundle, HodgeDecomposition, TraceConstants,
                       compute_eoc, compute_errors, estimate_infsup,
                       estimate_trace_constants, hodge_decompose)
from .cases import ManufacturedCase, get_case
from .forms import (BoundaryData, SparseOperator, assemble_b,
                    assemble_curl_curl, assemble_divergence_rhs, assemble_mass,
                    assemble_nitsche, assemble_rhs)
from .mesh import (Mesh, generate_l_shape, generate_square_with_hole,
                   generate_unit_square, jitter, refine_uniform,
                   two_triangle_square)
from .quadrature import QuadRule, edge_rule, triangle_rule
from .solver import SaddleSystem, SolveReport, kernel_probe, solve
from .spaces import (DiscreteField, EdgeSpace, NodalSpace, build_edge_space,
                     build_nodal_space, grad_inclusion_check, interpolate_edge,
                     interpolate_nodal)

__version__ = "0.1.0"
