"""Incompressible Navier-Stokes on polygonal domains by a second-order
incremental pressure-correction scheme, with the discrete energy analysis
verified at run time.  Any conforming triangulation will do (Mesh,
read_mesh), with the boundary taken from its topology; config files and
generate_structured_unit_square build meshes of the unit square.

The solver advances a BDF2 projection scheme on conforming Lagrange
elements and checks, every step, the energy identity, the orthogonality of
the velocity splitting, the weak divergence constraint, and the energy
neutrality of the skew-symmetrized convection form.  Trajectory-level
diagnostics assert a global energy bound with an explicit constant, exact
interpolant-difference norms, a time-continuity modulus, and the discrete
Gronwall lemma behind the bound.  Manufactured cases drive error norms and
convergence-rate studies.
"""

from .assembly import (
    OperatorSet,
    assemble_convection,
    assemble_load,
    build_operators,
    project_L2_onto_Uh,
)
from .diagnostics import (
    EnergyLedger,
    EnergyReport,
    discrete_gronwall_bound,
    energy_inequality_check,
    gronwall_monotone_bound,
    interpolant_difference_norms,
    time_modulus,
)
from .fe import FESpace, QuadratureRule, ReferenceElement, build_space, quad_rule
from .fileio import ConfigError, parse_config, write_ledger_csv, write_rate_table_csv, write_vtk
from .linsolve import LinearSolveError, solve_momentum, solve_spd
from .mesh import Mesh, MeshFormatError, generate_structured_unit_square, read_mesh, write_mesh
from .mms import (
    ManufacturedCase,
    case_by_name,
    convergence_study,
    error_norms,
    stream_vortex_case,
    zero_case,
)
from .scheme import (
    Level,
    SchemeConfig,
    SchemeError,
    Trajectory,
    init_state,
    run,
    step,
)

__version__ = "0.1.0"
