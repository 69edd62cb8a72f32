"""Laplacian linear algebra: matrices, solvers, JL projections, Schur complements."""

from repro.linalg.laplacian import (
    laplacian_matrix,
    laplacian_dense,
    grounded_laplacian,
    grounded_laplacian_dense,
    transition_matrix,
)
from repro.linalg.pseudoinverse import laplacian_pseudoinverse, pseudoinverse_diagonal
from repro.linalg.factor import factorize_spd
from repro.linalg.solvers import (
    LaplacianSolver,
    SolverMethod,
    build_preconditioner,
    estimate_trace_of_inverse,
)
from repro.linalg.jl import jl_dimension
from repro.linalg.backends import (
    DenseResistanceBackend,
    ResistanceBackend,
    SparseResistanceBackend,
    choose_backend,
    make_resistance_backend,
)
from repro.linalg.schur import (
    schur_complement,
    schur_onto,
    grounded_inverse_block,
)
from repro.linalg.incidence import grounded_incidence_factor
from repro.linalg.updates import (
    grounded_inverse,
    grounded_inverse_block_update,
    grounded_inverse_downdate,
    grounded_inverse_edge_update,
)

__all__ = [
    "laplacian_matrix",
    "laplacian_dense",
    "grounded_laplacian",
    "grounded_laplacian_dense",
    "transition_matrix",
    "laplacian_pseudoinverse",
    "pseudoinverse_diagonal",
    "factorize_spd",
    "LaplacianSolver",
    "SolverMethod",
    "build_preconditioner",
    "estimate_trace_of_inverse",
    "jl_dimension",
    "ResistanceBackend",
    "DenseResistanceBackend",
    "SparseResistanceBackend",
    "choose_backend",
    "make_resistance_backend",
    "schur_complement",
    "schur_onto",
    "grounded_inverse_block",
    "grounded_incidence_factor",
    "grounded_inverse",
    "grounded_inverse_block_update",
    "grounded_inverse_downdate",
    "grounded_inverse_edge_update",
]
