"""Pluggable resistance backends: dense Woodbury vs sparse solver-backed.

Every dynamic consumer of ``inv(L_{-S})`` — the incremental tracker, the
forest-pool estimator folds, the per-node resistance queries — only ever
needs matvecs with the inverse, single columns, diagonal entries and
low-rank updates.  :class:`ResistanceBackend` captures exactly that contract
so :class:`repro.dynamic.IncrementalResistance` can speak one protocol while
the representation underneath is swapped.  Both backends keep their size
between factorisations: node joins and leaves reach them as triples on
spare or tombstoned identity rows (see
:class:`repro.dynamic.IncrementalResistance`), and :attr:`break_even` is
how many update columns the tracker absorbs before it refactorises.

* :class:`DenseResistanceBackend` — the historical engine: an explicit dense
  ``(n, n)`` inverse maintained by Sherman–Morrison / Woodbury updates
  (:mod:`repro.linalg.updates`).  O(n²) per sync and per refactorisation
  O(n³), but every query is a plain array read.  On edge-only journals this
  backend reproduces the pre-protocol behaviour **bit for bit**: same update
  functions, called in the same order on the same operands.  A dense update
  costs the same however many came before it, so its :attr:`break_even` is
  a fixed drift budget of 64.
* :class:`SparseResistanceBackend` — never materialises the inverse.  It
  keeps a :class:`repro.linalg.solvers.LaplacianSolver` of the grounded
  Laplacian at the last refactorisation (a dense-Cholesky hub core on
  hub-heavy patterns, SciPy ``splu`` otherwise, Jacobi-preconditioned
  conjugate gradient when neither factorisation is available) and absorbs
  journal bursts as an *implicit* low-rank correction: with base factor
  ``M₀`` and accumulated perturbation ``B D Bᵀ`` (one signed incidence
  column and one signed weight per edge event),

  ``inv(M₀ + B D Bᵀ) x = y − U · C⁻¹ D Bᵀ y``,  ``y = M₀⁻¹ x``

  where ``U = M₀⁻¹ B`` (one sparse solve per new event column) and
  ``C = I + D Bᵀ U`` is the rank-``t`` capacitance matrix.
  :attr:`break_even` is the factor's own estimate of the correction columns
  worth one refactorisation (:func:`repro.linalg.factor.break_even`).
  Diagonals are served by JL-sketched Hutchinson estimates (solver matvecs
  only, probe solves cached per factorisation) with an exact-column escape
  hatch; single columns are lazily materialised and version-cached.  Syncs
  cost Õ(m·t) instead of O(n²·t).

``choose_backend`` implements the ``auto`` policy (dense while the dense
inverse is small enough to win, sparse beyond); ``make_resistance_backend``
resolves user-facing specs (``"dense" | "sparse" | "auto"`` or an instance).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidParameterError
from repro.linalg.factor import break_even
from repro.linalg.solvers import LaplacianSolver, blocked_diagonal
from repro.linalg.updates import grounded_inverse_block_update
from repro.obs.metrics import REGISTRY
from repro.utils.faultpoints import fault_point
from repro.utils.timer import clock
from repro.utils.validation import check_integer

# (i, j, delta) in local row indices; j is None for a grounded endpoint.
Triple = Tuple[int, Optional[int], float]

# Per-backend hot-path metrics (no-ops until the default registry is enabled).
_SOLVE_SECONDS = REGISTRY.histogram(
    "repro_backend_solve_seconds",
    "Wall time of one backend solve/diagonal evaluation",
    labels=("backend",),
)
_BACKEND_INFO = REGISTRY.gauge(
    "repro_backend_info",
    "Active resistance backend (value is always 1; labels carry identity)",
    labels=("backend", "solver"),
)

#: `auto` picks the sparse backend at and beyond this many kept rows...
AUTO_SPARSE_NODES = 1500
#: ...provided the graph is actually sparse (average degree below this).
AUTO_SPARSE_DEGREE = 16.0

#: The sparse backend's ``diagonal(mode="auto")`` is exact up to this many
#: live rows and sketched beyond: small systems stay exact for free.
EXACT_DIAGONAL_ROWS = 1024


class ResistanceBackend:
    """Protocol for maintaining ``inv(M)`` of a grounded Laplacian ``M``.

    The tracker drives the lifecycle: :meth:`factorize` with the current
    grounded matrix (dense or sparse per :attr:`wants_sparse`), then a
    sequence of :meth:`apply_triples` mutations, with queries
    (:meth:`trace`, :meth:`diagonal`, :meth:`column`, :meth:`diag_entry`,
    :meth:`solve_many`) in between.  Mutations that would make the matrix
    singular must raise :class:`repro.exceptions.InvalidParameterError`
    *without committing*, which the tracker answers with a fresh
    factorisation.

    The base class owns the lazily materialised, version-cached column
    store: :meth:`column` solves a unit right-hand side on first access and
    caches the result until the next mutation (``epoch`` bump), so repeated
    single-column walks — the pool trace-cache top-ups — only pay for the
    columns they actually touch.
    """

    #: Spec string this backend answers to.
    name = "abstract"
    #: Whether :meth:`factorize` expects a scipy sparse matrix (else dense).
    wants_sparse = False
    #: Update columns worth one refactorisation: the tracker refactorises
    #: once it has absorbed this many since the last one, or on a burst of
    #: more (0: refactorise on every burst).
    break_even = 0.0

    def __init__(self) -> None:
        self._n = 0
        self._epoch = 0
        self._columns: Dict[int, np.ndarray] = {}
        #: Unit-vector solves actually performed (cache misses), for tests.
        self.column_solves = 0
        #: Rows that stand for no node: the spare and tombstoned identity
        #: rows a tracker keeps on a fixed-size factor (it sets this after
        #: every factorisation and node burst; 0 otherwise).
        self.free_rows = 0

    # ------------------------------------------------------------- lifecycle
    @property
    def n(self) -> int:
        """Number of kept (non-grounded) rows."""
        return self._n

    @property
    def epoch(self) -> int:
        """Monotone mutation counter; caches keyed on it stay coherent."""
        return self._epoch

    def factorize(self, matrix) -> None:
        """Rebuild from the current grounded matrix (dense or sparse)."""
        fault_point("backend.factorize", subject=self, backend=self.name)
        self._n = int(matrix.shape[0])
        self._factorize_impl(matrix)
        self._invalidate()
        _BACKEND_INFO.set(1.0, backend=self.name, solver=self.solver_used)

    @property
    def solver_used(self) -> str:
        """Identifier of the factorisation in force (for the info gauge)."""
        return "dense_inverse"

    def _factorize_impl(self, matrix) -> None:
        raise NotImplementedError

    def _invalidate(self) -> None:
        """Drop per-version caches after any mutation or refactorisation."""
        self._epoch += 1
        self._columns.clear()

    # --------------------------------------------------------------- queries
    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """``inv(M) @ rhs`` for a ``(n, k)`` (or ``(n,)``) right-hand side."""
        raise NotImplementedError

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``inv(M) @ rhs`` for one right-hand side."""
        return self.solve_many(np.asarray(rhs, dtype=np.float64).reshape(-1, 1))[:, 0]

    def column(self, index: int) -> np.ndarray:
        """Column ``inv(M) e_i``, lazily materialised and cached per epoch."""
        index = int(index)
        if not 0 <= index < self._n:
            raise InvalidParameterError(
                f"column index {index} outside [0, {self._n - 1}]"
            )
        cached = self._columns.get(index)
        if cached is None:
            unit = np.zeros(self._n, dtype=np.float64)
            unit[index] = 1.0
            cached = self.solve(unit)
            self._columns[index] = cached
            self.column_solves += 1
        return cached

    def diag_entry(self, index: int) -> float:
        """Exact diagonal entry ``inv(M)_ii`` (the per-node resistance)."""
        return float(self.column(index)[int(index)])

    def diagonal(self, mode: str = "auto") -> np.ndarray:
        """The diagonal of ``inv(M)``.

        ``mode`` is ``"exact"`` (n solves — the escape hatch), ``"sketch"``
        (Hutchinson estimate, where supported) or ``"auto"``.
        """
        raise NotImplementedError

    def trace(self, mode: str = "auto") -> float:
        """``Tr(inv(M))`` under the same ``mode`` semantics as ``diagonal``."""
        return float(self.diagonal(mode=mode).sum())

    def correction_columns(self, count: int
                           ) -> Optional[Tuple[np.ndarray, np.ndarray,
                                               np.ndarray, np.ndarray]]:
        """Corrected solves of the trailing ``count`` update columns, if free.

        The sparse backend already holds ``M₀⁻¹ B`` for every event column
        folded since the last factorisation, so ``inv(M) B`` for the most
        recent ``count`` columns costs only a correction re-apply — no new
        solves.  Consumers that need exactly those solves (the sharded
        engine's Schur stitch re-derives the pre-burst inverse from them)
        ask here first and fall back to :meth:`solve_many`.

        Returns ``(rows_i, rows_j, deltas, corrected)`` where row pairs and
        deltas identify the columns (``rows_j == -1`` marks a grounded
        endpoint) and ``corrected`` is the ``(n, count)`` solve block, or
        ``None`` when the backend cannot serve them for free (default).
        """
        return None

    # ------------------------------------------------------------- mutations
    def apply_triples(self, triples: Sequence[Triple]) -> None:
        """Fold a burst of rank-one terms ``M += Σ δ_k b_k b_kᵀ`` in.

        ``b_k = e_i − e_j`` (``e_i`` alone when ``j`` is ``None``): an edge
        event, or one term of a node join or leave.

        Raises :class:`InvalidParameterError` (without committing) when the
        batch would make ``M`` singular.
        """
        raise NotImplementedError


class DenseResistanceBackend(ResistanceBackend):
    """The historical engine: an explicit dense inverse under Woodbury updates.

    Every burst goes through the rank-``t`` block update, whose single-event
    case is the Sherman–Morrison fast path, so edge-only journals stay
    bit-identical to the pre-protocol :class:`IncrementalResistance`
    internals — same functions, same operand order, same float results.
    """

    name = "dense"
    wants_sparse = False
    #: A fixed drift budget: a dense update costs the same however many
    #: came before it, so only floating-point drift bounds how many the
    #: tracker absorbs between factorisations.
    break_even = 64.0

    def __init__(self) -> None:
        super().__init__()
        self.inverse: Optional[np.ndarray] = None

    def _factorize_impl(self, matrix) -> None:
        if sp.issparse(matrix):
            matrix = matrix.toarray()
        self.inverse = np.linalg.inv(np.asarray(matrix, dtype=np.float64))

    def adopt_inverse(self, inverse: np.ndarray) -> None:
        """Install a stored inverse (a checkpoint's) in place of a factorisation."""
        self.inverse = np.asarray(inverse, dtype=np.float64)
        self._n = int(self.inverse.shape[0])
        self._invalidate()
        _BACKEND_INFO.set(1.0, backend=self.name, solver=self.solver_used)

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        if self.inverse is None:
            raise InvalidParameterError(
                "backend has no factorisation yet; call factorize() first"
            )
        fault_point("backend.solve", subject=self, backend=self.name)
        rhs = np.asarray(rhs, dtype=np.float64)
        start = clock()
        result = self.inverse @ rhs
        if REGISTRY.enabled:
            _SOLVE_SECONDS.observe(clock() - start, backend=self.name)
        return result

    def column(self, index: int) -> np.ndarray:
        index = int(index)
        if not 0 <= index < self._n:
            raise InvalidParameterError(
                f"column index {index} outside [0, {self._n - 1}]"
            )
        return self.inverse[:, index]

    def diag_entry(self, index: int) -> float:
        return float(self.inverse[int(index), int(index)])

    def diagonal(self, mode: str = "auto") -> np.ndarray:
        return np.diag(self.inverse).copy()

    def trace(self, mode: str = "auto") -> float:
        return float(np.trace(self.inverse))

    def apply_triples(self, triples: Sequence[Triple]) -> None:
        if not triples:
            return
        fault_point("backend.apply", subject=self, backend=self.name)
        self.inverse = grounded_inverse_block_update(self.inverse, triples)
        self._invalidate()


class SparseResistanceBackend(ResistanceBackend):
    """Solver-backed maintenance of ``inv(M)`` without materialising it.

    Base solves run through one :class:`repro.linalg.solvers.LaplacianSolver`
    per factorisation (the hub core on hub-heavy patterns, sparse LU
    otherwise, Jacobi-preconditioned CG when neither factors);
    :attr:`solver_used` reports ``"hub_core"``, ``"splu"`` or ``"cg"``.
    ``diagonal(mode="auto")`` is exact up to :data:`EXACT_DIAGONAL_ROWS`
    live rows and sketched beyond.

    Parameters
    ----------
    probes:
        Rademacher probe count of the Hutchinson diagonal sketch.  Probe
        base solves are computed once per factorisation and cached; each
        burst only pays the rank-``t`` correction on the cached block.
    seed:
        Seed of the (deterministic) probe matrix stream.
    """

    name = "sparse"
    wants_sparse = True

    def __init__(self, probes: int = 24, seed: int = 0):
        super().__init__()
        self.probes = check_integer("probes", probes, minimum=1)
        self.seed = int(seed)
        self._factor_count = 0
        self._solver: Optional[LaplacianSolver] = None
        self._reset_lowrank()
        self._probe_z: Optional[np.ndarray] = None
        self._probe_base: Optional[np.ndarray] = None
        self._probe_corrected: Optional[Tuple[int, np.ndarray]] = None
        self._diag_cache: Optional[Tuple[int, str, np.ndarray]] = None

    # ------------------------------------------------------------- lifecycle
    @property
    def solver_used(self) -> str:
        return "none" if self._solver is None else self._solver.solver_used

    @property
    def correction_rank(self) -> int:
        """Rank of the low-rank correction accumulated since factorisation."""
        return int(self._deltas.size)

    def _reset_lowrank(self) -> None:
        self._deltas = np.zeros(0, dtype=np.float64)
        self._left = np.zeros((self._n, 0), dtype=np.float64)   # U = M0^-1 B
        self._capacitance = np.zeros((0, 0), dtype=np.float64)
        self._rows_i = np.zeros(0, dtype=np.int64)
        self._rows_j = np.zeros(0, dtype=np.int64)               # -1: grounded

    def _factorize_impl(self, matrix) -> None:
        matrix = sp.csc_matrix(matrix, dtype=np.float64)
        self._factor_count += 1
        self._solver = None  # a failed factorisation leaves no stale solver
        self._solver = LaplacianSolver(matrix)
        # Under CG, rebuilding the Jacobi preconditioner costs less than one
        # iterative column solve, so every burst refactorises (break_even 0).
        factor = self._solver.factor
        self.break_even = 0.0 if factor is None else break_even(factor, matrix)
        self._reset_lowrank()
        self._probe_z = None
        self._probe_base = None
        self._probe_corrected = None

    def _invalidate(self) -> None:
        super()._invalidate()
        self._diag_cache = None

    # ----------------------------------------------------------- base solves
    def _require_factor(self) -> None:
        if self._solver is None:
            raise InvalidParameterError(
                "backend has no factorisation yet; call factorize() first"
            )

    def _base_solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """``M₀⁻¹ rhs`` against the base factor (no low-rank correction)."""
        self._require_factor()
        return self._solver.solve_many(rhs)

    def _gather(self, block: np.ndarray) -> np.ndarray:
        """``Bᵀ block`` via incidence gathers: row k is ``X[i_k] - X[j_k]``."""
        picked = block[self._rows_i]
        mask = self._rows_j >= 0
        if np.any(mask):
            picked = picked.copy()
            picked[mask] -= block[self._rows_j[mask]]
        return picked

    def _correct(self, base_solution: np.ndarray) -> np.ndarray:
        """Apply the accumulated low-rank Woodbury correction to a solve."""
        if self._deltas.size == 0:
            return base_solution
        z = self._gather(base_solution)                      # (t, k)
        core = np.linalg.solve(self._capacitance, self._deltas[:, None] * z)
        return base_solution - self._left @ core

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        fault_point("backend.solve", subject=self, backend=self.name)
        rhs = np.asarray(rhs, dtype=np.float64)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        if rhs.shape[0] != self._n:
            raise InvalidParameterError(
                f"right-hand sides must have {self._n} rows, got {rhs.shape[0]}"
            )
        start = clock()
        result = self._correct(self._base_solve_many(rhs))
        if REGISTRY.enabled:
            _SOLVE_SECONDS.observe(clock() - start, backend=self.name)
        return result[:, 0] if squeeze else result

    # --------------------------------------------------------------- queries
    def diagonal(self, mode: str = "auto") -> np.ndarray:
        mode = str(mode or "auto").lower()
        if mode == "auto":
            # Decide on the live rows: free identity rows cost solves but
            # are not part of the graph the threshold is about.
            live = self._n - self.free_rows
            mode = "exact" if live <= EXACT_DIAGONAL_ROWS else "sketch"
        if self._diag_cache is not None:
            epoch, cached_mode, values = self._diag_cache
            if epoch == self._epoch and cached_mode == mode:
                return values.copy()
        self._require_factor()
        start = clock()
        if mode == "exact":
            values = blocked_diagonal(self.solve_many, self._n)
        elif mode == "sketch":
            values = self._sketched_diagonal()
        else:
            raise InvalidParameterError(
                f"diagonal mode must be 'auto', 'exact' or 'sketch', got {mode!r}"
            )
        if REGISTRY.enabled:
            _SOLVE_SECONDS.observe(clock() - start, backend=self.name)
        self._diag_cache = (self._epoch, mode, values)
        return values.copy()

    def _sketched_diagonal(self) -> np.ndarray:
        """Hutchinson diagonal from cached probe solves plus the correction.

        The probe matrix ``Z`` and its base solves ``Y₀ = M₀⁻¹ Z`` are fixed
        per factorisation; each mutation epoch only re-applies the rank-``t``
        correction to the cached block — O(t·p + t²) instead of p solves.
        """
        z, solved = self.probe_block()
        return np.mean(z * solved, axis=1)

    def probe_block(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rademacher probes ``Z``, fixed per factorisation, and ``inv(M) Z``.

        Shared by the sketched diagonal and the sharded engine's coupling
        estimates; the solves are the cached base block plus the correction.
        """
        if self._probe_z is None or self._probe_z.shape[0] != self._n:
            rng = np.random.default_rng(self.seed + 7919 * self._factor_count)
            self._probe_z = np.where(
                rng.random((self._n, self.probes)) < 0.5, -1.0, 1.0
            )
            self._probe_base = self._base_solve_many(self._probe_z)
            self._probe_corrected = None
        if self._probe_corrected is None or self._probe_corrected[0] != self._epoch:
            self._probe_corrected = (self._epoch, self._correct(self._probe_base))
        return self._probe_z, self._probe_corrected[1]

    def correction_columns(self, count: int
                           ) -> Optional[Tuple[np.ndarray, np.ndarray,
                                               np.ndarray, np.ndarray]]:
        count = int(count)
        if count < 1 or count > self._deltas.size:
            return None
        corrected = self._correct(self._left[:, -count:])
        return (self._rows_i[-count:].copy(), self._rows_j[-count:].copy(),
                self._deltas[-count:].copy(), corrected)

    # ------------------------------------------------------------- mutations
    def apply_triples(self, triples: Sequence[Triple]) -> None:
        fault_point("backend.apply", subject=self, backend=self.name)
        fresh: List[Triple] = []
        for i, j, delta in triples:
            i = int(i)
            if not 0 <= i < self._n:
                raise InvalidParameterError(f"index i={i} outside [0, {self._n - 1}]")
            if j is not None:
                j = int(j)
                if not 0 <= j < self._n:
                    raise InvalidParameterError(
                        f"index j={j} outside [0, {self._n - 1}]"
                    )
                if i == j:
                    raise InvalidParameterError("edge endpoints must be distinct rows")
            if float(delta) != 0.0:
                fresh.append((i, j, float(delta)))
        if not fresh:
            return
        rhs = np.zeros((self._n, len(fresh)), dtype=np.float64)
        rows_i = np.empty(len(fresh), dtype=np.int64)
        rows_j = np.full(len(fresh), -1, dtype=np.int64)
        for k, (i, j, _) in enumerate(fresh):
            rhs[i, k] = 1.0
            rows_i[k] = i
            if j is not None:
                rhs[j, k] = -1.0
                rows_j[k] = j
        columns = self._base_solve_many(rhs)                 # M0^-1 B_new
        left = (np.concatenate([self._left, columns], axis=1)
                if self._deltas.size else columns)
        deltas = np.concatenate(
            [self._deltas, [delta for _, _, delta in fresh]]
        )
        rows_i = np.concatenate([self._rows_i, rows_i])
        rows_j = np.concatenate([self._rows_j, rows_j])
        # Full Gram B^T U via incidence gathers on the combined blocks.
        gram = left[rows_i].copy()
        mask = rows_j >= 0
        if np.any(mask):
            gram[mask] -= left[rows_j[mask]]
        capacitance = np.eye(deltas.size) + deltas[:, None] * gram
        singular_values = np.linalg.svd(capacitance, compute_uv=False)
        if singular_values[-1] < 1e-12 * max(1.0, float(singular_values[0])):
            # Same contract (and threshold) as the dense block update: leave
            # the committed state untouched and let the tracker refactorise.
            raise InvalidParameterError(
                "singular block update: the capacitance matrix I + D B^T "
                "M0^-1 B is numerically singular (the batch would make the "
                "grounded matrix singular)"
            )
        self._left = left
        self._deltas = deltas
        self._rows_i = rows_i
        self._rows_j = rows_j
        self._capacitance = capacitance
        self._invalidate()


BackendSpec = Union[str, ResistanceBackend]


def choose_backend(n: int, m: int) -> str:
    """The ``auto`` policy: which backend a (n kept rows, m edges) graph gets.

    The dense engine wins while the explicit inverse is small (array reads,
    BLAS-3 batch updates); the sparse engine wins once n² dominates —
    provided the graph is genuinely sparse, since LU fill-in on dense graphs
    erodes its advantage.
    """
    n = max(int(n), 1)
    average_degree = 2.0 * max(int(m), 0) / n
    if n >= AUTO_SPARSE_NODES and average_degree <= AUTO_SPARSE_DEGREE:
        return "sparse"
    return "dense"


def make_resistance_backend(spec: BackendSpec = "dense",
                            n: int = 0, m: int = 0) -> ResistanceBackend:
    """Resolve a backend spec (``"dense" | "sparse" | "auto"`` or instance).

    ``n``/``m`` size the ``auto`` decision; an instance is returned as is.
    """
    if isinstance(spec, ResistanceBackend):
        return spec
    name = str(spec).lower()
    if name == "auto":
        name = choose_backend(n, m)
    if name == "dense":
        return DenseResistanceBackend()
    if name == "sparse":
        return SparseResistanceBackend()
    raise InvalidParameterError(
        f"unknown resistance backend {spec!r} (expected 'dense', 'sparse' "
        f"or 'auto')"
    )
