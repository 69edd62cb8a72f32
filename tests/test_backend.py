"""Tests for the pluggable resistance backends (repro.linalg.backends).

The contract under test: the dense and sparse backends must be
interchangeable — identical churn journals replayed to the same version
agree to tight tolerances — while the sparse engine never materialises the
inverse and the dense engine stays bit-compatible with the historical
update kernels.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.centrality.cfcc import grounded_trace
from repro.dynamic import (
    DynamicCFCM,
    DynamicGraph,
    IncrementalResistance,
    random_churn_journal,
    random_update_journal,
)
from repro.exceptions import (
    BackendUnavailableError,
    ConvergenceError,
    GraphError,
    InvalidParameterError,
)
from repro.graph import generators
from repro.linalg import (
    DenseResistanceBackend,
    LaplacianSolver,
    SparseResistanceBackend,
    build_preconditioner,
    choose_backend,
    make_resistance_backend,
)
import repro.linalg.backends as backends_module
import repro.linalg.solvers as solvers_module
from repro.linalg.backends import AUTO_SPARSE_NODES
from repro.linalg.factor import HubCoreFactor, factorize_spd
from repro.linalg.laplacian import grounded_laplacian
from repro.linalg.solvers import SOLVE_BLOCK

GROUP = [0, 1]


def _pair(graph):
    """Dense and sparse trackers over the same DynamicGraph journal."""
    dense = IncrementalResistance(graph, GROUP, backend="dense")
    sparse = IncrementalResistance(graph, GROUP, backend="sparse")
    return dense, sparse


def _dense_grounded_inverse(graph, group):
    """Fresh dense inverse of the grounded Laplacian: the oracle."""
    grounded = set(group)
    keep = [i for i, node in enumerate(graph.snapshot_mapping())
            if int(node) not in grounded]
    return np.linalg.inv(graph.laplacian_dense()[np.ix_(keep, keep)])


def _relative_error(actual, expected) -> float:
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


def _assert_close(dense, sparse, rtol=1e-6):
    assert sparse.synced_version == dense.synced_version
    # Rows are matched by node id: a join takes a free row, possibly
    # mid-array, and the two backends may hold different free rows.
    np.testing.assert_array_equal(np.sort(sparse.kept), np.sort(dense.kept))
    np.testing.assert_allclose(
        sparse.diagonal(mode="exact")[np.argsort(sparse.kept)],
        dense.diagonal()[np.argsort(dense.kept)], rtol=rtol, atol=1e-12)
    assert sparse.trace() == pytest.approx(dense.trace(), rel=rtol)


class TestDenseSparseParity:
    def test_edge_churn_journal_agrees(self, small_ba):
        graph = DynamicGraph(small_ba)
        dense, sparse = _pair(graph)
        rng = np.random.default_rng(7)
        for _ in range(6):
            random_update_journal(graph, 8, rng)
            _assert_close(dense.sync(), sparse.sync())
        # Sparse never refactorised: the whole journal was absorbed as
        # low-rank corrections against the original factor.
        assert sparse.stats.refreshes == 0
        assert sparse.backend._deltas.size > 0

    def test_node_churn_journal_agrees(self, small_ba):
        graph = DynamicGraph(small_ba)
        dense, sparse = _pair(graph)
        rng = np.random.default_rng(11)
        history = []
        for _ in range(5):
            random_churn_journal(graph, 6, rng, node_probability=0.4,
                                 protected=GROUP)
            _assert_close(dense.sync(), sparse.sync())
            stats = sparse.stats
            history.append((stats.refreshes, stats.node_grows,
                            stats.node_downdates))
        # The first bursts' joins find no free row, so each refactorises and
        # adds spare rows.  After that, the later bursts' joins and leaves
        # are absorbed as triples on the fixed-size factor, with no
        # refactorisation.
        assert history[1][0] == history[-1][0] > 0
        assert history[-1][1] > history[1][1]
        assert history[-1][2] > history[1][2]

    def test_compaction_replay_agrees(self, small_ba):
        graph = DynamicGraph(small_ba)
        dense, sparse = _pair(graph)
        rng = np.random.default_rng(13)
        random_churn_journal(graph, 10, rng, node_probability=0.3,
                             protected=GROUP)
        graph.compact(graph.version)
        random_update_journal(graph, 4, rng)
        _assert_close(dense.sync(), sparse.sync())

    def test_long_journal_refactorises_at_break_even(self, small_ba):
        graph = DynamicGraph(small_ba)
        sparse = IncrementalResistance(graph, GROUP, backend="sparse")
        limit = sparse.backend.break_even
        assert 6 < limit < 1000
        rng = np.random.default_rng(17)
        for _ in range(1000):
            solved = sparse.backend._deltas.size
            random_update_journal(graph, 6, rng)
            sparse.sync()
            # Bursts are absorbed until the columns solved since the last
            # factorisation reach the factor's break-even; the next burst
            # refactorises instead.
            if sparse.stats.refreshes:
                break
            assert solved < limit
        assert sparse.stats.refreshes == 1
        assert limit <= solved < limit + 6
        assert sparse.backend._deltas.size == 0
        expected = grounded_trace(graph.snapshot(), graph.compact_nodes(GROUP))
        assert sparse.trace() == pytest.approx(expected, rel=1e-8)

    def test_weighted_edges_agree(self, small_ba):
        graph = DynamicGraph(small_ba)
        dense, sparse = _pair(graph)
        rng = np.random.default_rng(19)
        edges = list(small_ba.edges())[:6]
        for u, v in edges:
            graph.update_weight(u, v, float(rng.uniform(0.5, 3.0)))
        _assert_close(dense.sync(), sparse.sync())


def _oracle_error(tracker, graph, group, probes) -> float:
    """Worst relative error of exact diagonals and columns vs a fresh inverse."""
    grounded = set(group)
    reference = _dense_grounded_inverse(graph, group)
    position = {int(x): i for i, x in enumerate(
        x for x in graph.snapshot_mapping() if int(x) not in grounded)}
    rows = np.array([position[int(x)] for x in tracker.kept])
    errors = [_relative_error(tracker.diagonal(mode="exact"),
                              np.diag(reference)[rows])]
    for node in probes:
        errors.append(_relative_error(tracker.resistance_column(node),
                                      reference[rows, position[node]]))
    return max(errors)


def _remove_a_neighbour(graph, anchor, group):
    """Remove the first neighbour of ``anchor`` whose departure keeps connectivity."""
    for node in sorted(graph.neighbors(anchor)):
        if node not in group and not graph._node_removal_disconnects(node):
            return graph.remove_node(node)
    raise AssertionError("no removable neighbour")


class TestNodeChurnOracle:
    """Node joins and leaves as triples on a fixed-size factor, every backend."""

    @pytest.fixture(params=["dense", "hub_core", "splu"])
    def world(self, request, hub_ba):
        if request.param == "dense":
            return DynamicGraph(hub_ba), [0, 1], "dense", "dense_inverse"
        if request.param == "hub_core":
            return DynamicGraph(hub_ba), [0, 1], "sparse", "hub_core"
        return (DynamicGraph(generators.grid_graph(8, 8)), [0, 27], "sparse",
                "splu")

    def _check(self, tracker, graph, group, probes):
        tracker.sync()
        assert len(tracker.kept) == len(tracker.diagonal()) \
            == graph.n - len(group)
        assert _oracle_error(tracker, graph, group, probes) < 1e-10

    def test_joins_and_leaves_match_a_fresh_inverse(self, world):
        graph, group, backend, solver = world
        tracker = IncrementalResistance(graph, group, backend=backend)
        assert tracker.backend.solver_used == solver
        assert tracker.backend.n == len(tracker.kept)

        # A join that finds no free row refactorises and adds spare rows,
        # twice the joins seen since the previous factorisation.
        first = graph.add_node([2, 5]).node
        self._check(tracker, graph, group, [first, 3])
        assert tracker.stats.refreshes == 1
        assert tracker.backend.n == len(tracker.kept) + 2

        # One burst: a leave of a neighbour of the group; a join onto a
        # grounded node, which reuses the fresh tombstone; an edge event;
        # and a leave of a node that joined in the same burst.
        departed = _remove_a_neighbour(graph, group[0], group).node
        slot = list(tracker.kept).index(departed)
        reused = graph.add_node([group[0], first]).node
        passing = graph.add_node([reused, 4]).node
        graph.add_edge(passing, 6)
        graph.remove_node(passing)
        self._check(tracker, graph, group, [reused, first, 3])
        assert list(tracker.kept).index(reused) == slot
        assert tracker.stats.refreshes == 1
        assert tracker.stats.node_grows == 2
        assert tracker.stats.node_downdates == 2
        assert tracker.stats.batch_updates == 1

        # One join more than there are free rows: refactorise again, sized
        # by the joins since the first refactorisation (2 before, spare + 1
        # now).
        spare = tracker.backend.n - len(tracker.kept)
        for anchor in range(spare + 1):
            graph.add_node([first, 7 + anchor])
        self._check(tracker, graph, group, [first])
        assert tracker.stats.refreshes == 2
        assert tracker.backend.n - len(tracker.kept) == 2 * (2 + spare + 1)
        assert tracker.trace() == pytest.approx(
            np.trace(_dense_grounded_inverse(graph, group)), rel=1e-10)

    def test_join_attached_only_to_the_group(self, world):
        # Every edge of the join goes to the grounded set, so its only path
        # to ground is those edges: R(u, S) = 1/d.
        graph, group, backend, _ = world
        tracker = IncrementalResistance(graph, group, backend=backend)
        _remove_a_neighbour(graph, 3, group)  # a tombstone for the join
        joined = graph.add_node([(group[0], 0.5), (group[1], 1.5)]).node
        self._check(tracker, graph, group, [joined, 3])
        assert tracker.stats.refreshes == 0
        assert tracker.stats.node_grows == 1
        assert tracker.resistance_to_group(joined) == pytest.approx(
            0.5, rel=1e-10)

    def test_verify_probes_free_rows(self, world):
        graph, group, backend, _ = world
        tracker = IncrementalResistance(graph, group, backend=backend)
        graph.add_node([2, 5])
        tracker.sync()
        _remove_a_neighbour(graph, 3, group)
        tracker.sync()
        assert tracker.backend.n > len(tracker.kept) + 1  # a tombstone too
        assert tracker.verify(repair=False) < 1e-10

    def test_edge_only_tracker_keeps_no_free_rows(self, world):
        graph, group, backend, _ = world
        tracker = IncrementalResistance(graph, group, backend=backend)
        rng = np.random.default_rng(3)
        for _ in range(3):
            random_update_journal(graph, 5, rng)
            tracker.sync()
            assert tracker.backend.n == len(tracker.kept) == graph.n - len(group)
        assert _oracle_error(tracker, graph, group, [3]) < 1e-10


class TestSparseNodeChurnOracle:
    """What node churn leaves on the sparse engine's diagonal policy."""

    def test_auto_diagonal_decides_on_live_rows(self, monkeypatch):
        """Spare and tombstoned rows do not push a tracker that fits under
        ``EXACT_DIAGONAL_ROWS`` onto sketched diagonals."""
        monkeypatch.setattr(backends_module, "EXACT_DIAGONAL_ROWS", 120)
        graph = DynamicGraph(generators.barabasi_albert(120, 3, seed=1))
        tracker = IncrementalResistance(graph, [0], backend="sparse")
        graph.remove_node(119)
        graph.add_node([1, 2])
        graph.add_node([3, 4])
        tracker.sync()
        assert len(tracker.kept) == 120 and tracker.backend.n == 124
        assert tracker.trace() == pytest.approx(
            np.trace(_dense_grounded_inverse(graph, [0])), rel=0, abs=1e-10)


class TestSketchedDiagonal:
    def test_sketch_tracks_exact_within_tolerance(self, medium_ba,
                                                  monkeypatch):
        monkeypatch.setattr(backends_module, "EXACT_DIAGONAL_ROWS", 0)
        graph = DynamicGraph(medium_ba)
        sparse = IncrementalResistance(
            graph, GROUP, backend=SparseResistanceBackend(probes=256, seed=5))
        exact = grounded_trace(graph.snapshot(), graph.compact_nodes(GROUP))
        assert sparse.trace() == pytest.approx(exact, rel=0.1)
        # The escape hatch stays exact regardless of the default policy.
        dense = IncrementalResistance(graph, GROUP, backend="dense")
        np.testing.assert_allclose(sparse.diagonal(mode="exact"),
                                   dense.diagonal(), rtol=1e-8)

    def test_exact_diagonal_solves_in_blocks(self):
        graph = DynamicGraph(generators.barabasi_albert(600, 2, seed=0))
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        random_update_journal(graph, 4, np.random.default_rng(3))
        tracker.sync()
        backend = tracker.backend
        assert 2 * SOLVE_BLOCK < backend.n <= 3 * SOLVE_BLOCK
        one_shot = np.diag(backend.solve_many(np.eye(backend.n)))
        np.testing.assert_allclose(backend.diagonal(mode="exact"), one_shot,
                                   rtol=1e-12, atol=0)

    def test_sketch_is_deterministic_and_cached(self, small_ba, monkeypatch):
        monkeypatch.setattr(backends_module, "EXACT_DIAGONAL_ROWS", 0)
        graph = DynamicGraph(small_ba)
        backend = SparseResistanceBackend(probes=32, seed=9)
        tracker = IncrementalResistance(graph, GROUP, backend=backend)
        first = tracker.diagonal()
        np.testing.assert_array_equal(first, tracker.diagonal())
        graph.add_edge(5, 25)
        second = tracker.diagonal()
        assert not np.array_equal(first, second)


def _unavailable(*args, **kwargs):
    raise RuntimeError("factorisation unavailable")


class TestCGFallback:
    def test_explicit_cg_solver_matches_dense(self, small_ba, monkeypatch):
        monkeypatch.setattr(solvers_module, "factorize_spd", _unavailable)
        graph = DynamicGraph(small_ba)
        dense = IncrementalResistance(graph, GROUP, backend="dense")
        cg = IncrementalResistance(graph, GROUP, backend="sparse")
        assert cg.backend.solver_used == "cg"
        rng = np.random.default_rng(23)
        random_update_journal(graph, 5, rng)
        dense.sync()
        cg.sync()
        np.testing.assert_allclose(cg.diagonal(mode="exact"),
                                   dense.diagonal(), rtol=1e-6)

    def test_auto_falls_back_when_splu_unavailable(self, small_ba, monkeypatch):
        import repro.linalg.factor as factor_module

        monkeypatch.setattr(factor_module.spla, "splu", _unavailable)
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        assert tracker.backend.solver_used == "cg"
        assert tracker.backend.break_even == 0.0
        expected = grounded_trace(graph.snapshot(), graph.compact_nodes(GROUP))
        assert tracker.trace() == pytest.approx(expected, rel=1e-6)

    def test_splu_only_solver_fails_over_to_dense(self, small_ba, monkeypatch):
        # The whole sparse factorisation fails, CG fallback included.
        monkeypatch.setattr(backends_module.SparseResistanceBackend,
                            "_factorize_impl", _unavailable)
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        # The degradation ladder swaps in the dense fallback instead of
        # surfacing the factorisation failure; answers stay correct.
        assert tracker.backend.name == "dense"
        assert tracker.stats.failovers == 1
        expected = grounded_trace(graph.snapshot(), graph.compact_nodes(GROUP))
        assert tracker.trace() == pytest.approx(expected, rel=1e-9)

    def test_failed_dense_fallback_is_terminal(self, small_ba, monkeypatch):
        monkeypatch.setattr(backends_module.SparseResistanceBackend,
                            "_factorize_impl", _unavailable)
        monkeypatch.setattr(backends_module.DenseResistanceBackend,
                            "factorize", _unavailable)
        graph = DynamicGraph(small_ba)
        with pytest.raises(BackendUnavailableError):
            IncrementalResistance(graph, GROUP, backend="sparse")


class TestHubCore:
    """Independent-set elimination onto a dense Cholesky core."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_queries_match_dense_inverse(self, hub_ba, weighted):
        rng = np.random.default_rng(31)
        weights = rng.uniform(0.5, 3.0, size=hub_ba.m) if weighted else None
        graph = DynamicGraph(hub_ba, weights=weights)
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        backend = tracker.backend
        assert backend.solver_used == "hub_core"
        random_update_journal(graph, 8, rng)
        tracker.sync()
        assert backend._deltas.size > 0
        reference = _dense_grounded_inverse(graph, GROUP)

        rhs = rng.standard_normal((backend.n, 3))
        assert _relative_error(backend.solve_many(rhs), reference @ rhs) < 1e-10
        assert _relative_error(backend.diagonal(mode="exact"),
                               np.diag(reference)) < 1e-10
        for index in (0, backend.n // 2, backend.n - 1):
            assert _relative_error(backend.column(index),
                                   reference[:, index]) < 1e-10
        count = backend._deltas.size
        rows_i, rows_j, _, corrected = backend.correction_columns(count)
        incidence = np.zeros((backend.n, count))
        incidence[rows_i, np.arange(count)] = 1.0
        grounded = rows_j < 0
        incidence[rows_j[~grounded], np.arange(count)[~grounded]] = -1.0
        assert _relative_error(corrected, reference @ incidence) < 1e-10

    def test_selection_follows_the_degree_ratio(self, hub_ba):
        lattice = IncrementalResistance(
            DynamicGraph(generators.grid_graph(12, 12)), [0], backend="sparse")
        assert lattice.backend.solver_used == "splu"
        hub = IncrementalResistance(DynamicGraph(hub_ba), GROUP,
                                    backend="sparse")
        assert hub.backend.solver_used == "hub_core"

    @pytest.mark.parametrize("breakage", ["cholesky", "core_cap"])
    def test_falls_back_to_sparse_lu(self, hub_ba, monkeypatch, breakage):
        import repro.linalg.factor as factor_module

        if breakage == "cholesky":
            def broken(*args, **kwargs):
                raise np.linalg.LinAlgError("core is not positive definite")

            monkeypatch.setattr(factor_module.sla, "cho_factor", broken)
        else:
            monkeypatch.setattr(factor_module, "MAX_CORE_ROWS", 1)
        graph = DynamicGraph(hub_ba)
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        assert tracker.backend.solver_used == "splu"
        assert tracker.stats.failovers == 0
        assert _relative_error(tracker.diagonal(mode="exact"),
                               np.diag(_dense_grounded_inverse(graph, GROUP))
                               ) < 1e-10

    @pytest.mark.parametrize("defect", ["pivot", "asymmetric"])
    def test_matrices_outside_the_core_contract_get_lu(self, hub_ba, defect):
        matrix, _ = grounded_laplacian(hub_ba, GROUP)
        matrix = matrix.tolil()
        leaf = int(np.argmin(hub_ba.degrees[2:]))
        if defect == "pivot":
            matrix[leaf, leaf] = -matrix[leaf, leaf]
        else:
            other = next(c for c in matrix.rows[leaf] if c != leaf)
            matrix[leaf, other] = 2.0 * matrix[leaf, other]
        matrix = matrix.tocsc()
        factor = factorize_spd(matrix)
        assert not isinstance(factor, HubCoreFactor)
        rhs = np.linspace(-1.0, 1.0, matrix.shape[0])
        assert _relative_error(factor.solve(rhs),
                               np.linalg.solve(matrix.toarray(), rhs)) < 1e-10

    def test_laplacian_solver_sparse_method_uses_the_core(self, hub_ba):
        matrix, _ = grounded_laplacian(hub_ba, GROUP)
        solver = LaplacianSolver(matrix)
        assert solver.solver_used == "hub_core"
        assert isinstance(solver.factor, HubCoreFactor)
        rhs = np.random.default_rng(5).standard_normal((matrix.shape[0], 4))
        assert _relative_error(solver.solve_many(rhs),
                               np.linalg.solve(matrix.toarray(), rhs)) < 1e-10


class TestSingularUpdates:
    def test_singular_triple_raises_without_committing(self, star6):
        # Star grounded at the hub: the kept block is the identity, so
        # zeroing one leaf's degree makes it exactly singular.
        graph = DynamicGraph(star6)
        backend = SparseResistanceBackend()
        lap = sp.csc_matrix(graph.laplacian_dense()[1:, 1:])
        backend.factorize(lap)
        before_trace = backend.trace(mode="exact")
        before_epoch = backend._epoch
        with pytest.raises(InvalidParameterError, match="singular"):
            backend.apply_triples([(2, None, -1.0)])
        assert backend._epoch == before_epoch
        assert backend._deltas.size == 0
        assert backend.trace(mode="exact") == pytest.approx(before_trace)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_near_singular_reweight_falls_back_to_refresh(self, star6, backend):
        graph = DynamicGraph(star6)
        tracker = IncrementalResistance(graph, [0], backend=backend)
        tracker.sync()
        graph.update_weight(0, 3, 1e-13)
        tracker.sync()
        assert tracker.stats.singular_refreshes >= 1
        # laplacian_dense (not the snapshot) keeps the 1e-13 weight.
        reference = np.linalg.inv(graph.laplacian_dense()[1:, 1:])
        np.testing.assert_allclose(tracker.diagonal(mode="exact"),
                                   np.diag(reference), rtol=1e-6)

    def test_removing_grounded_node_raises_graph_error(self, small_ba):
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, [7], backend="sparse")
        tracker.sync()
        graph.remove_node(7)
        with pytest.raises(GraphError, match="grounded"):
            tracker.sync()


class TestLazyColumns:
    def test_columns_cached_per_epoch(self, small_ba):
        graph = DynamicGraph(small_ba)
        dense = IncrementalResistance(graph, GROUP, backend="dense")
        sparse = IncrementalResistance(graph, GROUP, backend="sparse")
        node = 17
        column = sparse.resistance_column(node)
        np.testing.assert_allclose(column, dense.resistance_column(node),
                                   rtol=1e-8)
        assert sparse.backend.column_solves == 1
        sparse.resistance_column(node)
        assert sparse.backend.column_solves == 1  # cache hit
        graph.add_edge(3, 40)
        sparse.resistance_column(node)
        assert sparse.backend.column_solves == 2  # epoch bump invalidated
        # The dense backend serves columns as array reads, never solves.
        dense.resistance_column(node)
        assert dense.backend.column_solves == 0

    def test_grounded_column_is_zero(self, small_ba):
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        assert not tracker.resistance_column(GROUP[0]).any()

    def test_sparse_backend_refuses_dense_inverse(self, small_ba):
        graph = DynamicGraph(small_ba)
        tracker = IncrementalResistance(graph, GROUP, backend="sparse")
        with pytest.raises(InvalidParameterError, match="materialise"):
            tracker.inverse


class TestBackendSelection:
    def test_choose_backend_policy(self):
        assert choose_backend(100, 300) == "dense"
        assert choose_backend(AUTO_SPARSE_NODES, 3 * AUTO_SPARSE_NODES) == "sparse"
        # Dense graphs stay on the dense backend even at scale (LU fill-in).
        assert choose_backend(5000, 5000 * 40) == "dense"

    def test_make_resistance_backend_specs(self):
        assert make_resistance_backend("dense").name == "dense"
        assert make_resistance_backend("auto", n=100, m=300).name == "dense"
        auto = make_resistance_backend("auto", n=4000, m=12000)
        assert auto.name == "sparse"
        instance = DenseResistanceBackend()
        assert make_resistance_backend(instance) is instance

    def test_make_resistance_backend_rejections(self):
        with pytest.raises(InvalidParameterError):
            make_resistance_backend("banana")

    def test_query_before_factorize_raises(self):
        with pytest.raises(InvalidParameterError, match="factorize"):
            SparseResistanceBackend().trace()
        with pytest.raises(InvalidParameterError, match="factorize"):
            DenseResistanceBackend().solve_many(np.ones((3, 1)))

    def test_sparse_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            SparseResistanceBackend(probes=0)
        with pytest.raises(InvalidParameterError, match="probes"):
            SparseResistanceBackend(probes=2.5)


class TestPreconditionerPlumbing:
    def test_build_preconditioner_kinds(self, small_ba):
        lap = sp.csc_matrix(DynamicGraph(small_ba).laplacian_dense()[2:, 2:])
        operator = build_preconditioner(lap)
        applied = operator.matvec(np.ones(lap.shape[0]))
        np.testing.assert_allclose(applied, 1.0 / lap.diagonal())
        with pytest.raises(InvalidParameterError):
            build_preconditioner(sp.csc_matrix(np.diag([1.0, 0.0])))

    def test_solve_grounded_tolerances(self, small_ba, monkeypatch):
        monkeypatch.setattr(solvers_module, "factorize_spd", _unavailable)
        lap = sp.csc_matrix(DynamicGraph(small_ba).laplacian_dense()[2:, 2:])
        rhs = np.ones(lap.shape[0])
        direct = np.linalg.solve(lap.toarray(), rhs)
        solver = LaplacianSolver(lap)
        assert solver.solver_used == "cg"
        np.testing.assert_allclose(solver.solve(rhs), direct, rtol=1e-6)
        monkeypatch.setattr(solvers_module, "CG_MAXITER", 1)
        with pytest.raises(ConvergenceError):
            solver.solve(rhs)


class TestEngineWiring:
    def test_engine_exact_parity_across_backends(self, small_ba):
        results = {}
        for backend in ("dense", "sparse"):
            graph = DynamicGraph(small_ba)
            engine = DynamicCFCM(graph, seed=0, backend=backend)
            rng = np.random.default_rng(29)
            values = [engine.evaluate_exact(GROUP)]
            for _ in range(3):
                random_update_journal(graph, 6, rng)
                values.append(engine.evaluate_exact(GROUP))
            results[backend] = values
        np.testing.assert_allclose(results["sparse"], results["dense"],
                                   rtol=1e-6)

    def test_engine_rejects_backend_instances(self, small_ba):
        with pytest.raises(InvalidParameterError, match="spec string"):
            DynamicCFCM(DynamicGraph(small_ba),
                        backend=SparseResistanceBackend())

    def test_engine_rejects_unknown_backend(self, small_ba):
        with pytest.raises(InvalidParameterError):
            DynamicCFCM(DynamicGraph(small_ba), backend="banana")
