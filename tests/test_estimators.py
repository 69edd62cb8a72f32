"""Tests for the forest-sampling estimators (the statistical core of the paper)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.centrality import estimators
from repro.centrality.estimators import (
    INITIAL_BATCH,
    ForestAccumulator,
    ForestSample,
    SamplingConfig,
    _robust_inverse,
    _sampled_schur_complement,
    estimate_first_pick,
    estimate_forest_delta,
    estimate_schur_delta,
    marginal_gain_estimates,
    rademacher_weights,
    run_adaptive_sampling,
    schur_reassembly,
)
from repro.centrality.marginal import marginal_gains_all
from repro.centrality.schur_cfcm import choose_extra_roots
from repro.linalg.pseudoinverse import pseudoinverse_diagonal
from repro.linalg.schur import absorption_probabilities, grounded_inverse_block
from repro.linalg.updates import grounded_inverse
from repro.sampling.batch import sample_forest_batch_vectorized


def loop_schur_complement(graph, group, extras, fractions):
    """Reference Eq. (15) assembly, one neighbour at a time: row ``i``
    subtracts ``F``'s row of each interior neighbour of ``t_i`` in
    adjacency order, so it rounds as the array assembly must."""
    grounded = set(int(v) for v in group)
    index = {t: i for i, t in enumerate(extras)}
    schur = np.zeros((len(extras), len(extras)))
    for i, t_i in enumerate(extras):
        schur[i, i] = graph.degrees[t_i]
        for t_j in graph.neighbors(t_i):
            if int(t_j) in index and index[int(t_j)] > i:
                schur[i, index[int(t_j)]] -= 1.0
                schur[index[int(t_j)], i] -= 1.0
    for i, t_i in enumerate(extras):
        for u in graph.neighbors(t_i):
            if int(u) not in index and int(u) not in grounded:
                schur[i, :] -= fractions[int(u)]
    return schur


def exact_sums(graph):
    """An ``add_samples`` that folds every forest's expectation instead of
    drawing it: exact ``W inv(L_UU)``, ``diag(inv(L_UU))`` and rooted-at
    fractions of the accumulator's root set.  ``W inv(L_UU)`` goes in as
    raw path terms, ``exact[u] - exact[path parent of u]``, which a read
    sums back along the fixed paths."""

    def add_samples(accumulator, batch_size):
        blocks = grounded_inverse_block(graph, [], accumulator.roots)
        interior = blocks.interior
        exact = np.zeros(accumulator.weights.shape)
        exact[:, interior] = (accumulator.weights[:, interior]
                              @ blocks.inv_interior)
        nonroot = accumulator._path.nonroot
        raw = np.zeros_like(exact)
        raw[:, nonroot] = (exact[:, nonroot]
                           - exact[:, accumulator._path.parent[nonroot]])
        accumulator._terms += batch_size * raw.T
        accumulator.diag_sum[interior] += (batch_size
                                           * np.diag(blocks.inv_interior))
        tracked = [accumulator.roots.index(t)
                   for t in accumulator.tracked_roots]
        accumulator.root_counts[interior] += (batch_size
                                              * blocks.absorption[:, tracked])
        accumulator.count += batch_size

    return add_samples


class TestSamplingConfig:
    def test_defaults(self):
        config = SamplingConfig()
        assert 0 < config.eps < 1
        assert config.sample_cap(1000) == 200 <= config.max_samples

    def test_invalid_eps(self):
        with pytest.raises(InvalidParameterError):
            SamplingConfig(eps=0.0)
        with pytest.raises(InvalidParameterError):
            SamplingConfig(eps=1.5)

    def test_invalid_max_samples(self):
        with pytest.raises(InvalidParameterError):
            SamplingConfig(max_samples=0)

    @pytest.mark.parametrize("field", ["max_samples"])
    @pytest.mark.parametrize("count", [0, 2.5])
    def test_sample_counts_are_positive_integers(self, field, count):
        # A fractional count would be truncated where it is used, and a zero
        # cap would leave no forest to divide by, without a word.
        with pytest.raises(InvalidParameterError, match=field):
            SamplingConfig(**{field: count})

    @pytest.mark.parametrize("cap", [0, -3, 2.5])
    def test_invalid_max_jl_dimension(self, cap):
        # A cap below one leaves no JL rows to divide by, and a fractional
        # one no row count at all.
        with pytest.raises(InvalidParameterError, match="max_jl_dimension"):
            SamplingConfig(eps=0.3, max_jl_dimension=cap)

    def test_jl_rows_scaling(self):
        config = SamplingConfig(eps=0.2, max_jl_dimension=1000)
        tighter = SamplingConfig(eps=0.1, max_jl_dimension=1000)
        assert tighter.jl_rows(500) > config.jl_rows(500)

    def test_jl_rows_capped(self):
        config = SamplingConfig(eps=0.15, max_jl_dimension=32)
        assert config.jl_rows(10_000) == 32

    def test_sample_cap_bounded(self):
        config = SamplingConfig(eps=0.3, max_samples=100)
        assert config.sample_cap(1000) <= 100

    def test_sample_cap_is_the_budget_alone_for_large_eps(self):
        # ceil(8 / eps^2) is 10 at eps = 0.9, and above 8 for every eps < 1.
        assert SamplingConfig(eps=0.9).sample_cap(1000) == 10
        assert SamplingConfig(eps=0.999).sample_cap(1000) == 9


class TestRademacherWeights:
    def test_shape_and_masking(self, rng):
        weights = rademacher_weights(8, 20, [3, 7], rng)
        assert weights.shape == (8, 20)
        assert np.all(weights[:, 3] == 0) and np.all(weights[:, 7] == 0)
        nonzero = weights[:, [c for c in range(20) if c not in (3, 7)]]
        assert np.allclose(np.abs(nonzero), 1.0 / np.sqrt(8))


class TestForestAccumulator:
    def test_diag_estimates_unbiased(self, karate):
        """Phi_{u,S}(u) converges to (inv(L_{-S}))_uu (Lemma 3.3)."""
        group = [0, 33]
        inverse, kept = grounded_inverse(karate, group)
        accumulator = ForestAccumulator(karate, group, seed=11)
        accumulator.add_samples(1500)
        estimates = accumulator.diag_estimates()
        relative = np.abs(estimates[kept] - np.diag(inverse)) / np.diag(inverse)
        assert relative.mean() < 0.08
        assert relative.max() < 0.35

    def test_projected_estimates_unbiased(self, karate):
        """Phi_{w,S}(u) converges to w^T inv(L_{-S}) e_u for fixed weights."""
        group = [0]
        inverse, kept = grounded_inverse(karate, group)
        weights = np.zeros((2, karate.n))
        weights[0, :] = 1.0
        weights[1, kept[5]] = 1.0
        accumulator = ForestAccumulator(karate, group, weights=weights, seed=13)
        accumulator.add_samples(1500)
        projected = accumulator.projected_estimates()

        exact_ones = np.ones(kept.size) @ inverse
        rel_ones = np.abs(projected[0][kept] - exact_ones) / np.abs(exact_ones)
        assert rel_ones.mean() < 0.08

        exact_row = inverse[5]
        rel_row = np.abs(projected[1][kept] - exact_row) / np.maximum(np.abs(exact_row), 1e-9)
        assert np.median(rel_row) < 0.25

    def test_diag_zero_on_roots(self, karate):
        accumulator = ForestAccumulator(karate, [0, 1], seed=0)
        accumulator.add_samples(20)
        estimates = accumulator.diag_estimates()
        assert estimates[0] == 0.0 and estimates[1] == 0.0

    def test_root_fractions_match_absorption(self, karate):
        grounded = [0]
        extras = [32, 33]
        exact, interior = absorption_probabilities(karate, grounded, extras)
        accumulator = ForestAccumulator(karate, grounded + extras,
                                        tracked_roots=extras, seed=5)
        accumulator.add_samples(1200)
        fractions = accumulator.root_fractions()
        observed = fractions[interior]
        assert np.max(np.abs(observed - exact)) < 0.1

    def test_chunked_fold_reads_as_one_batch(self, hub_ba, monkeypatch):
        """Twenty chunks of two forests read as the forty folded at once,
        and the path prefix runs once per read, never per chunk."""
        roots = sorted(int(v) for v in np.argsort(-hub_ba.degrees)[:4])
        weights = rademacher_weights(6, hub_ba.n, roots,
                                     np.random.default_rng(3))
        batch = sample_forest_batch_vectorized(hub_ba, roots, 40, seed=9)

        def accumulator():
            # The first root is left untracked, so the counts must skip it.
            return ForestAccumulator(hub_ba, roots, weights=weights,
                                     tracked_roots=roots[1:], seed=0)

        whole = accumulator()
        whole.add_batch(batch)
        prefixes = []
        path_prefix = estimators._path_prefix

        def counting(values, path):
            prefixes.append(values.shape)
            path_prefix(values, path)

        monkeypatch.setattr(estimators, "_path_prefix", counting)
        chunked = accumulator()
        for start in range(0, 40, 2):
            chunked.add_batch(batch.select(np.arange(start, start + 2)))
        assert chunked.count == 40 and prefixes == []
        projected = chunked.projected_estimates()
        assert len(prefixes) == 1
        np.testing.assert_allclose(projected, whole.projected_estimates(),
                                   rtol=0, atol=1e-12)
        assert np.array_equal(chunked.diag_estimates(), whole.diag_estimates())
        assert np.array_equal(chunked.root_fractions(), whole.root_fractions())

    def test_requires_samples_before_results(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=0)
        with pytest.raises(InvalidParameterError):
            accumulator.diag_estimates()

    def test_tracked_roots_must_be_roots(self, karate):
        with pytest.raises(InvalidParameterError):
            ForestAccumulator(karate, [0], tracked_roots=[5], seed=0)

    def test_weights_shape_validated(self, karate):
        with pytest.raises(InvalidParameterError):
            ForestAccumulator(karate, [0], weights=np.ones((2, 7)), seed=0)


class TestAdaptiveSamplingLoop:
    def test_respects_cap(self, karate):
        config = SamplingConfig(eps=0.3, max_samples=40)
        accumulator = ForestAccumulator(karate, [0], seed=1)
        diagnostics = run_adaptive_sampling(accumulator, config)
        assert diagnostics["samples"] <= 40
        assert accumulator.count == int(diagnostics["samples"])

    def test_early_stop_possible_on_easy_instance(self):
        star = generators.star_graph(30)
        config = SamplingConfig(eps=0.5, max_samples=4096)
        accumulator = ForestAccumulator(star, [0], seed=2)
        diagnostics = run_adaptive_sampling(accumulator, config)
        # eps, not max_samples, ends the round: 8 / 0.5^2 = 32 forests,
        # the first two batches.
        assert diagnostics["stopped_early"] == 1.0
        assert diagnostics["samples"] == 32 == config.sample_cap(star.n)

    def test_batches_double_from_the_first(self, karate, monkeypatch):
        # The batches split the random stream, so they fix the forests a
        # seed draws: 16, 32, 64 and the rest of the 200.
        sizes = []

        def record(accumulator, size):
            sizes.append(size)
            accumulator.count += size

        monkeypatch.setattr(ForestAccumulator, "add_samples", record)
        run_adaptive_sampling(ForestAccumulator(karate, [0]), SamplingConfig())
        assert sizes == [INITIAL_BATCH, 32, 64, 88]


class TestDeltaEstimators:
    def test_forest_delta_close_to_exact(self, small_ba):
        group = [int(np.argmax(small_ba.degrees))]
        exact = marginal_gains_all(small_ba, group)
        config = SamplingConfig(eps=0.2, max_samples=600, max_jl_dimension=128)
        estimates, diagnostics = estimate_forest_delta(small_ba, group, config, seed=3)
        assert set(estimates) == set(exact)
        relative = [abs(estimates[u] - exact[u]) / exact[u] for u in exact]
        assert np.mean(relative) < 0.35
        # The very top candidates must be ranked highly by the estimates.
        best_exact = max(exact, key=exact.get)
        ranked = sorted(estimates, key=estimates.get, reverse=True)
        assert best_exact in ranked[:10]

    def test_schur_delta_close_to_exact(self, small_ba):
        group = [int(np.argmax(small_ba.degrees))]
        extras = [int(v) for v in np.argsort(-small_ba.degrees)[1:5]]
        exact = marginal_gains_all(small_ba, group)
        config = SamplingConfig(eps=0.2, max_samples=600, max_jl_dimension=128)
        estimates, _, _ = estimate_schur_delta(small_ba, group, extras, config,
                                               seed=4)
        assert set(estimates) == set(exact)
        relative = [abs(estimates[u] - exact[u]) / exact[u] for u in exact]
        assert np.mean(relative) < 0.35
        best_exact = max(exact, key=exact.get)
        ranked = sorted(estimates, key=estimates.get, reverse=True)
        assert best_exact in ranked[:10]

    def test_schur_delta_without_extras_falls_back(self, small_ba):
        group = [0]
        config = SamplingConfig(eps=0.3, max_samples=64)
        gains, sample, _ = estimate_schur_delta(small_ba, group, [0], config,
                                                seed=5)
        assert set(gains) == set(range(small_ba.n)) - {0}
        # No later round, whose S is larger, is rooted at this S.
        assert sample is None

    @pytest.mark.parametrize("group", [[0], [0, 5]])
    def test_schur_reassembly_is_exact_on_exact_blocks(self, hub_ba, group):
        """Fed the exact Eq. (11) blocks, the reassembly returns exactly
        ``W inv(L_{-S})`` and ``diag(inv(L_{-S}))``."""
        n = hub_ba.n
        extras = [int(v) for v in np.argsort(-hub_ba.degrees, kind="stable")
                  if v not in group][:3]
        blocks = grounded_inverse_block(hub_ba, group, extras)
        interior = blocks.interior
        weights = rademacher_weights(8, n, group, np.random.default_rng(0))
        projected = np.zeros((8, n))
        projected[:, interior] = weights[:, interior] @ blocks.inv_interior
        diagonal = np.zeros(n)
        diagonal[interior] = np.diag(blocks.inv_interior)
        fractions = np.zeros((n, len(extras)))
        fractions[interior] = blocks.absorption

        columns, diag = schur_reassembly(projected, diagonal, fractions,
                                         weights, extras, blocks.inv_schur)

        inverse, kept = grounded_inverse(hub_ba, group)
        expected_columns = np.zeros((8, n))
        expected_columns[:, kept] = weights[:, kept] @ inverse
        expected_diag = np.zeros(n)
        expected_diag[kept] = np.diag(inverse)
        np.testing.assert_allclose(columns, expected_columns, rtol=0, atol=1e-10)
        np.testing.assert_allclose(diag, expected_diag, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", ["karate", "hub_ba"])
    def test_unit_row_reassembly_is_exact_on_exact_blocks(self, request, name):
        """Eq. (11) with ``S = {s}`` and extras ``T \\ {s}`` turns the exact
        ``T``-rooted blocks of a unit row into ``1ᵀ inv(L_{-s})`` and
        ``diag(inv(L_{-s}))``.  The row's ``Q`` block is 1 on ``T \\ {s}``:
        zeroed there, the columns come out wrong."""
        graph = request.getfixturevalue(name)
        n = graph.n
        hubs = [int(v) for v in np.argsort(-graph.degrees, kind="stable")[:4]]
        s, extras = hubs[0], sorted(hubs[1:])
        blocks = grounded_inverse_block(graph, [s], extras)
        interior = blocks.interior
        ones = np.ones((1, n))
        projected = np.zeros((1, n))
        projected[:, interior] = ones[:, interior] @ blocks.inv_interior
        diagonal = np.zeros(n)
        diagonal[interior] = np.diag(blocks.inv_interior)
        fractions = np.zeros((n, len(extras)))
        fractions[interior] = blocks.absorption

        columns, diag = schur_reassembly(projected, diagonal, fractions, ones,
                                         extras, blocks.inv_schur)

        inverse, kept = grounded_inverse(graph, [s])
        expected_columns = np.zeros((1, n))
        expected_columns[:, kept] = inverse.sum(axis=0)
        expected_diag = np.zeros(n)
        expected_diag[kept] = np.diag(inverse)
        np.testing.assert_allclose(columns, expected_columns, rtol=0, atol=1e-10)
        np.testing.assert_allclose(diag, expected_diag, rtol=0, atol=1e-10)
        no_q = ones.copy()
        no_q[:, extras] = 0.0
        wrong, _ = schur_reassembly(projected, diagonal, fractions, no_q,
                                    extras, blocks.inv_schur)
        assert np.abs(wrong - expected_columns).max() > 1e-3

    def test_sampled_schur_complement_is_exact_on_exact_fractions(self):
        """Fed the exact absorption probabilities, the Eq. (15) assembly
        returns the exact Schur complement ``S_T(L_{-S})``."""
        graph = generators.barabasi_albert(120, 3, seed=2)
        group = [5, 40]
        hubs = [int(v) for v in np.argsort(-graph.degrees, kind="stable")
                if v not in group]
        extras = sorted(hubs[:4])
        neighbours = {t: set(int(v) for v in graph.neighbors(t)) for t in extras}
        # The assembly has T-T and S-T edges to handle, not only U-T ones.
        assert any(neighbours[a] & set(extras) for a in extras)
        assert any(neighbours[t] & set(group) for t in extras)
        blocks = grounded_inverse_block(graph, group, extras)
        fractions = np.zeros((graph.n, len(extras)))
        fractions[blocks.interior] = blocks.absorption

        schur = _sampled_schur_complement(graph, group, extras, fractions)

        np.testing.assert_allclose(schur, blocks.schur, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", ["karate", "hub_ba"])
    def test_sampled_schur_complement_matches_the_loop_bit_for_bit(
            self, request, name):
        """The array assembly subtracts in the loop's order, so it returns
        the loop's bits; rows of ``F`` outside ``U`` must not be read."""
        graph = request.getfixturevalue(name)
        hubs = [int(v) for v in np.argsort(-graph.degrees, kind="stable")]
        rng = np.random.default_rng(5)
        for group, extras in ((hubs[:1], hubs[1:8]),
                              (hubs[2:4], hubs[:2] + hubs[4:9])):
            extras = sorted(extras)
            fractions = rng.random((graph.n, len(extras)))
            expected = loop_schur_complement(graph, group, extras, fractions)
            schur = _sampled_schur_complement(graph, group, extras, fractions)
            assert schur.tobytes() == expected.tobytes()

    def test_estimates_are_positive(self, small_ba):
        config = SamplingConfig(eps=0.3, max_samples=128)
        gains, _ = estimate_forest_delta(small_ba, [0], config, seed=6)
        assert all(value > 0 for value in gains.values())


class TestForestSample:
    @pytest.mark.parametrize("name", ["karate", "hub_ba"])
    def test_one_sample_reads_every_grounded_subset(self, request,
                                                    monkeypatch, name):
        """With every forest replaced by its expectation, one ``T``-rooted
        sample reads ``W inv(L_{-S})`` and ``diag(inv(L_{-S}))`` exactly for
        ``S = T`` (the identity ForestDelta reads), ``|S| = 1`` and
        ``|S| = 2``."""
        graph = request.getfixturevalue(name)
        monkeypatch.setattr(ForestAccumulator, "add_samples",
                            exact_sums(graph))
        n = graph.n
        roots = sorted(choose_extra_roots(graph, size=4))
        weights = rademacher_weights(8, n, (), np.random.default_rng(0))
        sample = ForestSample.draw(graph, roots, weights,
                                   SamplingConfig(eps=0.3),
                                   np.random.default_rng(1),
                                   tracked_roots=roots)
        for group in (roots, roots[1:2], roots[::3]):
            columns, diagonal = sample.read(group)
            inverse, kept = grounded_inverse(graph, group)
            expected_columns = np.zeros((8, n))
            expected_columns[:, kept] = weights[:, kept] @ inverse
            expected_diag = np.zeros(n)
            expected_diag[kept] = np.diag(inverse)
            np.testing.assert_allclose(columns, expected_columns, rtol=0,
                                       atol=1e-10)
            np.testing.assert_allclose(diagonal, expected_diag, rtol=0,
                                       atol=1e-10)


class TestHeldSample:
    """A SchurDelta round whose root set ``S ∪ T`` is the held sample's
    reassembles from it, and matches a fresh round on the same forests."""

    GROUP = [7]
    DIAGNOSTICS = {"samples": 48.0, "stopped_early": 1.0, "cap": 48.0}

    def held_round(self, graph):
        extras = sorted(int(v) for v in np.argsort(-graph.degrees,
                                                   kind="stable")
                        if v not in self.GROUP)[:4]
        roots = sorted(self.GROUP + extras)
        batch = sample_forest_batch_vectorized(graph, roots, 48, seed=3)
        weights = rademacher_weights(16, graph.n, self.GROUP,
                                     np.random.default_rng(4))
        accumulator = ForestAccumulator(graph, roots, weights=weights,
                                        tracked_roots=extras)
        accumulator.add_batch(batch)
        held = ForestSample(accumulator, weights, dict(self.DIAGNOSTICS))
        return extras, batch, weights, held

    @pytest.mark.parametrize("picked", [0, 1, 2], ids=["same-S", "one-hub",
                                                        "two-hubs"])
    def test_reassembly_matches_a_fresh_round(self, hub_ba, picked):
        graph = hub_ba
        extras, batch, weights, held = self.held_round(graph)
        group = sorted(self.GROUP + extras[:picked])
        rest = [t for t in extras if t not in group]
        config = SamplingConfig(eps=0.2, max_jl_dimension=16)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state

        gains, sample, diagnostics = estimate_schur_delta(
            graph, group, extras, config, seed=rng, held=held)

        assert rng.bit_generator.state == state  # nothing drawn
        assert sample is held
        assert diagnostics == {**self.DIAGNOSTICS, "samples": 0.0,
                               "reused": 1.0}
        fresh_weights = weights.copy()
        fresh_weights[:, group] = 0.0
        fresh = ForestAccumulator(graph, group + rest, weights=fresh_weights,
                                  tracked_roots=rest)
        fresh.add_batch(batch)
        fractions = fresh.root_fractions()
        schur = _sampled_schur_complement(graph, group, rest, fractions)
        columns, diagonal = schur_reassembly(
            fresh.projected_estimates(), fresh.diag_estimates(), fractions,
            fresh_weights, rest, _robust_inverse(schur))
        expected = marginal_gain_estimates(graph, group, fresh_weights,
                                           columns, diagonal)
        assert list(gains) == list(expected)
        np.testing.assert_allclose(list(gains.values()),
                                   list(expected.values()),
                                   rtol=1e-12, atol=1e-12)

    def test_other_root_sets_draw_and_are_held(self, hub_ba):
        graph = hub_ba
        extras, _, _, held = self.held_round(graph)
        config = SamplingConfig(eps=0.4, max_jl_dimension=16)
        # Same root set, but the drawing round's S is not in this S: its W
        # columns are zero where this round needs them, so it draws.
        _, sample, diagnostics = estimate_schur_delta(
            graph, [extras[0]], self.GROUP + extras[1:], config, seed=1,
            held=held)
        assert diagnostics["samples"] == config.sample_cap(graph.n)
        assert "reused" not in diagnostics
        assert sample is not held and sample.diagnostics == diagnostics
        assert sample.accumulator.roots == sorted(self.GROUP + extras)
        assert sample.accumulator.tracked_roots == sorted(self.GROUP
                                                          + extras[1:])
        # A pick outside T changes the root set.
        _, sample, diagnostics = estimate_schur_delta(
            graph, self.GROUP + [100], extras, config, seed=1, held=sample)
        assert diagnostics["samples"] == config.sample_cap(graph.n)
        assert sample.accumulator.roots == sorted(self.GROUP + [100] + extras)


class TestFirstPick:
    def test_first_pick_has_small_pseudoinverse_diagonal(self, karate):
        config = SamplingConfig(eps=0.2, max_samples=800)
        node, scores, _, _ = estimate_first_pick(karate, config, seed=7)
        diag = pseudoinverse_diagonal(karate)
        # The selected node must be among the best few nodes by exact L+_uu.
        order = np.argsort(diag)
        assert node in set(int(v) for v in order[:5])
        assert scores.shape == (karate.n,)

    @pytest.mark.parametrize("extra_roots", [[], [33], [0]])
    def test_one_extra_root_draws_as_without_extra_roots(self, karate,
                                                         extra_roots):
        config = SamplingConfig(eps=0.3)
        node, scores, _, diagnostics = estimate_first_pick(karate, config,
                                                           seed=7)
        same = estimate_first_pick(karate, config, seed=7,
                                   extra_roots=extra_roots)
        assert same[0] == node and same[3] == diagnostics
        np.testing.assert_array_equal(same[1], scores)
        # One root and no JL rows: no Schur round reads it, since any root
        # set S ∪ T of one has two roots or more.
        held = same[2]
        assert held.accumulator.roots == [int(np.argmax(karate.degrees))]
        assert held.weights.shape == (0, karate.n)
        _, sample, diagnostics = estimate_schur_delta(
            karate, [5], held.accumulator.roots, config, seed=1, held=held)
        assert "reused" not in diagnostics and sample is not held
        assert diagnostics["samples"] == config.sample_cap(karate.n)

    @pytest.mark.parametrize("name", ["karate", "hub_ba"])
    def test_t_rooted_sample_is_exact_on_exact_sums(self, request,
                                                    monkeypatch, name):
        """With every forest replaced by its expectation, the ``T``-rooted
        first pick scores ``L†_uu`` exactly, and a gain round rooted at
        ``T`` again reads the held JL rows: its gains are exact given W."""
        graph = request.getfixturevalue(name)
        monkeypatch.setattr(ForestAccumulator, "add_samples",
                            exact_sums(graph))
        extras = choose_extra_roots(graph)
        assert len(extras) >= 2
        config = SamplingConfig(eps=0.3)
        _, scores, held, diagnostics = estimate_first_pick(
            graph, config, seed=0, extra_roots=extras)
        np.testing.assert_allclose(scores, pseudoinverse_diagonal(graph),
                                   rtol=0, atol=1e-10)
        assert held.accumulator.roots == sorted(extras)
        assert held.accumulator.tracked_roots == sorted(extras)
        assert held.diagnostics == diagnostics
        # W is random on every column, the grounded node's too.
        assert held.weights.shape == (config.jl_rows(graph.n), graph.n)
        assert np.count_nonzero(held.weights) == held.weights.size

        # A pick other than the grounded node s, so s is in T \ S.
        s = extras[int(np.argmax(graph.degrees[extras]))]
        group = [next(t for t in extras if t != s)]
        gains, sample, diagnostics = estimate_schur_delta(
            graph, group, extras, config, seed=1, held=held)
        assert diagnostics["reused"] and sample is held
        inverse, kept = grounded_inverse(graph, group)
        columns = held.weights[:, kept] @ inverse
        expected = np.sum(columns * columns, axis=0) / np.diag(inverse)
        np.testing.assert_allclose([gains[int(u)] for u in kept], expected,
                                   rtol=1e-9, atol=0)
