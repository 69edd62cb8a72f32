"""The four named workloads.

Each workload runs on a fixed graph and derives everything that happens on
it from one integer seed: the arrival schedule, the writer-side mutation
stream, the engine seeds and the oracle's sample each get their own child of
``numpy.random.SeedSequence(seed)``.  A workload

* ``build()``s its state (graph, engine or service, warm-up) — the caller
  times this as set-up, several times per run;
* ``measure()``s for a given number of seconds and returns a
  :class:`Measurement` (latencies, counts, the answers it kept);
* ``verify()``s the kept answers against an oracle, outside the timed window.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from time import process_time, thread_time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.centrality.exact_greedy import ExactGreedy
from repro.distributed import ShardedCFCM
from repro.dynamic import DynamicGraph
from repro.dynamic.workload import apply_random_node_event, apply_random_update
from repro.exceptions import GraphError, ReproError
from repro.graph import generators
from repro.obs.tracing import trace
from repro.service import AsyncCFCMService
from repro.utils.timer import clock

from perfbench.calibrate import Calibrator, ScaledClock, ticking_after
from perfbench.oracle import (ReplayOracle, dense_cfcc, relative_error,
                              splu_cfcc, splu_resistances)

#: Served exact reads must match the dense oracle to this relative error.
EXACT_TOLERANCE = 1e-8


@dataclass
class Measurement:
    """What one timed window produced."""

    time_s: float                 # time basis of the throughput (see each workload)
    busy_s: float                 # wall time with an operation in flight
    attempted: int
    completed: int
    refused: int                  # typed refusals and failures
    primary: str                  # latency kind behind latency_p50/p90
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    kept: list = field(default_factory=list)      # answers for the oracle
    counters: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Verdict:
    checked: int
    mismatches: int
    quality: float
    details: Dict[str, float] = field(default_factory=dict)


class Seeds:
    """Independent child seeds of one workload seed."""

    NAMES = ("schedule", "mutation", "engine", "check")

    def __init__(self, seed: int):
        children = np.random.SeedSequence(int(seed)).spawn(len(self.NAMES))
        for name, child in zip(self.NAMES, children):
            setattr(self, name, int(child.generate_state(1, dtype=np.uint64)[0] >> 2))


def top_degree(graph, count: int) -> Tuple[int, ...]:
    order = np.argsort(-graph.degrees, kind="stable")
    return tuple(sorted(int(v) for v in order[:count]))


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Workload:
    name = ""
    setup_reps = 5
    #: The graph is fixed per workload so that every seed measures the same
    #: topology; the seed drives everything that happens on it.
    GRAPH_SEED = 0

    def __init__(self, seed: int):
        self.seeds = Seeds(seed)
        self.calibration = Calibrator()

    def build(self):
        raise NotImplementedError

    def discard(self, state) -> None:
        """Release a built state that will not be (or was already) measured."""

    def measure(self, state, seconds: float) -> Measurement:
        raise NotImplementedError

    def verify(self, state, measurement: Measurement) -> Verdict:
        raise NotImplementedError


# --------------------------------------------------------------------- select
class Select(Workload):
    """Repeated SchurCFCM selections on a clustered power-law graph."""

    name = "select"
    N, M, P, K, EPS = 1000, 4, 0.3, 4, 0.2
    GRAPH_SEED = 7      # its Schur extra root survives the first pick
    #: About one call's CPU time at the seed commit on a 2-vCPU VM.  The
    #: call count depends on ``seconds`` only, never on the host's speed, so
    #: every run's p50 and p90 are the same statistic of the same sample size.
    NOMINAL_CALL_S = 12.0
    #: The sampling step of every greedy round (six per round, the last ones
    #: largest); the host-speed kernel runs after each.
    STEP = ("repro.centrality.estimators", "ForestAccumulator.add_samples")

    def build(self):
        return generators.powerlaw_cluster(self.N, self.M, self.P,
                                           seed=self.GRAPH_SEED)

    def calls(self, seconds: float) -> int:
        return max(1, round(seconds / self.NOMINAL_CALL_S))

    def measure(self, graph, seconds: float) -> Measurement:
        rng = np.random.default_rng(self.seeds.engine)
        durations: List[float] = []
        cpu: List[float] = []
        scaled: List[float] = []
        groups: List[List[int]] = []
        # The call is single-threaded compute: its CPU time is its service
        # time without the other tenants of a shared host, and the kernel
        # timed after every sampling step takes out the host's slow spells.
        with ticking_after(ScaledClock(self.calibration), *self.STEP) as cpu_clock:
            for _ in range(self.calls(seconds)):
                cpu_clock.tick()
                began, cpu_began, scaled_began = clock(), thread_time(), cpu_clock.scaled
                with trace("bench.select"):
                    result = repro.maximize_cfcc(graph, self.K, method="schur",
                                                 eps=self.EPS,
                                                 seed=int(rng.integers(0, 2**62)))
                cpu_clock.tick()
                # Raw CPU and wall time include the kernel runs of the call's
                # sampling steps and the one after it.
                cpu.append(thread_time() - cpu_began)
                durations.append(clock() - began)
                scaled.append(cpu_clock.scaled - scaled_began)
                groups.append([int(v) for v in result.group])
        return Measurement(time_s=sum(scaled), busy_s=sum(durations),
                           attempted=len(durations), completed=len(durations),
                           refused=0, primary="select",
                           latencies={"select": scaled, "select_cpu": cpu,
                                      "select_wall": durations},
                           kept=groups)

    def verify(self, graph, measurement: Measurement) -> Verdict:
        reference = ExactGreedy(graph).run(self.K).group
        best = repro.group_cfcc(graph, reference)
        ratios, bad = [], 0
        for group in measurement.kept:
            if (len(set(group)) != self.K
                    or not all(0 <= v < graph.n for v in group)):
                bad += 1
                continue
            ratios.append(repro.group_cfcc(graph, group) / best)
        quality = float(np.mean(ratios)) if ratios else 0.0
        return Verdict(checked=len(measurement.kept), mismatches=bad,
                       quality=quality,
                       details={"select_quality": quality,
                                "exact_greedy_cfcc": best})


# -------------------------------------------------------------- serve (async)
def _edge_update(graph: DynamicGraph, rng) -> None:
    if apply_random_update(graph, rng) is None:
        raise GraphError("no valid random edge update found")


def _churn_update(graph: DynamicGraph, rng, node_event: bool,
                  protected: Tuple[int, ...]) -> None:
    if node_event:
        event = apply_random_node_event(graph, rng, protected=protected)
    else:
        event = apply_random_update(graph, rng)
    if event is None:
        raise GraphError("no valid random update found")


async def _settle(ticket, due: float, record) -> None:
    """Await one update ticket and record its latency from ``due``."""
    await ticket.settled()
    error = ticket.exception()
    if error is not None and not isinstance(error, ReproError):
        raise error
    record(ticket, due, error)


class _ServeBase(Workload):
    """Shared state handling of the two service workloads."""

    def discard(self, state) -> None:
        asyncio.run(state["service"].stop())   # idempotent; frees the workers

    def _engine_counters(self, service) -> Dict[str, float]:
        stats = service.engine.stats
        health = service.engine.pool_health()
        counters = {
            "forests_kept": stats.forests_kept,
            "forests_resampled": stats.forests_resampled,
            "eval_hits": stats.eval_hits,
            "eval_misses": stats.eval_misses,
            "refused": service.stats.updates_rejected + service.stats.updates_failed,
        }
        if health:
            counters["pool_ess_min"] = min(h["ess"] for h in health.values())
        return counters

    @staticmethod
    def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
        out = {}
        for key, value in after.items():
            out[key] = value if key == "pool_ess_min" else value - before.get(key, 0)
        return out


class ServeMixed(_ServeBase):
    """Open-loop, read-heavy traffic through the async service (dense backend)."""

    name = "serve_mixed"
    N, M = 1000, 3
    RATE = 20.0                   # arrivals per second
    MIX = (0.25, 0.45, 0.30)      # exact read, forest read, edge update
    CHECKS = 16                   # sampled reads per kind checked by the oracle
    KINDS = ("exact", "forest", "write")

    def build(self):
        graph = generators.barabasi_albert(self.N, self.M, seed=self.GRAPH_SEED)
        groups = self.groups(graph)
        service = AsyncCFCMService(graph, seed=self.seeds.engine,
                                   backend="auto", workers=2)
        for group in groups:
            service.engine.evaluate_exact(group)
            service.engine.evaluate_forest(group)
        return {"base": graph, "service": service, "groups": groups}

    def groups(self, graph) -> List[Tuple[int, ...]]:
        rng = np.random.default_rng(self.GRAPH_SEED)
        picked = rng.choice(graph.n, size=3, replace=False)
        return [top_degree(graph, 2), tuple(sorted(int(v) for v in picked))]

    def arrivals(self, seconds: float) -> List[Tuple[float, str, int]]:
        """Absolute exponential schedule: ``(due offset, kind, group index)``."""
        rng = np.random.default_rng(self.seeds.schedule)
        count = int(self.RATE * seconds * 1.5) + 16
        due = np.cumsum(rng.exponential(1.0 / self.RATE, size=count))
        kinds = rng.choice(len(self.KINDS), size=count, p=self.MIX)
        groups = rng.integers(0, 2, size=count)
        return [(float(t), self.KINDS[int(k)], int(g))
                for t, k, g in zip(due, kinds, groups) if t < seconds]

    def measure(self, state, seconds: float) -> Measurement:
        return asyncio.run(self._drive(state, self.arrivals(seconds), seconds))

    async def _drive(self, state, arrivals, seconds: float) -> Measurement:
        service, groups = state["service"], state["groups"]
        mutations = np.random.default_rng(self.seeds.mutation)
        latencies: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        intervals: List[Tuple[float, float]] = []
        kept: List[Tuple[str, int, Tuple[int, ...], float]] = []
        events: list = []
        lags: List[float] = []
        refused = 0

        def settled(ticket, due, error) -> None:
            nonlocal refused
            if error is not None:
                refused += 1
                return
            done = ticket.settled_at
            latencies["write"].append(done - due)
            intervals.append((due, done))

        async def read(kind: str, group: Tuple[int, ...], due: float) -> None:
            nonlocal refused
            try:
                response = await service.evaluate(group, mode=kind)
            except ReproError:
                refused += 1
                return
            done = clock()
            latencies[kind].append(done - due)
            intervals.append((due, done))
            kept.append((kind, response.version, group, float(response.result)))

        async def write(due: float) -> None:
            nonlocal refused
            try:
                ticket = await service.submit(
                    functools.partial(_edge_update, rng=mutations))
            except ReproError:
                refused += 1
                return
            await _settle(ticket, due, settled)
            if ticket.exception() is None:
                events.extend(await ticket.result())

        tasks = []
        async with service:
            before = self._engine_counters(service)
            start = clock()
            for offset, kind, index in arrivals:
                due = start + offset
                delay = due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(max(clock() - due, 0.0))
                work = (write(due) if kind == "write"
                        else read(kind, groups[index], due))
                tasks.append(asyncio.create_task(work))
            await asyncio.gather(*tasks)
            wall = max(clock() - start, seconds)
            counters = self._delta(self._engine_counters(service), before)
        completed = sum(len(v) for v in latencies.values())
        return Measurement(time_s=wall, busy_s=union_length(intervals),
                           attempted=len(arrivals), completed=completed,
                           refused=refused, primary="forest",
                           latencies={**latencies, "gen_lag": lags},
                           kept=kept, counters=counters,
                           extra={"events": events})

    def verify(self, state, measurement: Measurement) -> Verdict:
        rng = np.random.default_rng(self.seeds.check)
        oracle = ReplayOracle(state["base"], measurement.extra["events"])
        exact_err, forest_err, mismatches = [], [], 0
        for kind in ("exact", "forest"):
            reads = [r for r in measurement.kept if r[0] == kind]
            if not reads:
                continue
            picks = rng.choice(len(reads), size=min(self.CHECKS, len(reads)),
                               replace=False)
            chosen = [reads[int(i)] for i in sorted(picks)]
            values = oracle.evaluate([(r[1], r[2]) for r in chosen], dense_cfcc)
            errors = [relative_error(r[3], v) for r, v in zip(chosen, values)]
            if kind == "exact":
                exact_err = errors
                mismatches += sum(e > EXACT_TOLERANCE for e in errors)
            else:
                forest_err = errors
        forest_rel = float(np.mean(forest_err)) if forest_err else 0.0
        return Verdict(
            checked=len(exact_err) + len(forest_err), mismatches=mismatches,
            quality=1.0 / (1.0 + forest_rel),
            details={"forest_rel_err": forest_rel,
                     "exact_max_rel_err": max(exact_err, default=0.0)})


class ServeChurn(_ServeBase):
    """Write-heavy backlog through the async service (sparse backend)."""

    name = "serve_churn"
    N, M = 6000, 3
    NODE_EVENTS, UPDATES = 0.10, 0.85   # cumulative arrival mix
    QUEUE_LIMIT = 256
    #: Nodes whose exact resistance to the group is checked after the run.
    PROBES = 8

    def build(self):
        graph = generators.barabasi_albert(self.N, self.M, seed=self.GRAPH_SEED)
        group = top_degree(graph, 2)
        service = AsyncCFCMService(graph, seed=self.seeds.engine, backend="auto",
                                   workers=2, queue_limit=self.QUEUE_LIMIT)
        service.engine.evaluate_exact(group)
        return {"base": graph, "service": service, "group": group}

    def arrival_kinds(self, count: int) -> List[str]:
        """The first ``count`` arrival kinds of this seed's stream."""
        rng = np.random.default_rng(self.seeds.schedule)
        draws = rng.random(count)
        return ["node" if x < self.NODE_EVENTS else
                "edge" if x < self.UPDATES else "read" for x in draws]

    def measure(self, state, seconds: float) -> Measurement:
        return asyncio.run(self._drive(state, seconds))

    async def _drive(self, state, seconds: float) -> Measurement:
        service, group = state["service"], state["group"]
        mutations = np.random.default_rng(self.seeds.mutation)
        schedule = np.random.default_rng(self.seeds.schedule)
        latencies: Dict[str, List[float]] = {"exact": [], "write": []}
        intervals: List[Tuple[float, float]] = []
        kept: list = []
        events: list = []
        tasks = []
        attempted = refused = 0

        def settled(ticket, due, error) -> None:
            nonlocal refused
            if error is not None:
                refused += 1
                return
            latencies["write"].append(ticket.settled_at - due)
            intervals.append((due, ticket.settled_at))

        async def read(issued: float) -> None:
            nonlocal refused
            try:
                response = await service.evaluate(group, consistency="relaxed")
            except ReproError:
                refused += 1
                return
            done = clock()
            latencies["exact"].append(done - issued)
            intervals.append((issued, done))
            kept.append((response.version, float(response.result)))

        async def settle_write(ticket, issued: float) -> None:
            await _settle(ticket, issued, settled)
            if ticket.exception() is None:
                events.extend(await ticket.result())

        async with service:
            before = self._engine_counters(service)
            start, cpu_start = clock(), process_time()
            while clock() - start < seconds:
                x = schedule.random()
                issued = clock()
                attempted += 1
                if x >= self.UPDATES:
                    tasks.append(asyncio.create_task(read(issued)))
                    continue
                mutation = functools.partial(
                    _churn_update, rng=mutations,
                    node_event=x < self.NODE_EVENTS, protected=group)
                try:
                    ticket = await service.submit(mutation, wait_timeout=30.0)
                except ReproError:
                    refused += 1
                    continue
                tasks.append(asyncio.create_task(settle_write(ticket, issued)))
            await asyncio.gather(*tasks)
            wall, cpu = clock() - start, process_time() - cpu_start
            counters = self._delta(self._engine_counters(service), before)
        completed = len(latencies["exact"]) + len(latencies["write"])
        return Measurement(time_s=wall, busy_s=union_length(intervals),
                           attempted=attempted, completed=completed,
                           refused=refused, primary="exact",
                           latencies=latencies, kept=kept, counters=counters,
                           extra={"events": events, "cpu_s": cpu})

    def verify(self, state, measurement: Measurement) -> Verdict:
        """Exact resistances at the final version; one sketched read for quality.

        The engine's tracker has folded every coalesced burst and
        refactorisation of the run, and its column solves are exact even
        though its traces are sketched, so a fresh sparse LU of the replayed
        graph checks the whole churn stream to :data:`EXACT_TOLERANCE`.
        """
        rng = np.random.default_rng(self.seeds.check)
        group = state["group"]
        engine = state["service"].engine
        oracle = ReplayOracle(state["base"], measurement.extra["events"])
        candidates = [int(v) for v in engine.graph.node_ids() if int(v) not in group]
        nodes = sorted(int(v) for v in rng.choice(candidates, size=self.PROBES,
                                                  replace=False))
        tracker = engine.tracker(group)
        reference = splu_resistances(oracle.final(), group, nodes)
        errors = [relative_error(tracker.resistance_to_group(v), reference[v])
                  for v in nodes]
        # At n = 6000 the backend serves the trace from a Hutchinson sketch, so
        # a served read is compared to the exact trace only as a quality figure.
        sketch_err = 0.0
        if measurement.kept:
            version, served = measurement.kept[int(rng.integers(len(measurement.kept)))]
            exact, = oracle.evaluate([(version, group)], splu_cfcc)
            sketch_err = relative_error(served, exact)
        return Verdict(checked=len(errors),
                       mismatches=sum(e > EXACT_TOLERANCE for e in errors),
                       quality=1.0 / (1.0 + sketch_err),
                       details={"resistance_max_rel_err": max(errors),
                                "sketch_rel_err": sketch_err})


# ------------------------------------------------------------- shard lattice
class ShardLattice(Workload):
    """Closed loop of weight-toggle bursts and exact reads on a sharded lattice."""

    name = "shard_lattice"
    ROWS = COLS = 120
    SHARDS = 4
    UPDATES, PROBES = 16, 4
    CHECK_EVERY = 32
    CALIBRATE_EVERY = 16

    @property
    def group(self) -> Tuple[int, int]:
        n = self.ROWS * self.COLS
        return (0, n // 2 + self.COLS // 2)

    def build(self):
        graph = DynamicGraph(generators.grid_graph(self.ROWS, self.COLS))
        seeds = [((2 * i + 1) * self.ROWS // (2 * self.SHARDS)) * self.COLS
                 + self.COLS // 2 for i in range(self.SHARDS)]
        engine = ShardedCFCM(graph, shards=self.SHARDS, seed=self.seeds.engine,
                             executor="serial", seeds=seeds)
        engine.evaluate_exact(self.group)
        engine.resistance_to_group(1, self.group)
        return {"graph": graph, "engine": engine}

    def discard(self, state) -> None:
        state["engine"].close()

    def cycles(self, count: int):
        """The first ``count`` cycles of this seed's input stream."""
        rng = np.random.default_rng(self.seeds.schedule)
        edges = list(generators.grid_graph(self.ROWS, self.COLS).edges())
        n = self.ROWS * self.COLS
        for _ in range(count):
            picks = rng.choice(len(edges), size=self.UPDATES, replace=False)
            probes = [int(x) for x in rng.integers(0, n, size=self.PROBES)
                      if int(x) not in self.group]
            yield [tuple(edges[p]) for p in picks], probes

    def measure(self, state, seconds: float) -> Measurement:
        graph, engine, group = state["graph"], state["engine"], self.group
        latencies: Dict[str, List[float]] = {"exact": [], "exact_wall": [],
                                             "probe": [], "write": []}
        kept = []
        timed = timed_cpu = 0.0
        cycles = ops = 0
        # CPU times (write, exact, probe, cycle) since the last kernel.
        pending: List[Tuple[float, float, Optional[float], float]] = []
        cpu_clock = ScaledClock(self.calibration)

        def scale_pending() -> float:
            """Scale the pending cycles by the kernel times around them;
            returns their scaled CPU time."""
            scale = cpu_clock.tick()
            for write, exact, probe, _ in pending:
                latencies["write"].append(write * scale)
                latencies["exact"].append(exact * scale)
                if probe is not None:
                    latencies["probe"].append(probe * scale)
            total = scale * sum(p[3] for p in pending)
            pending.clear()
            return total

        for toggles, probes in self.cycles(1 << 30):
            if timed >= seconds:
                break
            began, cpu_began = clock(), thread_time()
            for u, v in toggles:
                graph.update_weight(u, v, 3.0 - graph.weight(u, v))
            written, cpu_written = clock(), thread_time()
            engine.evaluate_exact(group)
            read, cpu_read = clock(), thread_time()
            served = {x: engine.resistance_to_group(x, group) for x in probes}
            done, cpu_done = clock(), thread_time()
            timed += done - began
            # One serial client: CPU time is the service time without the
            # other tenants of a shared host (wall time kept alongside), and
            # the kernel timed every CALIBRATE_EVERY cycles takes out the
            # host's slow spells.
            pending.append(((cpu_written - cpu_began) / len(toggles),
                            cpu_read - cpu_written,
                            (cpu_done - cpu_read) / len(probes) if probes else None,
                            cpu_done - cpu_began))
            latencies["exact_wall"].append(read - written)
            ops += len(toggles) + 1 + len(probes)
            if cycles % self.CHECK_EVERY == 0 and probes:
                kept.append((cycles, served))
            cycles += 1
            if cycles % self.CALIBRATE_EVERY == 0:
                timed_cpu += scale_pending()
        if pending:
            timed_cpu += scale_pending()
        return Measurement(time_s=timed_cpu, busy_s=timed, attempted=ops,
                           completed=ops, refused=0, primary="exact",
                           latencies=latencies, kept=kept,
                           counters={"separator_size": len(engine.partition.separator)},
                           extra={"cycles": cycles})

    def verify(self, state, measurement: Measurement) -> Verdict:
        """Replays the run's toggle stream on a fresh lattice and checks the
        kept probes of every checked cycle against a fresh ``splu``."""
        graph = DynamicGraph(generators.grid_graph(self.ROWS, self.COLS))
        checked = dict(measurement.kept)
        errors = []
        for index, (toggles, _) in enumerate(self.cycles(measurement.extra["cycles"])):
            for u, v in toggles:
                graph.update_weight(u, v, 3.0 - graph.weight(u, v))
            served = checked.get(index)
            if served:
                reference = splu_resistances(graph, self.group, served)
                errors += [relative_error(served[x], reference[x]) for x in served]
        worst = max(errors, default=0.0)
        return Verdict(checked=len(errors),
                       mismatches=sum(e > EXACT_TOLERANCE for e in errors),
                       quality=1.0 / (1.0 + worst),
                       details={"resistance_max_rel_err": worst})


WORKLOADS = {cls.name: cls for cls in (Select, ServeMixed, ServeChurn, ShardLattice)}
