"""Result container shared by all CFCM algorithms, and their greedy loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exceptions import NotComputedError
from repro.utils.timer import clock
from repro.utils.validation import check_integer


@dataclass
class CFCMResult:
    """Outcome of one CFCM maximisation run.

    Attributes
    ----------
    method:
        Name of the algorithm (``"exact"``, ``"approx"``, ``"forest"``,
        ``"schur"``, ``"degree"``, ``"top-cfcc"``, ``"optimum"``).
    group:
        Selected nodes in the order they were added.
    runtime_seconds:
        Wall-clock time of the selection.
    parameters:
        Algorithm parameters (``eps``, seeds, sample caps, ...).
    iteration_log:
        One entry per greedy iteration with diagnostic data (chosen node,
        estimated gain, samples used, ...).
    cfcc:
        Exact CFCC of the final group when the method computes it (the
        brute-force optimum does); ``None`` otherwise.
    """

    method: str
    group: List[int]
    runtime_seconds: float = 0.0
    parameters: Dict[str, object] = field(default_factory=dict)
    iteration_log: List[Dict[str, object]] = field(default_factory=list)
    cfcc: Optional[float] = None

    def prefix(self, size: int) -> Sequence[int]:
        """First ``size`` selected nodes (greedy prefix)."""
        if size < 0 or size > len(self.group):
            raise NotComputedError(
                f"prefix of size {size} unavailable; only {len(self.group)} nodes selected"
            )
        return list(self.group[:size])


class GreedyCFCM:
    """The greedy loop of SchurCFCM, ForestCFCM and ApproxGreedy.

    The methods differ only in how they estimate, so a subclass sets
    ``graph`` and ``method_name`` and supplies three hooks:

    * ``_first_pick()`` returns ``(node, scores, log)``, where ``scores``
      is the per-node first-pick objective (smaller is better);
    * ``_gains(group)`` returns ``(gains, log)``, where ``gains`` maps every
      candidate ``u`` outside ``group`` to its estimated ``Δ(u, S)``;
    * ``_parameters()`` returns the result's parameter dict.

    Each ``log`` dict is merged into that round's iteration-log entry.
    ExactGreedy keeps its own loop: it is the oracle these methods are
    checked against.
    """

    def run(self, k: int) -> CFCMResult:
        """Select ``k`` nodes: the first pick, then ``k - 1`` rounds that
        each add the candidate with the largest estimated gain."""
        check_integer("k", k, minimum=1, maximum=self.graph.n - 1)
        start = clock()
        first, scores, log = self._first_pick()
        group = [int(first)]
        iteration_log = [{"iteration": 0, "node": group[0],
                          "score": float(scores[first]), **log}]
        for iteration in range(1, k):
            gains, log = self._gains(group)
            node = int(max(gains, key=gains.get))
            group.append(node)
            iteration_log.append({"iteration": iteration, "node": node,
                                  "gain": float(gains[node]), **log})
        return CFCMResult(
            method=self.method_name,
            group=group,
            runtime_seconds=clock() - start,
            parameters=self._parameters(),
            iteration_log=iteration_log,
        )
