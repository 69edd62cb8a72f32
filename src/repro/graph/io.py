"""Edge-list input/output in the formats used by KONECT / SNAP dumps.

The paper's datasets are plain whitespace-separated edge lists, optionally
with comment lines.  These helpers read and write that format, relabel nodes
to ``0 .. n - 1`` and can restrict to the largest connected component, which
is exactly the preprocessing described in Section V-A of the paper.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Tuple, Union

from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.graph.builders import from_edge_list
from repro.graph.traversal import largest_connected_component

PathLike = Union[str, Path]

_COMMENT_PREFIXES = ("#", "%", "//")


def read_edge_list(path: PathLike, lcc_only: bool = False,
                   ) -> Tuple[Graph, Dict[int, str]]:
    """Read a whitespace-separated edge list file.

    Parameters
    ----------
    path:
        File with one ``u v`` pair per line; comment lines starting with
        ``#``, ``%`` or ``//`` and extra columns (weights, timestamps) are
        ignored, matching KONECT's ``out.*`` files.
    lcc_only:
        Restrict the result to the largest connected component (the paper's
        preprocessing step).

    Returns
    -------
    (graph, labels):
        ``labels[i]`` is the original token of node ``i``.
    """
    path = Path(path)
    raw_edges = []
    tokens_seen: Dict[str, int] = {}

    def node_id(token: str) -> int:
        if token not in tokens_seen:
            tokens_seen[token] = len(tokens_seen)
        return tokens_seen[token]

    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(_COMMENT_PREFIXES):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphError(
                    f"{path}:{line_number}: expected at least two columns, got {stripped!r}"
                )
            raw_edges.append((node_id(parts[0]), node_id(parts[1])))

    if not tokens_seen:
        raise GraphError(f"{path}: no edges found")
    graph = from_edge_list(raw_edges, n=len(tokens_seen))
    labels = {idx: token for token, idx in tokens_seen.items()}
    if lcc_only:
        graph, keep = largest_connected_component(graph)
        labels = {new: labels[int(old)] for new, old in enumerate(keep)}
    return graph, labels


def write_edge_list(graph: Graph, path: PathLike,
                    header: Iterable[str] = ()) -> None:
    """Write ``graph`` as a whitespace-separated edge list with ``u < v`` rows."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for line in header:
            handle.write(f"# {line}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
