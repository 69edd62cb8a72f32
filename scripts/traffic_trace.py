#!/usr/bin/env python
"""Which functions under ``src/repro`` does the repo's traffic execute?

Traffic is every input the code serves: the four perfbench workloads, each
untraced and traced (``--trace 0`` and ``--trace 1``), the commands of the
``bench-smoke`` job in ``.github/workflows/ci.yml`` exactly as CI runs them,
the paper-artefact CLI and the examples.  The CI commands are read from the
workflow itself (see :func:`ci_sources`), so a flag or step added there is
traced without an edit here.  Each source runs in a subprocess of its own,
with a fresh temporary directory as its working directory (so no
``BENCH_*``, ``METRICS_*`` or ``WORLDS_*`` artifact lands in the
repository) and BLAS pinned to one thread.  A profile hook (``sys.setprofile`` and ``threading.setprofile``)
records every Python function that starts.  The script then prints, per
module, the ``src/repro`` functions that no source executed, with their
line counts, then the public names with no traffic (below), and one line
per source: its exit status, how many src functions it executed and a
digest of that set of qualified names, so two commits can be compared
source by source.

A public name is an unexecuted function whose qualified name has no part
that starts with ``_`` (a nested function is never public) and whose
module, class or own name a ``repro`` package exports in ``__all__``.
Each is tagged with the reason of the first row below whose name is its
dotted ``module.qualname`` or a dotted prefix of it, or ``unclassified``.
An unclassified name needs a traffic source that runs it, or deletion.  A
row may name a function no package exports: the report never lists it,
and the row records why it stays.

Kept on purpose (name, then reason)::

    repro.linalg.schur                                  exact oracle that tests compare against
    repro.centrality.marginal                           exact oracle that tests compare against
    repro.centrality.resistance                         exact oracle that tests compare against
    repro.sampling.wilson.empirical_root_distribution   exact oracle that tests compare against
    repro.sampling.forest.Forest                        exact oracle that tests compare against
    repro.linalg.solvers.build_preconditioner           CG fallback when factoring raises
    repro.centrality.estimators.batched_projected_estimates   perfbench patch point
    repro.resilience.checkpoint                         checkpoint and restore (ROADMAP item 8)
    repro.dynamic.engine.DynamicCFCM.checkpoint         checkpoint and restore (ROADMAP item 8)
    repro.dynamic.engine.DynamicCFCM.restore            checkpoint and restore (ROADMAP item 8)
    repro.sampling.pool.WeightedForestPool.state_dict   checkpoint and restore (ROADMAP item 8)
    repro.sampling.pool.WeightedForestPool.from_state   checkpoint and restore (ROADMAP item 8)
    repro.resilience.watchdog.ResidualWatchdog.state_dict   checkpoint and restore (ROADMAP item 8)
    repro.resilience.watchdog.ResidualWatchdog.from_state   checkpoint and restore (ROADMAP item 8)
    repro.linalg.backends.DenseResistanceBackend.adopt_inverse   checkpoint and restore (ROADMAP item 8)
    repro.graph.generators                              graph constructor
    repro.graph.builders                                graph constructor
    repro.graph.datasets                                graph constructor
    repro.graph.io                                      graph I/O
    repro.graph.traversal.connected_components          callee of a kept row
    repro.graph.traversal.largest_connected_component   callee of a kept row
    repro.graph.graph.Graph.max_degree                  exact oracle that tests compare against
    repro.obs.tracing.get_tracer                        read by perfbench/

It uses the standard library and the repo only, takes several minutes and
is not a CI step::

    python scripts/traffic_trace.py

Work in processes that a source starts itself is not seen; none of the
sources starts one that runs the library.  Functions are matched by their
file and first line, read before the first source runs, so ``src`` must stay
unedited until the run ends: every src file is hashed before the first
source and again after each one, and on a change the script prints the
changed paths and exits 1 without a report.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 1800

CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
CI_JOB = "bench-smoke"


def ci_commands(text: str, job: str = CI_JOB) -> list:
    """The ``run:`` commands of one job of a GitHub Actions workflow.

    Reads the two forms the workflow uses, a plain scalar on the ``run:``
    line and a folded block (``run: >-``) whose indented lines join with
    spaces, with no YAML parser (PyYAML is not a CI dependency)."""
    lines = text.splitlines()
    start = lines.index(f"  {job}:") + 1
    commands = []
    for index in range(start, len(lines)):
        line = lines[index]
        if line.strip() and not line.startswith("   "):
            break  # the next job, or the end of ``jobs:``
        match = re.match(r"(\s+)(?:- )?run: *(.*)$", line)
        if not match:
            continue
        value = match.group(2)
        if value in (">-", ">"):
            indent = len(match.group(1))
            folded = []
            for follow in lines[index + 1:]:
                if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                    break
                folded.append(follow.strip())
            value = " ".join(part for part in folded if part)
        commands.append(value)
    return commands


def ci_source(command: str):
    """``(label, kind, target, arguments)`` of one CI command that runs the
    library (its ``PYTHONPATH=src`` prefix is dropped), else ``None``.

    ``python -m X args`` is a module source and ``python path args`` a path
    source.  A relative path argument that names a repository directory or
    ``.py`` file becomes absolute, since each source runs in a temporary
    directory; output files stay relative and land there."""
    words = shlex.split(command)
    env = []
    while words and re.match(r"[A-Za-z_][A-Za-z0-9_]*=", words[0]):
        env.append(words.pop(0))
    if "PYTHONPATH=src" not in env or not words or words[0] not in ("python", "python3"):
        return None
    label = " ".join(words)
    words = [str(REPO / word) if _names_repo_code(REPO / word) else word
             for word in words[1:]]
    if words[0] == "-m":
        return label, "module", words[1], words[2:]
    return label, "path", words[0], words[1:]


def _names_repo_code(path: Path) -> bool:
    return path.is_dir() or (path.suffix == ".py" and path.is_file())


def ci_sources() -> list:
    """The sources of :data:`CI_WORKFLOW`'s ``bench-smoke`` job."""
    commands = ci_commands(CI_WORKFLOW.read_text(encoding="utf-8"))
    return [source for source in map(ci_source, commands) if source is not None]


def sources() -> list:
    """Every traffic source as ``(label, "module" | "path", target,
    arguments)``."""
    return [
        *((f"perfbench {name} --trace {trace}", "module", "perfbench.child",
           ["--workload", name, "--seed", "1", "--seconds", "4",
            "--trace", trace])
          for name in ("select", "serve_churn", "shard_lattice", "serve_mixed")
          for trace in ("0", "1")),
        *ci_sources(),
        ("experiments all --quick", "module", "repro.experiments",
         ["all", "--quick"]),
        ("experiments dynamic --quick", "module", "repro.experiments",
         ["dynamic", "--quick"]),
        *((f"example {path.stem}", "path", str(path), [])
          for path in sorted((REPO / "examples").glob("*.py"))),
    ]

# Runs in the child: argv is (kind, target, output file, *arguments).
CHILD = r"""
import json, runpy, sys, threading
kind, target, output, src = sys.argv[1:5]
sys.argv = [target] + sys.argv[5:]
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(hook)
threading.setprofile(hook)
status = 0
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(target, run_name="__main__")
except SystemExit as exc:
    status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    with open(output, "w") as handle:
        json.dump(sorted({(code.co_filename, code.co_firstlineno)
                          for code in seen if code.co_filename.startswith(src)}),
                  handle)
sys.exit(status)
"""


def src_hashes(root: Path = SRC) -> dict:
    """SHA-256 of every ``.py`` file under ``root``, by path."""
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*.py"))}


def changed_paths(before: dict, after: dict) -> list:
    """Paths added, removed or edited between two :func:`src_hashes`."""
    return sorted(path for path in before.keys() | after.keys()
                  if before.get(path) != after.get(path))


def src_functions() -> dict:
    """``(file, first line) -> (module, qualname, line count)`` of every def.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    qualname = f"{prefix}{child.name}"
                    functions[(str(path), first)] = (
                        module, qualname, child.end_lineno - first + 1)
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return functions


def kept_on_purpose() -> list:
    """``(name, reason)`` rows of the docstring's kept-on-purpose table."""
    table = __doc__.split("Kept on purpose (name, then reason)::\n\n", 1)[1]
    rows = []
    for line in table.splitlines():
        if not line.startswith("    "):
            break
        rows.append(tuple(line.split(None, 1)))
    return rows


def exported() -> tuple:
    """``(modules, names)`` a ``repro`` package exports in ``__all__``:
    module names, and ``(module, qualname)`` of classes and functions."""
    sys.path.insert(0, str(SRC.parent))
    modules, names = set(), set()
    for init in sorted(SRC.rglob("__init__.py")):
        package = importlib.import_module(
            ".".join(init.parent.relative_to(SRC.parent).parts))
        for name in getattr(package, "__all__", ()):
            value = getattr(package, name)
            if inspect.ismodule(value):
                modules.add(value.__name__)
            elif inspect.isclass(value) or inspect.isfunction(value):
                names.add((value.__module__, value.__qualname__))
    return modules, names


def public_without_traffic(unexecuted: dict) -> list:
    """``(module.qualname, line count, reason)`` of each public name in
    ``unexecuted`` (module -> ``(first line, qualname, count)`` entries)."""
    modules, names = exported()
    table = kept_on_purpose()
    rows = []
    for module in sorted(unexecuted):
        for _, qualname, count in sorted(unexecuted[module]):
            parts = qualname.split(".")
            if any(part.startswith(("_", "<")) for part in parts):
                continue
            if module not in modules and (module, parts[0]) not in names:
                continue
            dotted = f"{module}.{qualname}"
            reason = next((why for name, why in table
                           if dotted == name or dotted.startswith(name + ".")),
                          "unclassified")
            rows.append((dotted, count, reason))
    return rows


def run_source(kind: str, target: str, arguments: list) -> tuple:
    """Run one source under the hook; returns (exit status, executed keys)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
    for key in BLAS_ENV:
        env[key] = "1"
    with tempfile.TemporaryDirectory() as workdir:
        output = Path(workdir) / "executed.json"
        try:
            status = subprocess.run(
                [sys.executable, "-c", CHILD, kind, target, str(output),
                 str(SRC), *arguments],
                cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        executed = ({tuple(key) for key in json.loads(output.read_text())}
                    if output.exists() else None)
    return status, executed


def main() -> int:
    hashes = src_hashes()
    functions = src_functions()
    executed_any = set()
    rows = []
    untraced = 0
    for label, kind, target, arguments in sources():
        status, executed = run_source(kind, target, arguments)
        changed = changed_paths(hashes, src_hashes())
        if changed:
            print(f"src changed before {label} ended, so the line table read "
                  "at the start is stale; no report:", file=sys.stderr)
            for path in changed:
                print(f"  {path}", file=sys.stderr)
            return 1
        if executed is None:
            untraced += 1
            rows.append(f"{label}: exit {status}, no trace written")
        else:
            executed_any |= executed
            names = sorted(f"{functions[key][0]}:{functions[key][1]}"
                           for key in executed if key in functions)
            digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
            rows.append(f"{label}: exit {status}, {len(names)} src functions, "
                        f"digest {digest}")
        print(rows[-1], file=sys.stderr, flush=True)

    unexecuted = defaultdict(list)
    lines_all = defaultdict(set)
    lines_unexecuted = defaultdict(set)
    for (path, first), (module, qualname, count) in functions.items():
        span = range(first, first + count)
        lines_all[path].update(span)
        if (path, first) not in executed_any:
            unexecuted[module].append((first, qualname, count))
            lines_unexecuted[path].update(span)

    print("\nsrc functions no source executed (line count, qualified name):")
    for module in sorted(unexecuted):
        print(module)
        for _, qualname, count in sorted(unexecuted[module]):
            print(f"  {count:5d}  {qualname}")
    total = sum(len(entries) for entries in unexecuted.values())
    print(f"\n{total} of {len(functions)} src functions ran in no source; they "
          f"hold {sum(map(len, lines_unexecuted.values()))} of the "
          f"{sum(map(len, lines_all.values()))} lines inside functions.")
    public = public_without_traffic(unexecuted)
    print("\npublic names with no traffic (line count, name, reason):")
    for dotted, count, reason in public:
        print(f"  {count:5d}  {dotted}  [{reason}]")
    unclassified = sum(reason == "unclassified" for _, _, reason in public)
    print(f"\n{len(public)} public names ran in no source; "
          f"{unclassified} are unclassified.")
    print("\nper source:")
    for row in rows:
        print(f"  {row}")
    return 1 if untraced else 0


if __name__ == "__main__":
    sys.exit(main())
