"""``scripts/traffic_trace.py`` reads its CI sources from the workflow itself."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_trace():
    spec = importlib.util.spec_from_file_location(
        "traffic_trace", REPO / "scripts" / "traffic_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_smoke_step_is_a_source():
    trace = load_trace()
    commands = trace.ci_commands(trace.CI_WORKFLOW.read_text(encoding="utf-8"))
    sources = {command: trace.ci_source(command) for command in commands}
    # Only the dependency install runs no library code.
    assert [command for command, source in sources.items() if source is None] \
        == ["python -m pip install -r requirements-ci.txt"]
    targets = sorted(source[2] for source in sources.values() if source)
    assert targets == sorted(
        ["pytest"] + ["repro.experiments"] * 3
        + [str(REPO / "benchmarks" / f"bench_{name}.py")
           for name in ("dynamic", "async", "sampling", "pool", "backend",
                        "distributed", "worlds")])
    assert ("python -m pytest benchmarks -o python_files=bench_*.py "
            "--benchmark-disable -q", "module", "pytest",
            [str(REPO / "benchmarks"), "-o", "python_files=bench_*.py",
             "--benchmark-disable", "-q"]) in sources.values()


def test_folded_commands_keep_every_flag():
    trace = load_trace()
    text = """jobs:
  bench-smoke:
    steps:
      - name: Folded
        # a comment between the name and the command
        run: >-
          PYTHONPATH=src python -m repro.experiments worlds --smoke --faults
          --output-json W.json
      - name: Plain
        run: PYTHONPATH=src python benchmarks/bench_pool.py --smoke
  other:
    steps:
      - run: PYTHONPATH=src python -m never.traced
"""
    commands = trace.ci_commands(text)
    assert commands == [
        "PYTHONPATH=src python -m repro.experiments worlds --smoke --faults "
        "--output-json W.json",
        "PYTHONPATH=src python benchmarks/bench_pool.py --smoke"]
    assert trace.ci_source(commands[0])[1:] == (
        "module", "repro.experiments",
        ["worlds", "--smoke", "--faults", "--output-json", "W.json"])
    assert trace.ci_source(commands[1])[1:] == (
        "path", str(REPO / "benchmarks" / "bench_pool.py"), ["--smoke"])


def test_src_hashes_name_every_changed_file(tmp_path):
    trace = load_trace()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
    (tmp_path / "notes.txt").write_text("not source\n")
    before = trace.src_hashes(tmp_path)
    assert sorted(before) == [str(tmp_path / "a.py"),
                              str(tmp_path / "pkg" / "b.py")]
    assert trace.changed_paths(before, trace.src_hashes(tmp_path)) == []

    (tmp_path / "pkg" / "b.py").write_text("y = 3\n")
    (tmp_path / "pkg" / "c.py").write_text("z = 4\n")
    (tmp_path / "a.py").unlink()
    (tmp_path / "notes.txt").write_text("edited\n")
    assert trace.changed_paths(before, trace.src_hashes(tmp_path)) == sorted(
        str(tmp_path / name) for name in ("a.py", "pkg/b.py", "pkg/c.py"))
