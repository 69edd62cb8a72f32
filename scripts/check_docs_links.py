#!/usr/bin/env python
"""Lint: links in README.md and docs/, and Markdown files cited in code, must resolve.

Walks README.md and every Markdown file in ``docs/`` (reference dumps like
SNIPPETS.md quote third-party text and are out of scope), extracts inline
links (``[text](target)``), and fails when a relative target does not exist
on disk.  External links (``http(s)://``, ``mailto:``) and pure fragments
(``#section``) are skipped; a fragment on a relative link is checked
against the target file's headings.

It also reads every ``.py`` file under ``src/``, ``benchmarks/``,
``examples/`` and ``scripts/`` and fails when a ``*.md`` name cited there
resolves neither from the repo root, nor from ``docs/``, nor from the citing
file's directory.

Exit status is non-zero when a broken link is found (CI gates on it)::

    python scripts/check_docs_links.py
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
#: A Markdown file name as code cites it, with an optional relative path.
CITED_MARKDOWN = re.compile(r"[\w./-]+\.md\b")
CODE_DIRS = ("src", "benchmarks", "examples", "scripts")


def heading_anchors(path: Path) -> set:
    """GitHub-style anchors of every Markdown heading in ``path``."""
    anchors = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            continue
        title = line.lstrip("#").strip().lower()
        title = re.sub(r"[`*]", "", title)
        title = re.sub(r"[^\w\s-]", "", title)
        anchors.add(re.sub(r"\s+", "-", title.strip()))
    return anchors


def check_file(path: Path) -> list:
    """``file: target (reason)`` strings for every broken link in ``path``."""
    broken = []
    relative = path.relative_to(REPO)
    for target in LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        file_part, _, fragment = target.partition("#")
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            broken.append(f"{relative}: {target} (missing file)")
        elif fragment and resolved.suffix == ".md":
            if fragment not in heading_anchors(resolved):
                broken.append(f"{relative}: {target} (missing heading)")
    return broken


def check_code_citations(path: Path) -> list:
    """``file: name (missing file)`` for every ``*.md`` name ``path`` cites in vain."""
    broken = []
    bases = (REPO, REPO / "docs", path.parent)
    for name in sorted(set(CITED_MARKDOWN.findall(path.read_text(encoding="utf-8")))):
        if not any((base / name).exists() for base in bases):
            broken.append(f"{path.relative_to(REPO)}: {name} (missing file)")
    return broken


def main() -> int:
    candidates = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    candidates = [path for path in candidates if path.exists()]
    code = sorted(path for folder in CODE_DIRS
                  for path in (REPO / folder).rglob("*.py"))
    broken = []
    for path in candidates:
        broken.extend(check_file(path))
    for path in code:
        broken.extend(check_code_citations(path))
    if broken:
        print("[check_docs_links] broken relative links:")
        for item in broken:
            print(f"  {item}")
        return 1
    print(f"[check_docs_links] OK: relative links resolve across "
          f"{len(candidates)} Markdown files, and Markdown files cited in "
          f"{len(code)} Python files exist")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
