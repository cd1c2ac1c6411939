#!/usr/bin/env python3
"""Docs-consistency gate: the operational docs must track the code.

Three checks, all computed from the sources (stdlib only, no build
needed), run under `ctest -L lint`:

  D1  Every POPRANK_* token referenced anywhere in src/, bench/ or
      CMakeLists.txt (environment variables and CMake options share the
      prefix) is documented in docs/RUNBOOK.md.  A knob someone added
      without a runbook row fails the gate.

  D2  The README's scheduler matrix and scheduler_kind_name()
      (src/schedulers/scheduler.cpp) name the same schedulers, both
      ways.  Each matrix row opens with a backticked name, compared up
      to any `[`: a scheduler added to the enum without a row fails the
      gate, and so does a row left behind for a deleted scheduler.

  D3  README.md links both docs/ARCHITECTURE.md and docs/RUNBOOK.md, so
      the documents stay discoverable from the front page.

Usage: check_docs_consistency.py [repo-root]
"""

import re
import sys
from pathlib import Path

TOKEN_RE = re.compile(r"POPRANK_[A-Z0-9_]+")
# `return "uniform";` lines inside scheduler_kind_name().
KIND_NAME_RE = re.compile(r'return "([a-z0-9-]+)";')
# The backticked name opening a matrix row, up to any `[`.
ROW_NAME_RE = re.compile(r"\| `([^`\[]+)")
MATRIX_HEADER = "| Scheduler |"


def collect_tokens(root: Path) -> set:
    tokens = set()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "bench"):
        files.extend(sorted((root / sub).rglob("*")))
    for path in files:
        if not path.is_file():
            continue
        if path.suffix not in {".hpp", ".cpp", ".h", ".py", ".txt"}:
            continue
        tokens.update(TOKEN_RE.findall(path.read_text(errors="replace")))
    return tokens


def scheduler_names(root: Path) -> list:
    text = (root / "src/schedulers/scheduler.cpp").read_text()
    # Scope the scan to the scheduler_kind_name function body: from its
    # signature to the first closing brace at column zero.
    start = text.index("scheduler_kind_name(SchedulerKind")
    end = text.index("\n}", start)
    names = KIND_NAME_RE.findall(text[start:end])
    return [n for n in names if n != "?"]


def matrix_row_names(readme: str) -> list:
    """Row names of the README table headed MATRIX_HEADER."""
    lines = readme.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith(MATRIX_HEADER)), len(lines))
    names = []
    # Skip the header and its |---| separator; the table ends at the
    # first line that is not a table row.
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        m = ROW_NAME_RE.match(line)
        names.append(m.group(1) if m else line)
    return names


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        __file__).resolve().parents[2]
    problems = []

    runbook_path = root / "docs/RUNBOOK.md"
    runbook = runbook_path.read_text() if runbook_path.is_file() else ""
    if not runbook:
        problems.append("D1: docs/RUNBOOK.md is missing")
    for token in sorted(collect_tokens(root)):
        if token not in runbook:
            problems.append(
                f"D1: {token} is referenced in the sources but not "
                "documented in docs/RUNBOOK.md")

    readme = (root / "README.md").read_text()
    rows = matrix_row_names(readme)
    kinds = scheduler_names(root)
    for name in kinds:
        if name not in rows:
            problems.append(
                f"D2: scheduler '{name}' (scheduler_kind_name) has no row "
                "in the README scheduler matrix")
    for name in sorted(set(rows) - set(kinds)):
        problems.append(
            f"D2: README scheduler matrix row '{name}' names no "
            "scheduler_kind_name() value")

    for doc in ("docs/ARCHITECTURE.md", "docs/RUNBOOK.md"):
        if doc not in readme:
            problems.append(f"D3: README.md does not link {doc}")
        if not (root / doc).is_file():
            problems.append(f"D3: {doc} is missing")

    if problems:
        for p in problems:
            print(p)
        print(f"\ndocs-consistency: {len(problems)} problem(s)")
        return 1
    print("docs-consistency: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
