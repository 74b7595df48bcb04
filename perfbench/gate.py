"""Correctness gate: exit codes, VERDICT lines, sweep points, reproducibility.

An operation is one study, one sweep point, or one reproducibility
comparison of a file. A study fails on a nonzero exit or when a `VERDICT:`
line on its stdout is not PASS (or it printed none); a sweep point fails when
its `points.csv` row is `failed: ...`; a comparison fails when a file of a
later execution is not byte-identical to the first execution of the same
seed. `record.json` holds timestamps and is never compared.
"""

from __future__ import annotations

import hashlib
import os
import re

# run directories are named <UTC stamp>-<name>; the stamp differs per execution
_STAMP = re.compile(r"^\d{8}T\d{12}-")
UNCOMPARED = {"record.json"}


class Tally:
    """Operations attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def study_failures(result: dict) -> list[str]:
    """Why one study failed, from its exit code and captured stdout; empty if it passed."""
    name = result["argv"][0]
    if result.get("error"):
        return [f"{name}: crashed: {result['error'].strip().splitlines()[-1]}"]
    problems = []
    if result["exit"] != 0:
        problems.append(f"{name}: exit code {result['exit']}")
    verdicts = [line for line in result["stdout"].splitlines() if line.startswith("VERDICT:")]
    if not verdicts:
        problems.append(f"{name}: no VERDICT line")
    problems.extend(f"{name}: {line}" for line in verdicts if not line.endswith(" PASS"))
    return problems


def run_files(out_root: str) -> dict[str, str]:
    """Every file the studies wrote under `out_root`, keyed without run-dir stamps."""
    files = {}
    for directory, _, names in os.walk(out_root):
        rel = os.path.relpath(directory, out_root)
        parts = [] if rel == "." else [_STAMP.sub("", part) for part in rel.split(os.sep)]
        for name in names:
            files["/".join(parts + [name])] = os.path.join(directory, name)
    return files


def point_statuses(files: dict[str, str]) -> list[tuple[str, str]]:
    """(file key, status) for every row of every points.csv."""
    rows = []
    for key, path in sorted(files.items()):
        if os.path.basename(key) != "points.csv":
            continue
        with open(path) as fh:
            next(fh)
            rows.extend((key, line.rstrip("\n").split(",", 2)[2]) for line in fh)
    return rows


def _read(path: str | None) -> bytes | None:
    if path is None:
        return None
    with open(path, "rb") as fh:
        return fh.read()


def compare_files(reference: dict[str, str], files: dict[str, str]) -> list[tuple[str, bool]]:
    """(key, identical) for every compared file present in either execution."""
    keys = sorted(k for k in set(reference) | set(files) if os.path.basename(k) not in UNCOMPARED)
    return [(k, _read(reference.get(k)) == _read(files.get(k)) and k in reference and k in files)
            for k in keys]


def details_digests(files: dict[str, str]) -> dict[str, str]:
    """SHA-256 of every details.csv; reported so bitwise result changes show, never gated."""
    return {k: hashlib.sha256(_read(p)).hexdigest()
            for k, p in sorted(files.items()) if os.path.basename(k) == "details.csv"}
