"""Table 4: lines of code changed (adoption-cost inventory).

The paper reports ~1,000 LoC of hooks in dcache.c/namei.c, ~2,400 LoC of
new files, small VFS/LSM touch-ups, and zero low-level file system
changes.  Reinterpreted for this codebase: we inventory the optimized
design (repro.core) against the substrate it hooks into (repro.vfs,
repro.fs), and verify the paper's structural claim — the low-level file
systems contain no optimized-kernel logic.
"""

from __future__ import annotations

import os
import tokenize
from typing import Dict

from repro.bench.harness import Report


#: Tokens that hold no code of their own (besides comments and NLs).
_NOT_CODE = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER)


def _loc(path: str) -> int:
    """Source lines, sloccount-style: the lines a code token spans, so
    not blank, comment-only or docstring (string statement) lines."""
    with open(path, "rb") as handle:
        tokens = [token for token in tokenize.tokenize(handle.readline)
                  if token.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
        if token.type in _NOT_CODE or (
                token.type == tokenize.STRING and before.type in _NOT_CODE
                and after.type == tokenize.NEWLINE):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _package_loc(root: str) -> Dict[str, int]:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                out[os.path.relpath(path, root)] = _loc(path)
    return out


def run(quick: bool = False) -> Report:
    """Run the experiment (scale-independent: it inventories the repo)."""
    import repro
    src_root = os.path.dirname(os.path.abspath(repro.__file__))
    report = Report(
        exp_id="Table 4",
        title="Lines of code by subsystem (this reproduction)",
        paper_expectation=("optimizations concentrated in new files + "
                           "dcache/namei hooks; zero low-level FS "
                           "changes; minor LSM impact"),
        headers=["subsystem", "files", "LoC"],
    )
    packages = ["core", "vfs", "fs", "sim", "workloads", "bench",
                "testing"]
    totals = {}
    for package in packages:
        locs = _package_loc(os.path.join(src_root, package))
        totals[package] = sum(locs.values())
        report.add_row(f"repro.{package}", len(locs), totals[package])

    # Structural claim: the low-level file systems never import the
    # optimized-kernel package.
    fs_dir = os.path.join(src_root, "fs")
    fs_mentions_core = False
    for name in os.listdir(fs_dir):
        if name.endswith(".py"):
            with open(os.path.join(fs_dir, name), encoding="utf-8") as fh:
                if "repro.core" in fh.read():
                    fs_mentions_core = True
    report.check("low-level file systems contain no optimized-kernel "
                 "code (paper: FSes unchanged)", not fs_mentions_core)
    report.check("the optimized design is a bounded fraction of the "
                 "substrate (paper: ~2.4k new + ~1k hook LoC)",
                 totals["core"] < totals["vfs"] + totals["fs"],
                 f"core={totals['core']} vs substrate="
                 f"{totals['vfs'] + totals['fs']}")
    return report
