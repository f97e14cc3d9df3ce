"""Code-only and all line counts of src/jtsim, per file, each with its net change from a git
revision.

A code line is one that is not blank, not comment-only and not inside a module, class or
function docstring; a line that any other token touches counts, so each line of a
multi-line expression or of a string that is not a docstring counts.  All lines are what
``wc -l`` counts, so the total's change is the net of ``git diff --numstat REV``.  Prints a
Markdown table.  Run from the repository root:

    python3 .github/code_lines.py [REV]

REV defaults to HEAD^1; where it is not in the history the change columns read n/a.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SOURCE = "src/jtsim"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True)


def counts(text: str) -> tuple[int, int]:
    """(code lines, all lines) of a source text."""
    return code_lines(text), len(text.splitlines())


def counts_at(rev: str) -> dict[str, tuple[int, int]] | None:
    """{path: counts} of the sources at ``rev``, or None if ``rev`` is not a commit."""
    if _git("rev-parse", "-q", "--verify", f"{rev}^{{commit}}").returncode:
        return None
    paths = _git("ls-tree", "--name-only", rev, f"{SOURCE}/").stdout.split()
    return {path: counts(_git("show", f"{rev}:{path}").stdout)
            for path in paths if path.endswith(".py")}


def main(rev: str = "HEAD^1") -> None:
    now = {str(path): counts(path.read_text()) for path in sorted(Path(SOURCE).glob("*.py"))}
    before = counts_at(rev)
    old = before or {}
    rows = [(path, *now.get(path, (0, 0)), *old.get(path, (0, 0)))
            for path in sorted(now.keys() | old.keys())]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))

    def change(a: int, b: int) -> str:
        return "n/a" if before is None else f"{a - b:+d}"

    print(f"| {SOURCE} file | code lines | change from {rev} | all lines | change from {rev} |")
    print("|---|---:|---:|---:|---:|")
    for path, code, total, code_before, total_before in rows:
        print(f"| {path} | {code} | {change(code, code_before)} | {total} "
              f"| {change(total, total_before)} |")


if __name__ == "__main__":
    main(*sys.argv[1:])
