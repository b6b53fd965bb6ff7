"""Line count of ``src/``: total lines and code-only lines.

Code-only lines are the lines that carry at least one Python token
other than a comment, a docstring, or layout (newlines, indentation).
Counting them beside the raw total means a change that only rewraps
comments or trims docstrings cannot pass for a code deletion.

    python3 benchmarks/sloc.py                    # the working tree
    python3 benchmarks/sloc.py --against HEAD~1   # plus the delta

With ``--against <git-ref>`` the ``src/`` tree of that commit is read
through ``git show`` and the delta (working tree minus ref) is printed.
A report, not a gate: it never fails on the numbers.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = "src"

#: Token types that never make a line count as code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) where each module/class/function docstring begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count_lines(source: str) -> tuple[int, int]:
    """``(total lines, code-only lines)`` of one Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout


def worktree_sources() -> dict[str, str]:
    """``{path: text}`` of every ``.py`` file under ``src/`` on disk."""
    return {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted((REPO_ROOT / SRC).rglob("*.py"))
    }


def ref_sources(ref: str) -> dict[str, str]:
    """``{path: text}`` of every ``.py`` file under ``src/`` at ``ref``."""
    names = _git("ls-tree", "-r", "--name-only", ref, "--", SRC).splitlines()
    return {
        name: _git("show", f"{ref}:{name}") for name in names if name.endswith(".py")
    }


def tally(sources: dict[str, str]) -> dict[str, int]:
    total = code = 0
    for text in sources.values():
        t, c = count_lines(text)
        total += t
        code += c
    return {"files": len(sources), "total": total, "code": code}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against",
        metavar="REF",
        help="also count src/ at this git ref and print the delta",
    )
    args = parser.parse_args(argv)

    now = tally(worktree_sources())
    if args.against is None:
        print(
            f"{SRC}/: {now['files']} files, {now['total']} lines, "
            f"{now['code']} code-only lines"
        )
        return 0
    then = tally(ref_sources(args.against))
    width = max(14, len(args.against) + 2)
    print(f"{'src/':<8}{args.against:>{width}}{'worktree':>{width}}{'delta':>10}")
    for key in ("files", "total", "code"):
        print(
            f"{key:<8}{then[key]:>{width}}{now[key]:>{width}}"
            f"{now[key] - then[key]:>+10}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
