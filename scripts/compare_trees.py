"""Check that this tree prints the same digests as a git revision of it.

Usage: python scripts/compare_trees.py REF

Exports REF's `src/` with `git archive` into a temporary directory, runs
this tree's `scripts/trajectory_digest.py` and `scripts/cli_digest.py` once
with REF's `src/` on PYTHONPATH and once with this tree's, and prints every
digest line with `same` or `DIFFERS`, then the number of lines of
`src/**/*.py` that hold code (blank lines, comments and docstrings left
out) in REF and here.  Exits 1 if any digest line differs; the line count
does not change the exit status.  The temporary directory is removed
afterwards.

The working tree's files are compared, committed or not.  Both sides run
the digest scripts of this tree, so a script changed since REF digests REF
the new way.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("trajectory_digest.py", "cli_digest.py")
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _digests(script: str, src: Path) -> list[str]:
    """The lines ``script`` prints with ``src`` as the only entry on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()


def _code_lines(src: Path) -> int:
    """Lines of ``src/**/*.py`` holding a token other than a comment or a docstring."""
    total = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                        and isinstance(first.value.value, str)):
                    docstrings.add((first.lineno, first.col_offset))
        lines = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in _NOT_CODE and token.start not in docstrings:
                lines.update(range(token.start[0], token.end[0] + 1))
        total += len(lines)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git revision to compare against, such as HEAD~1")
    args = parser.parse_args()
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.ref, "src"],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for script in SCRIPTS:
            theirs = _digests(script, Path(tmp) / "src")
            ours = _digests(script, ROOT / "src")
            if len(theirs) != len(ours):
                differs = True
                print(f"DIFFERS {script}: {len(theirs)} lines at {args.ref}, {len(ours)} here")
                continue
            for number, (old, new) in enumerate(zip(theirs, ours), start=1):
                if old == new:
                    print(f"same    {script}:{number} {new}")
                else:
                    differs = True
                    print(f"DIFFERS {script}:{number} {args.ref} {old} here {new}")
        theirs, ours = _code_lines(Path(tmp) / "src"), _code_lines(ROOT / "src")
    print(f"src code lines: {args.ref} {theirs} here {ours} ({ours - theirs:+d})")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
