"""Check that this tree prints the same digests as a git revision of it.

Usage: python scripts/compare_trees.py [--diff] REF

Exports REF's `src/` with `git archive` into a temporary directory, runs
this tree's `scripts/trajectory_digest.py` and `scripts/cli_digest.py` once
with REF's `src/` on PYTHONPATH and once with this tree's, and prints every
digest line with `same` or `DIFFERS`, then the number of lines of
`src/**/*.py` that hold code (blank lines, comments and docstrings left
out) in REF and here.  Exits 1 if any digest line differs; the line count
does not change the exit status.  The temporary directory is removed
afterwards.

With --diff it prints, instead of the digests, one line per trajectory
that `scripts/trajectory_digest.py` digests: the largest |dtheta| over its
angles, the largest |d(F a_n)| / max(B, D) over its scaled coefficients and
the largest |dE| / |E| over its errors, each sweep against the same sweep
at REF (a sweep only one side ran is named, not measured), then the
largest of each over all trajectories.  A fit that raised on either side
is compared by its exception text.  It exits 1 if any difference is not
zero.

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

import numpy as np

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


# What --diff measures per trajectory: (key in the dump, name printed).
_MEASURES = (("theta", "dtheta"), ("fa", "dFa/scale"), ("E", "dE/E"))


def _load(path: Path) -> dict[str, tuple[float, dict | str]]:
    """label -> (max(B, D), numbers or exception text) from a trajectory_digest.py --dump file."""
    with np.load(path) as data:
        out = {}
        for index, label in enumerate(data["labels"].tolist()):
            scale = float(data[f"{index}.scale"])
            if f"{index}.error" in data:
                out[label] = (scale, str(data[f"{index}.error"]))
                continue
            keys = [f"{index}.{key}" for key, _ in _MEASURES]
            out[label] = (scale, {k.split(".")[1]: data[k] for k in keys if k in data})
        return out


def _largest(old: np.ndarray, new: np.ndarray, relative: bool) -> float:
    """The largest |new - old| (over |old| if ``relative``) on the common prefix.

    Two equal values, nan and inf included, differ by 0; a nan against a
    number, or a nonzero difference from a zero, by inf.
    """
    count = min(len(old), len(new))
    old, new = old[:count], new[:count]
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.abs(new - old)
        if relative:
            gap = gap / np.abs(old)
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    gap = np.where(same, 0.0, np.where(np.isnan(gap), np.inf, gap))
    return float(gap.max(initial=0.0))


def _diff(ref: str, tmp: str) -> bool:
    """Print how far each digested trajectory moved from REF; True if any did."""
    dumps = []
    for side, src in (("ref", Path(tmp) / "src"), ("here", ROOT / "src")):
        dump = Path(tmp) / f"{side}.npz"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "trajectory_digest.py"), "--dump", str(dump)],
            env=env, capture_output=True, text=True, check=True,
        )
        dumps.append(_load(dump))
    theirs, ours = dumps
    differs = False
    worst = dict.fromkeys((name for _, name in _MEASURES), 0.0)
    for label in dict.fromkeys([*theirs, *ours]):
        if label not in theirs or label not in ours:
            differs = True
            print(f"DIFFERS {label}: only {'here' if label in ours else 'at ' + ref}")
            continue
        (scale, old), (_, new) = theirs[label], ours[label]
        if isinstance(old, str) or isinstance(new, str):
            if old == new:
                print(f"same    {label}: raised {new}")
            else:
                differs = True
                said = ["raised " + side if isinstance(side, str) else "ran" for side in (old, new)]
                print(f"DIFFERS {label}: {said[0]} at {ref}, {said[1]} here")
            continue
        gaps = {}
        for key, name in _MEASURES:
            if key in old:
                gap = _largest(old[key], new[key], relative=key == "E")
                gaps[name] = gap / scale if key == "fa" else gap
                worst[name] = max(worst[name], gaps[name])
        sweeps = "" if len(old["E"]) == len(new["E"]) else (
            f" ({len(old['E'])} errors at {ref}, {len(new['E'])} here)"
        )
        moved = any(gaps.values()) or bool(sweeps)
        differs |= moved
        text = " ".join(f"{name} {value:.3g}" for name, value in gaps.items())
        print(f"{'DIFFERS' if moved else 'same   '} {label}: {text}{sweeps}")
    print("largest: " + " ".join(f"{key} {value:.3g}" for key, value in worst.items()))
    return differs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git revision to compare against, such as HEAD~1")
    parser.add_argument("--diff", action="store_true",
                        help="print each trajectory's largest differences instead of the digests")
    args = parser.parse_args()
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.ref, "src"],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        if args.diff:
            return 1 if _diff(args.ref, tmp) else 0
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
