"""Check that this tree prints the same digests as a git revision of it.

Usage: python scripts/compare_trees.py [--diff] REF

Exports REF's `src/` with `git archive` into a temporary directory, runs
this tree's `scripts/trajectory_digest.py` and `scripts/cli_digest.py` once
with REF's `src/` on PYTHONPATH and once with this tree's, and prints every
digest line with `same` or `DIFFERS`, then the number of lines of
`src/**/*.py` that hold code (blank lines, comments and docstrings left
out) in REF and here, and under it the same counts for each module whose
count changed.  Exits 1 if any digest line differs; the line counts do
not change the exit status.  The temporary directory is removed
afterwards.

With --diff it prints, instead of the digests, one line per trajectory
that `scripts/trajectory_digest.py` digests, marked `same` (no number
moved), `within` (every difference inside the contract below) or
`OUTSIDE`.  The line gives the largest |dtheta| over its angles, the
largest |d(F a_n)| / max(B, D) over its scaled coefficients and the
largest |dE| / |E| over its errors, each sweep against the same sweep at
REF, and after each the contract's bound at the sweep where the
difference comes nearest its bound.  Then it prints the largest of each
difference over all trajectories.  A fit that raised on either side is
compared by its exception text.  It exits 1 if any trajectory is
`OUTSIDE`, which includes an outcome only one side had: a trajectory, an
exception, or a sweep or a search's accepted order below the rank cap.
A trajectory whose sweep counts differ is `OUTSIDE` (`within` above the
cap) without bounds; its line gives the two error counts and the largest
|dtheta|, |d(F a_n)| / max(B, D) and |dE| / |E| over the sweeps both
sides ran (for a search, over the leading per-order entries both have).

The contract (ROADMAP item 2(a)).  It bounds how far two correct trees may
differ on a digested fit at order N on p points, sweep by sweep.  It is
derived from the conditioning of the problem, not from any tree's
differences, and it reads the conditioning off REF's dump
(`trajectory_digest._sweep_rows`).  Notation: s = max(B, D), u = 2**-53,
T = `ANGLE_WIDTH` (`theta.THETA_TOL`, the width to which every angle is
solved), c = the N + 1 scaled coefficients F a_n, m = the largest |c_n| / s
up to the sweep, A c = b a sweep's coefficient system with
kappa = ||A|| ||A^-1|| in the infinity norm, and r_i the angle residual of
point i, whose slope at its angle is r_i'.

* Coverage.  A symmetric section gives 2p - 2 equations (the keel's x and
  the waterline's y vanish for every c) in N + 1 coefficients and p - 2
  free angles; a non-symmetric one 2p equations in N + 1 coefficients and
  p angles.  Either way a fit has isolated solutions only for N <= p - 1,
  the rank cap of ROADMAP item 1(c).  Above it the solutions form a
  family along which rounding moves a fit freely, so no per-sweep bound
  holds, and the bounds are infinite.  Of the digested trajectories, the
  fits of rectangle41 and bulb41 at N = 60 and the heeled_rectangle21
  floor at N = 30 lie above the cap; every other one is covered.
* The angle step, from the same coefficients.  A correct solver returns a
  point within T / 2 of a sign change of the float residual, and the
  residual's rounding e_r <= 4 (N + 2) u (1 + (N + 1) m) s moves a sign
  change by at most e_r / |r_i'|.  So two correct solvers differ at point
  i by d_i = T + 2 e_r / |r_i'|.
* The coefficient step.  Moving angle i by d_i moves each entry
  sum_i cos(2 (j - n) theta_i) of A by at most 2 |j - n| d_i and each
  entry of b by at most (2N - 1) sqrt(2) s d_i, so with D = sum_i d_i,
  ||dA|| <= N (N + 1) D and ||db|| <= (2N - 1) sqrt(2) s D.  Since
  ||A|| >= p (its first diagonal entry is p), the perturbation theorem for
  linear systems (Higham, Accuracy and Stability of Numerical Algorithms,
  thm 7.2) gives ||dc|| / s <= kappa (D / p) ((2N - 1) sqrt(2) + N (N + 1)
  m) / (1 - kappa N (N + 1) D / p), which is infinite unless the
  denominator is positive.  The two LU solves add 6 (N + 1)**2 u kappa m,
  taking partial pivoting's growth factor as 1.  Call the sum e_c.
* Sweep k.  The coefficients carry one sweep's differences into the next.
  The contract assumes that the alternating iteration does not expand
  differences in c, so that they add up: |d(F a_n)| / s <= C_k, the sum
  of e_c over sweeps 1..k.  Sweep k's angles are roots for sweep k - 1's
  coefficients, and the residual moves by at most sqrt(2) per unit of any
  c_n, so |dtheta_i| <= d_i + sqrt(2) (N + 1) C_{k-1} s / |r_i'|.
* The error.  A mapped point moves by at most z = (N + 1) s (C_k + 2N m
  |dtheta|), so E = sum |P_i - Z_i|**2 moves by at most
  2 sqrt(p E) z + p z**2 (Cauchy-Schwarz), plus 4 p u E for the rounding
  of each side's sum.  A search's floors and a floor are errors of the
  sweeps they were read off, and take those sweeps' bounds.
* What is left to confirm.  The assumption of the sweep-k paragraph is the
  one step no conditioning argument supplies.  Moving every free angle of
  `7395e1d` by at most 1e-13 after each sweep, far inside T / 2, keeps
  every covered trajectory within its bounds but one: fine41 at N = 8,
  whose fit never reaches its tolerance and whose |F a_n| reach 7.7 s,
  expands the difference 1.2 to 1.7 times a sweep from sweep 20 on, until
  an angle jumps by 0.36 at sweep 90.  As stated, the contract marks that
  trajectory `OUTSIDE` under any change of rounding.

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


def _code_lines(src: Path) -> dict[str, int]:
    """Per module of ``src/**/*.py``, its lines holding code: not comments or docstrings."""
    counts = {}
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
        counts[path.relative_to(src).as_posix()] = len(lines)
    return counts


# What --diff measures per trajectory: (key in the dump, name printed).
_MEASURES = (("theta", "dtheta"), ("fa", "dFa/scale"), ("E", "dE/E"))
# The contract's angle width, `theta.THETA_TOL`, and the unit roundoff.
ANGLE_WIDTH = 1e-12
_UNIT = 2.0**-53


def _load(path: Path) -> dict[str, tuple[float, dict | str]]:
    """label -> (max(B, D), arrays or exception text) from a trajectory_digest.py --dump file."""
    with np.load(path) as data:
        out = {}
        for index, label in enumerate(data["labels"].tolist()):
            scale = float(data[f"{index}.scale"])
            if f"{index}.error" in data:
                out[label] = (scale, str(data[f"{index}.error"]))
                continue
            prefix = f"{index}."
            out[label] = (scale, {
                key[len(prefix):]: data[key] for key in data.files if key.startswith(prefix)
            })
        return out


def _gaps(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|new - old| elementwise; two equal values, nan and inf included, differ by 0."""
    with np.errstate(invalid="ignore"):
        gap = np.abs(new - old)
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    return np.where(same, 0.0, np.where(np.isnan(gap), np.inf, gap))


def _bounds(data: dict, scale: float) -> dict[str, np.ndarray]:
    """The contract's bounds on |dtheta|, |d(F a_n)| / scale and |dE|, one per error of ``data``."""
    points, errors = int(data["points"]), np.abs(data["E"])
    # Per fit, each sweep's bounds: angles, coefficients, and m up to it.
    sweeps = {}
    for fit in np.unique(data["rows"][:, 0]):
        _, _, order, kappa, m, worst, total = data["rows"][data["rows"][:, 0] == fit].T
        n = order[0]
        m = np.maximum.accumulate(m)
        roundoff = 4.0 * (n + 2) * _UNIT * (1.0 + (n + 1) * m)
        with np.errstate(invalid="ignore", over="ignore"):
            angle = ANGLE_WIDTH + 2.0 * roundoff * worst
            summed = (points * ANGLE_WIDTH + 2.0 * roundoff * total) / points
            shift = kappa * n * (n + 1) * summed
            moved = kappa * summed * ((2 * n - 1) * np.sqrt(2.0) + n * (n + 1) * m)
            step = np.where(shift < 1.0, moved / (1.0 - shift), np.inf)
            step = step + 6.0 * (n + 1) ** 2 * _UNIT * kappa * m
            steps = np.cumsum(step)
            # Sweep k's angles are roots for sweep k - 1's coefficients.
            angle = angle + np.sqrt(2.0) * (n + 1) * np.concatenate([[0.0], steps[:-1]]) * worst
        if n > points - 1:
            angle = steps = np.full(len(m), np.inf)
        sweeps[fit] = (n, angle, steps, m)
    out = {"theta": [], "fa": [], "E": []}
    for (fit, sweep), error in zip(data["entries"].astype(int).tolist(), errors.tolist()):
        if sweep == 0:  # an error read off no sweep
            angle = coefficient = z = np.inf
        else:
            n, angles, steps, m = sweeps[fit]
            angle, coefficient = angles[sweep - 1], steps[sweep - 1]
            z = (n + 1) * scale * (coefficient + 2 * n * m[sweep - 1] * angle)
        with np.errstate(invalid="ignore"):
            e = 2.0 * np.sqrt(points * error) * z + points * z * z + 4.0 * points * _UNIT * error
        out["theta"].append(angle)
        out["fa"].append(coefficient)
        out["E"].append(np.inf if np.isnan(e) else e)
    return {key: np.array(values) for key, values in out.items()}


def _row_gaps(old: dict, new: dict, key: str, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(largest difference per row, the size it is shown over) of one measure, over the rows both sides have.

    A row is one sweep; a search keeps the angles and coefficients of its
    last fit only.  Coefficients are measured over ``scale``; dE is shown
    over |E| at REF.
    """
    width = {"theta": int(old["points"]), "fa": int(old["rows"][-1, 2]) + 1, "E": 1}[key]
    rows = min(len(old[key]), len(new[key])) // width
    gap = _gaps(old[key][:rows * width], new[key][:rows * width]).reshape(-1, width).max(axis=1, initial=0.0)
    size = np.abs(old["E"][:rows]) if key == "E" else 1.0
    return (gap / scale if key == "fa" else gap), size


def _shown(gap: np.ndarray, size) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap == 0.0, 0.0, gap / size)


def _judge(old: dict, new: dict, scale: float) -> tuple[str, dict, str]:
    """(mark, name -> (largest difference, its bound where nearest), note) of one trajectory."""
    points = int(old["points"])
    above = (old["rows"][:, 2] > points - 1).any()
    note = f"N above the rank cap {points - 1}: not bounded" if above else ""
    measures = [(key, name) for key, name in _MEASURES if key in old]
    if any(old[key].shape != new[key].shape for key, _ in measures):
        counts = f"{len(old['E'])} errors at REF, {len(new['E'])} here"
        largest = (f"{name} {_shown(*_row_gaps(old, new, key, scale)).max(initial=0.0):.3g}"
                   for key, name in measures)
        common = "common sweeps: " + " ".join(largest)
        return ("within" if above else "OUTSIDE"), {}, "; ".join(filter(None, (note, counts, common)))
    bounds = _bounds(old, scale)
    found, inside = {}, True
    for key, name in measures:
        gap, size = _row_gaps(old, new, key, scale)
        bound = bounds[key][len(bounds[key]) - len(gap):]
        inside &= bool((gap <= bound).all())
        # dE is judged whole.
        with np.errstate(divide="ignore", invalid="ignore"):
            nearest = int(np.argmax(np.nan_to_num(gap / bound)))
            limit = np.broadcast_to(bound / size, bound.shape)
        found[name] = (float(_shown(gap, size).max()), float(limit[nearest]))
    moved = any(largest for largest, _ in found.values())
    return ("within" if inside else "OUTSIDE") if moved else "same", found, note


def _diff(ref: str, tmp: str) -> bool:
    """Print how far each digested trajectory moved from REF; True if any is outside the contract."""
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
    outside = False
    worst = dict.fromkeys((name for _, name in _MEASURES), 0.0)
    for label in dict.fromkeys([*theirs, *ours]):
        if label not in theirs or label not in ours:
            outside = True
            print(f"OUTSIDE {label}: only {'here' if label in ours else 'at ' + ref}")
            continue
        (scale, old), (_, new) = theirs[label], ours[label]
        if isinstance(old, str) or isinstance(new, str):
            if old == new:
                print(f"same    {label}: raised {new}")
            else:
                outside = True
                said = ["raised " + side if isinstance(side, str) else "ran" for side in (old, new)]
                print(f"OUTSIDE {label}: {said[0]} at {ref}, {said[1]} here")
            continue
        mark, found, note = _judge(old, new, scale)
        outside |= mark == "OUTSIDE"
        for name, (largest, _) in found.items():
            worst[name] = max(worst[name], largest)
        parts = [f"{name} {gap:.3g} (bound {bound:.3g})" for name, (gap, bound) in found.items()]
        parts += [f"({note})"] if note else []
        print(f"{mark:7} {label}: {' '.join(parts)}".replace("REF", ref))
    print("largest: " + " ".join(f"{key} {value:.3g}" for key, value in worst.items()))
    return outside


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git revision to compare against, such as HEAD~1")
    parser.add_argument("--diff", action="store_true",
                        help="judge each trajectory's differences by the contract instead of "
                             "printing the digests")
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
    total = sum(theirs.values()), sum(ours.values())
    print(f"src code lines: {args.ref} {total[0]} here {total[1]} ({total[1] - total[0]:+d})")
    for module in sorted({*theirs, *ours}):
        old, new = theirs.get(module, 0), ours.get(module, 0)
        if old != new:
            print(f"  {module}: {args.ref} {old} here {new} ({new - old:+d})")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
