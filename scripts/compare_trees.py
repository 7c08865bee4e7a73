"""Compare every trajectory and every CLI file of this tree with a git revision's.

Usage: python scripts/compare_trees.py REF

Exports REF's `src/` with `git archive` into a temporary directory, and
runs this tree's `scripts/trajectory_digest.py` and `scripts/cli_digest.py`
once with REF's `src/` on PYTHONPATH and once with this tree's.  It prints:

* One line per trajectory that `trajectory_digest.py` records, marked
  `same` (every array equal bit for bit), `within` (every difference
  inside the contract below) or `OUTSIDE`.  The line gives the largest
  |dtheta| over its angles, the largest |d(F a_n)| / max(B, D) over its
  scaled coefficients and the largest |dE| / |E| over its errors, each
  sweep against the same sweep at REF, and after each the contract's bound
  at the sweep where the difference comes nearest its bound.  The contract
  does not bound the other arrays: the unresolved pairs, the mapped
  points, a search's records, best order and trace, and the contract's own
  inputs.  The line's note names each of them that differs, and a
  trajectory where only they differ is `OUTSIDE`.  A fit that raised on
  either side is compared by its exception text.  An outcome only one
  side had is `OUTSIDE`: a trajectory, an exception, or a sweep or a
  search's accepted order below the rank cap.  A trajectory whose sweep
  counts differ is `OUTSIDE` (`within` above the cap) without bounds; its
  note gives the two error counts and the largest |dtheta|,
  |d(F a_n)| / max(B, D) and |dE| / |E| over the sweeps both sides ran
  (for a search, over the leading per-order entries both have).
* The largest of each difference over all trajectories.
* `DIFFERS cli <path>` for each file that `cli_digest.py` writes on one
  side only or with other bytes, then `cli: k of n files differ`, n being
  the files on either side.
* The number of lines of `src/**/*.py` that hold code (blank lines,
  comments and docstrings left out) in REF and here, and under it the
  same counts for each module whose count changed.

It exits 0 when every trajectory is `same` or `within` and no CLI file
differs, and 1 otherwise; the line counts do not change the exit status.
It exits 2 when git or a script fails on either side, after printing the
side, the script and the end of its stderr.  The temporary directory is
removed afterwards.

The contract (ROADMAP item 2(a)).  It bounds how far two correct trees may
differ on a recorded fit at order N on p points, sweep by sweep.  It is
derived from the conditioning of the problem, not from any tree's
differences, and it reads the conditioning off REF's record
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
  holds, and the bounds are infinite.  Of the recorded trajectories, the
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
the scripts of this tree, so a script changed since REF records REF the
new way.
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
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
# The lines of a failed command's stderr that are printed.
_TAIL = 20


def _run(what: str, command: list[str], **kwargs) -> bytes:
    """``command``'s stdout; if it fails, print ``what`` and the end of its stderr, and exit 2."""
    done = subprocess.run(command, capture_output=True, **kwargs)
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace").splitlines()[-_TAIL:]
        print(f"{what} failed with exit code {done.returncode}:", *tail, sep="\n", file=sys.stderr)
        raise SystemExit(2)
    return done.stdout


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


# What the contract bounds per trajectory: field of the record -> name printed.
_MEASURES = {"theta": "dtheta", "fa": "dFa/scale", "E": "dE/E"}
# The contract's angle width, `theta.THETA_TOL`, and the unit roundoff.
ANGLE_WIDTH = 1e-12
_UNIT = 2.0**-53

Record = dict[str, np.ndarray]


def _load(path: Path) -> dict[str, Record]:
    """label -> field -> array, from a file that trajectory_digest.py wrote."""
    records = {}
    with np.load(path) as data:
        for key in data.files:
            label, field = key.rsplit("/", 1)
            records.setdefault(label, {})[field] = data[key]
    return records


def _equal(old: np.ndarray | None, new: np.ndarray | None) -> bool:
    """Whether two arrays, both present, have one dtype, one shape and the same bits."""
    return (old is not None and new is not None and old.dtype == new.dtype
            and old.shape == new.shape and old.tobytes() == new.tobytes())


def _gaps(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|new - old| elementwise; two equal values, nan and inf included, differ by 0."""
    with np.errstate(invalid="ignore"):
        gap = np.abs(new - old)
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    return np.where(same, 0.0, np.where(np.isnan(gap), np.inf, gap))


def _bounds(data: Record) -> dict[str, np.ndarray]:
    """The contract's bounds on |dtheta|, |d(F a_n)| / scale and |dE|, one per error of ``data``."""
    points, scale, errors = int(data["points"]), float(data["scale"]), np.abs(data["E"])
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


def _row_gaps(old: Record, new: Record, key: str) -> tuple[np.ndarray, np.ndarray]:
    """(largest difference per row, the size it is shown over) of one measure, over the rows both sides have.

    A row is one sweep; a search keeps the angles and coefficients of its
    last fit only.  Coefficients are measured over max(B, D); dE is shown
    over |E| at REF.
    """
    width = {"theta": int(old["points"]), "fa": int(old["rows"][-1, 2]) + 1, "E": 1}[key]
    rows = min(len(old[key]), len(new[key])) // width
    gap = _gaps(old[key][:rows * width], new[key][:rows * width]).reshape(-1, width).max(axis=1, initial=0.0)
    size = np.abs(old["E"][:rows]) if key == "E" else 1.0
    return (gap / float(old["scale"]) if key == "fa" else gap), size


def _shown(gap: np.ndarray, size) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap == 0.0, 0.0, gap / size)


def _judge(old: Record | None, new: Record | None) -> tuple[str, dict, str]:
    """(mark, name -> (largest difference, its bound where nearest), note) of one trajectory.

    ``old`` is its record at REF and ``new`` its record here, None on a
    side that has no such trajectory.
    """
    if old is None or new is None:
        return "OUTSIDE", {}, "only " + ("here" if old is None else "at REF")
    differ = [key for key in dict.fromkeys([*old, *new]) if not _equal(old.get(key), new.get(key))]
    if "raised" in old or "raised" in new:
        said = [f"raised {side['raised']}" if "raised" in side else "ran" for side in (old, new)]
        return ("OUTSIDE", {}, f"{said[0]} at REF, {said[1]} here") if differ else ("same", {}, said[1])
    points = int(old["points"])
    above = (old["rows"][:, 2] > points - 1).any()
    notes = [f"N above the rank cap {points - 1}: not bounded"] if above else []
    measures = [(key, name) for key, name in _MEASURES.items() if key in old]
    unbounded = [key for key in differ if key not in _MEASURES]
    if unbounded:
        notes.append("unbounded arrays that differ: " + ", ".join(unbounded))
    if any(old[key].shape != new[key].shape for key, _ in measures):
        notes.append(f"{len(old['E'])} errors at REF, {len(new['E'])} here")
        largest = (f"{name} {_shown(*_row_gaps(old, new, key)).max(initial=0.0):.3g}" for key, name in measures)
        notes.append("common sweeps: " + " ".join(largest))
        return ("within" if above else "OUTSIDE"), {}, "; ".join(notes)
    bounds = _bounds(old)
    found, inside = {}, True
    for key, name in measures:
        gap, size = _row_gaps(old, new, key)
        bound = bounds[key][len(bounds[key]) - len(gap):]
        inside &= bool((gap <= bound).all())
        # dE is judged whole.
        with np.errstate(divide="ignore", invalid="ignore"):
            nearest = int(np.argmax(np.nan_to_num(gap / bound)))
            limit = np.broadcast_to(bound / size, bound.shape)
        found[name] = (float(_shown(gap, size).max()), float(limit[nearest]))
    if any(key in differ for key, _ in measures):
        mark = "within" if inside else "OUTSIDE"
    else:
        mark = "OUTSIDE" if unbounded else "same"
    return mark, found, "; ".join(notes)


def _compare_trajectories(theirs: dict[str, Record], ours: dict[str, Record], ref: str) -> bool:
    """Print one line per trajectory and the largest differences; True if any line is not `same` or `within`."""
    outside = False
    worst = dict.fromkeys(_MEASURES.values(), 0.0)
    for label in dict.fromkeys([*theirs, *ours]):
        mark, found, note = _judge(theirs.get(label), ours.get(label))
        outside |= mark == "OUTSIDE"
        for name, (largest, _) in found.items():
            worst[name] = max(worst[name], largest)
        parts = [f"{name} {gap:.3g} (bound {bound:.3g})" for name, (gap, bound) in found.items()]
        parts += [f"({note})"] if note else []
        print(f"{mark:7} {label}: {' '.join(parts)}".replace("REF", ref))
    print("largest: " + " ".join(f"{key} {value:.3g}" for key, value in worst.items()))
    return outside


def _cli_differences(theirs: Path, ours: Path) -> tuple[list[str], int]:
    """(the files under one directory that differ from the other's or exist on one side only, the files on either side)."""
    names = [{path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}
             for root in (theirs, ours)]
    every = sorted(names[0] | names[1])
    differ = [name for name in every if name not in names[0] or name not in names[1]
              or (theirs / name).read_bytes() != (ours / name).read_bytes()]
    return differ, len(every)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git revision to compare against, such as HEAD~1")
    ref = parser.parse_args().ref
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        archive = _run(f"git archive {ref}", ["git", "archive", "--format=tar", ref, "src"], cwd=ROOT)
        _run("tar", ["tar", "-x", "-C", name], input=archive)
        for side, src, where in (("ref", tmp / "src", f"at {ref}"), ("here", ROOT / "src", "here")):
            env = {**os.environ, "PYTHONPATH": str(src)}
            for script, out in (("trajectory_digest.py", f"{side}.npz"), ("cli_digest.py", f"{side}_cli")):
                _run(f"{script} {where}", [sys.executable, str(ROOT / "scripts" / script), str(tmp / out)], env=env)
        outside = _compare_trajectories(_load(tmp / "ref.npz"), _load(tmp / "here.npz"), ref)
        differ, total = _cli_differences(tmp / "ref_cli", tmp / "here_cli")
        for path in differ:
            print(f"DIFFERS cli {path}")
        print(f"cli: {len(differ)} of {total} files differ")
        theirs, ours = _code_lines(tmp / "src"), _code_lines(ROOT / "src")
    total = sum(theirs.values()), sum(ours.values())
    print(f"src code lines: {ref} {total[0]} here {total[1]} ({total[1] - total[0]:+d})")
    for module in sorted({*theirs, *ours}):
        old, new = theirs.get(module, 0), ours.get(module, 0)
        if old != new:
            print(f"  {module}: {ref} {old} here {new} ({new - old:+d})")
    return 1 if outside or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
