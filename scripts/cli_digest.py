"""Run a fixed set of CLI commands and keep every file they write under one directory.

Usage: PYTHONPATH=src python scripts/cli_digest.py DIR

The commands run in-process, with --no-timing: `lewis` and `fit --n 8` on
circle41, ellipse41 and heeled_rectangle(21, 15 deg) offsets, and `search`
on circle41 and ellipse41, each with --emit json,csv,svg; then `evaluate
--samples 10000 --emit json,csv` of every fit report and of three bare
coefficient files, {"F": 1e17, "a": [1.0, 0.1, -0.02]} symmetric, the same
with F = 1e-6 asymmetric and the same with F = 1e-3 symmetric.  The input
files go to DIR/in, command k writes its files to DIR/out<k>, and
DIR/out<k>.exit holds the command's mode, input file name and exit code.

The report writer spells runs of floats by orjson only where every value is
zero or of magnitude in [1e-4, 1e16), and by float.__repr__ elsewhere; the
CSV writer spells rows by orjson only where every value is zero or of
magnitude in [1e-4, 1e11), and by '%.12g' elsewhere.  The fitted sections'
contours take the first paths almost everywhere; the "huge" and "tiny"
bare files put every piece and row of their contours outside those ranges
(near 1e17, and near 1e-6), so the commands also cover the second paths.
The "mixed" file's contour has |x| < 1e-4 in its first 550 or so of 10000
rows, so its report and its CSV each take both paths in one file.

hullmap is imported from whatever tree is on PYTHONPATH, so
`scripts/compare_trees.py` runs the script against two checkouts and
compares the two directories file by file.  The files depend on the numpy
and BLAS build, so compare two trees on one machine.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

from hullmap.cli import main as cli_main
from hullmap.section import serialize_offsets
from hullmap.shapes import circle_section, ellipse_section, heeled_rectangle

SECTIONS = {
    "circle41": lambda: circle_section(41),
    "ellipse41": lambda: ellipse_section(41, breadth=4.0, draft=1.0),
    "heeled_rectangle21": lambda: heeled_rectangle(21, heel_deg=15.0),
}
SEARCHED = ("circle41", "ellipse41")
BARE = {
    "huge": {"F": 1e17, "a": [1.0, 0.1, -0.02], "symmetric": True},
    "tiny": {"F": 1e-6, "a": [1.0, 0.1, -0.02], "symmetric": False},
    "mixed": {"F": 1e-3, "a": [1.0, 0.1, -0.02], "symmetric": True},
}
ALL_FORMATS = ("--emit", "json,csv,svg", "--no-timing")


def _record(index: int, argv: list[str], root: Path) -> list[Path]:
    """Run one command into its own folder, write its exit code beside it and return the files written."""
    out = root / f"out{index}"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([*argv, "--out", str(out)])
    (root / f"out{index}.exit").write_text(f"{argv[0]} {Path(argv[2]).name} exit={code}\n")
    return sorted(out.iterdir()) if out.is_dir() else []


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", metavar="DIR", help="the directory to write to")
    root = Path(parser.parse_args().root)
    inputs = root / "in"
    inputs.mkdir(parents=True)
    commands = []
    for name, build in SECTIONS.items():
        source = inputs / f"{name}.txt"
        source.write_text(serialize_offsets(build()))
        commands.append(["lewis", "--input", str(source), *ALL_FORMATS])
        commands.append(["fit", "--input", str(source), "--n", "8", *ALL_FORMATS])
    for name in SEARCHED:
        commands.append(["search", "--input", str(inputs / f"{name}.txt"), *ALL_FORMATS])
    to_evaluate = []
    for index, argv in enumerate(commands):
        written = _record(index, argv, root)
        if argv[0] == "fit":
            to_evaluate.extend(path for path in written if path.name.endswith("_fit.json"))
    for name, coefficients in BARE.items():
        source = inputs / f"{name}.json"
        source.write_text(json.dumps(coefficients))
        to_evaluate.append(source)
    for index, report in enumerate(to_evaluate, start=len(commands)):
        _record(index, ["evaluate", "--input", str(report), "--samples", "10000", "--emit", "json,csv"], root)


if __name__ == "__main__":
    main()
