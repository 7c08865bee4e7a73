"""Print one SHA-256 digest over the files a fixed set of CLI commands write.

Usage: PYTHONPATH=src python scripts/cli_digest.py [--verbose]

The commands run in-process, with --no-timing, in a temporary directory:
`lewis` and `fit --n 8` on circle41, ellipse41 and heeled_rectangle(21,
15 deg) offsets, and `search` on circle41 and ellipse41, each with
--emit json,csv,svg; then `evaluate --samples 10000 --emit json,csv` of
every fit report and of three bare coefficient files, {"F": 1e17, "a":
[1.0, 0.1, -0.02]} symmetric, the same with F = 1e-6 asymmetric and the
same with F = 1e-3 symmetric.  The digest covers every command's exit code
and the name and bytes of every file it wrote.

The report writer spells runs of floats by orjson only where every value is
zero or of magnitude in [1e-4, 1e16), and by float.__repr__ elsewhere; the
CSV writer spells rows by orjson only where every value is zero or of
magnitude in [1e-4, 1e11), and by '%.12g' elsewhere.  The fitted sections'
contours take the first paths almost everywhere; the "huge" and "tiny"
bare files put every piece and row of their contours outside those ranges
(near 1e17, and near 1e-6), so the digest also covers the second paths.
The "mixed" file's contour has |x| < 1e-4 in its first 550 or so of 10000
rows, so its report and its CSV each take both paths in one file.

hullmap is imported from whatever tree is on PYTHONPATH, so running the
script against two checkouts shows whether a change keeps the CLI's output
byte-identical.  The digest depends on the numpy and BLAS build, so compare
two trees on one machine; it is not a value to pin in a test.
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import hullmap
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


def _record(total, index: int, argv: list[str], root: Path, verbose: bool) -> list[Path]:
    """Run one command into its own folder, feed the digest and return the files written."""
    out = root / f"out{index}"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([*argv, "--out", str(out)])
    label = f"{index} {argv[0]} {Path(argv[2]).name}"
    total.update(f"{label} exit={code}\n".encode())
    if verbose:
        print(f"{label}: exit {code}")
    written = sorted(out.iterdir()) if out.is_dir() else []
    for path in written:
        data = path.read_bytes()
        total.update(f"{path.name} {len(data)}\n".encode())
        total.update(data)
        if verbose:
            print(f"  {path.name}: {hashlib.sha256(data).hexdigest()}")
    return written


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="also print one digest per file")
    args = parser.parse_args()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = root / "in"
        inputs.mkdir()
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
            written = _record(total, index, argv, root, args.verbose)
            if argv[0] == "fit":
                to_evaluate.extend(path for path in written if path.name.endswith("_fit.json"))
        for name, coefficients in BARE.items():
            source = inputs / f"{name}.json"
            source.write_text(json.dumps(coefficients))
            to_evaluate.append(source)
        for index, report in enumerate(to_evaluate, start=len(commands)):
            argv = ["evaluate", "--input", str(report), "--samples", "10000", "--emit", "json,csv"]
            _record(total, index, argv, root, args.verbose)
    if args.verbose:
        print(f"hullmap from {hullmap.__file__}")
    print(total.hexdigest())


if __name__ == "__main__":
    main()
