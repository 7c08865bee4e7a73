"""Command line front end.

    hullmap fit      --input sec.txt --n 12 [--sigma-e 1e-4] [--out DIR] [--emit json,csv,svg]
    hullmap search   --input sec.txt [--out DIR] [--emit ...]
    hullmap evaluate --input coeffs.json [--samples 256] [--out DIR] [--emit ...]
    hullmap lewis    --input sec.txt [--out DIR] [--emit ...]

Exit codes: 0 success, 2 usage (an unusable --out or output file included),
3 parse or validation failure, 4 fit divergence, 5 search failure.  With
--no-timing all reported wall times are written as 0.0 so repeated runs emit
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from math import pi
from pathlib import Path

import numpy as np

from .errors import HullmapError, OffsetsParseError, SectionValidationError
from .fit import FitConfig, fit_section
from .mapping import MappingCoefficients, breadth_and_draft, evaluate_boundary, lewis_initial_guess
from .report import _CHUNK, AccuracyReport, build_report, nash_sutcliffe, write_report
from .search import search_optimum
from .section import full_area, load_offsets, read_text

DEFAULT_SAMPLES = 256
# The plot fits in a square of this many pixels.
SVG_SIZE = 640


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="hullmap",
        description="Fit conformal mapping coefficients to 2D ship sections.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("fit", "search", "evaluate", "lewis"):
        p = sub.add_parser(mode)
        p.add_argument("--input", required=True, type=Path)
        if mode == "fit":
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--sigma-e", type=float, default=None)
        p.add_argument("--out", type=Path, default=Path("."))
        p.add_argument("--emit", default="json")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--no-timing", action="store_true")
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Reject out-of-range flags; ``args.emit`` becomes a tuple of formats."""
    emit = tuple(part.strip() for part in args.emit.split(",") if part.strip())
    bad = [e for e in emit if e not in ("json", "csv", "svg")]
    if bad:
        raise ValueError(f"unknown emit format(s): {', '.join(bad)}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.mode == "fit":
        if args.n is not None and args.n < 1:
            raise ValueError(f"--n must be at least 1, got {args.n}")
        if args.sigma_e is not None and not 0.0 <= args.sigma_e < math.inf:
            raise ValueError(f"--sigma-e must be finite and at least 0, got {args.sigma_e}")
    args.emit = emit or ("json",)


# 10**k for k = 0..22, each exact in binary64.
_POW10 = np.array([float(10**k) for k in range(23)])


def _twelve_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``float('%.12g' % v)`` of every ``v`` of magnitude in [1e-4, 1e11).

    Returns those doubles, shaped as ``values``, and the mask of the values
    they are given for; elsewhere the doubles mean nothing.  For such a v
    of magnitude a, let k = 11 - floor(log10 a), t = a * 10**k (one
    correctly rounded product; 10**k is exact) and m = rint(t).  The value
    is in doubt where t lies on a half-integer or outside [1e11, 1e12].
    Otherwise m / 10**k is v's rounding to 12 significant digits, D, the
    decimal '%.12g' writes:

    * every half-integer and every integer up to 2**53 is a double, and
      rounding is monotone, so t lies on the same side of each as the exact
      product e = a * 10**k or on it, and |t - e| <= ulp(t) / 2 <= 2**-14
      (t <= 1e12 < 2**40); with t off the half-integers, rint(t) is the
      integer nearest e;
    * if log10 put k one too low, then e < 1e11 <= t, so t = 1e11 and e
      lies within 2**-14 of it, and v's 12 digits at the true exponent are
      rint(10 e) = 1e12, the same D = 1e11 / 10**k; if k is one too high,
      e >= 1e12 >= t, so t = 1e12, and rint(e / 10) = 1e11 gives the same D
      again; k two or more off puts t outside [1e11, 1e12].

    The double returned, copysign(m / 10**k, v), is the one nearest D (one
    correctly rounded division of exact operands); a doubtful value gets
    ``float('%.12g' % v)``, which is the same double by definition.
    ``_write_csv`` and ``_ryu_rows`` rely on it.
    """
    mag = np.abs(values)
    in_range = (mag >= 1e-4) & (mag < 1e11)
    safe = np.where(in_range, mag, 1.0)
    power = _POW10[11 - np.floor(np.log10(safe)).astype(np.intp)]
    t = safe * power
    rounded = np.copysign(np.rint(t) / power, values)
    doubt = in_range & ((t - np.floor(t) == 0.5) | (t < 1e11) | (t > 1e12))
    if doubt.any():
        rounded[doubt] = [float("%.12g" % v) for v in values[doubt].tolist()]
    return rounded, in_range


def _ryu_rows(rows: np.ndarray) -> str:
    """The lines '%.12g,%.12g,%.12g' writes for ``rows``, from ``_twelve_digits``'s doubles.

    Every value of ``rows`` must be the double nearest a decimal D of at
    most 12 significant digits that is not an integer and has magnitude in
    [1e-4, 1e11), which '%.12g' writes positionally, without trailing
    zeros.  orjson spells a double with Ryu's shortest digits that round
    back to it.  Two different decimals of at most 15 significant digits
    never round to one double (binary64 holds 15 decimal digits), so no
    decimal other than D with as few digits rounds to D's double: its
    shortest digits are D's.  orjson writes them positionally too, as it
    does every magnitude in [1e-5, 1e16); only an integer would gain a
    ``.0``.  Rows come out as ``[a,b,c],[d,e,f]`` inside one more pair of
    brackets; each ``],[`` becomes a newline.
    """
    import orjson  # here, so that runs which write no csv never load it

    text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)
    return text[2:-2].replace(b"],[", b"\n").decode() + "\n"


def _write_csv(path: Path, contour: np.ndarray) -> None:
    """Write the (n, 3) contour as 'theta,x,y' lines of '%.12g,%.12g,%.12g'.

    The lines are spelled in runs of up to ``_CHUNK`` rows, the pieces the
    JSON report lays a contour out in, so a long contour never sits in
    memory as one string or as many temporary arrays.  Rows whose values
    all round to 12 digits as a non-integer D of magnitude in [1e-4, 1e11)
    are spelled by orjson from ``_twelve_digits``'s doubles (see
    ``_ryu_rows`` for why the bytes are the same); every other row (an
    integer D, zeros included, nan, inf, nonzero magnitudes below 1e-4 or
    from 1e11 up) by one %-operation over its run of such rows.  In a
    sampled contour the first and the last row are such rows.
    """
    with open(path, "w") as handle:
        handle.write("theta,x,y\n")
        for start in range(0, len(contour), _CHUNK):
            block = contour[start:start + _CHUNK]
            rounded, spelled = _twelve_digits(block)
            # A non-integer D below 1e11 lies at least 0.1 from every integer,
            # and so does its double.
            plain = (spelled & (rounded != np.trunc(rounded))).all(axis=1)
            # Each stretch of rows that all take one of the two spellings.
            edges = [0, *(np.flatnonzero(plain[1:] != plain[:-1]) + 1).tolist(), len(block)]
            for lo, hi in zip(edges, edges[1:]):
                if plain[lo]:
                    handle.write(_ryu_rows(rounded[lo:hi]))
                else:
                    part = block[lo:hi].ravel().tolist()
                    handle.write("%.12g,%.12g,%.12g\n" * (hi - lo) % tuple(part))


def _write_svg(path: Path, curves, markers) -> None:
    """Plot (label, points) curves and point markers, y pointing down like the data.

    The curve labelled "lewis" is drawn dashed in green, every other in red.
    """
    stacks = [pts for _, pts in curves]
    if markers is not None:
        stacks.append(markers)
    allpts = np.vstack(stacks)
    x_lo, y_lo = allpts.min(axis=0)
    x_hi, y_hi = allpts.max(axis=0)
    y_lo = min(y_lo, 0.0)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    pad = 0.06 * span
    scale = (SVG_SIZE - 2.0) / (span + 2.0 * pad)

    def to_px(pts):
        """Pixel x and y of an (n, 2) array of points, as lists of Python floats."""
        return (
            ((pts[:, 0] - x_lo + pad) * scale).tolist(),
            ((pts[:, 1] - y_lo + pad) * scale).tolist(),
        )

    height = int((y_hi - y_lo + 2.0 * pad) * scale) + 2
    width = int((x_hi - x_lo + 2.0 * pad) * scale) + 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    wl_y = (0.0 - y_lo + pad) * scale  # the waterline, y = 0
    parts.append(
        f'<line x1="0" y1="{wl_y:.2f}" x2="{width}" y2="{wl_y:.2f}" '
        'stroke="#9ab" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    for label, pts in curves:
        coords = " ".join(map("{:.2f},{:.2f}".format, *to_px(pts)))
        colour, dash = ("#2a7", ' stroke-dasharray="5 4"') if label == "lewis" else ("#d33", "")
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" stroke-width="1.6"{dash}/>'
        )
    if markers is not None:
        circle = (
            '<circle cx="{:.2f}" cy="{:.2f}" r="2.4" fill="none" stroke="#222" stroke-width="1"/>'
        )
        parts.extend(map(circle.format, *to_px(markers)))
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _sample_contour(coeffs: MappingCoefficients, symmetric: bool, samples: int) -> np.ndarray:
    """The contour at ``samples`` angles as a C-contiguous (samples, 3) array of theta, x, y."""
    theta = np.linspace(0.0 if symmetric else -pi / 2.0, pi / 2.0, samples)
    x, y = evaluate_boundary(coeffs, theta)
    return np.column_stack([theta, x, y])


def _coefficients_payload(coeffs: MappingCoefficients, symmetric: bool) -> dict:
    breadth, draft = breadth_and_draft(coeffs)
    return {
        "N": coeffs.order,
        "F": float(coeffs.scale),
        "a": coeffs.a,
        "sigma_a": float(0.5 * breadth / coeffs.scale),
        "sigma_b": float(draft / coeffs.scale),
        "symmetric": symmetric,
    }


def _emit(args, stem: str, report: dict, contour, summary: str, markers=None, lewis=None) -> int:
    """Write ``report`` as json and, on request, the (n, 3) ``contour`` as csv and a plot as svg.

    The plot draws the contour, the Lewis seed ``lewis`` of a fitted
    symmetric section when one is given, and the offsets as markers.  Returns
    the exit code: 0 after printing ``summary``, or 2 for an output file that
    cannot be written, which is reported on stderr.
    """
    path = args.out / f"{stem}_{args.mode}.json"
    try:
        if "json" in args.emit:
            write_report(path, report)
        if "csv" in args.emit:
            path = args.out / f"{stem}_contour.csv"
            _write_csv(path, contour)
        if "svg" in args.emit:
            curves = [(args.mode, contour[:, 1:])]
            if lewis is not None:
                curves.append(("lewis", _sample_contour(lewis, True, args.samples)[:, 1:]))
            path = args.out / f"{stem}_plot.svg"
            _write_svg(path, curves, markers)
    except OSError as exc:
        print(f"usage: --out {args.out}: cannot write {path.name} ({exc.strerror})",
              file=sys.stderr)
        return 2
    print(summary)
    return 0


def _is_number(value) -> bool:
    """A JSON number as json.loads returns it; true and false do not count."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_coefficients(path: Path) -> tuple[MappingCoefficients, bool]:
    text = read_text(path)
    try:
        data = json.loads(text)
    except RecursionError:  # json.loads recurses once per nested array or object
        raise ValueError("coefficients file is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("coefficients file must hold a JSON object")
    block = data.get("coefficients", data)
    if not isinstance(block, dict):
        raise ValueError("coefficient block must be a JSON object")
    symmetric = data.get("symmetric", True)
    if not isinstance(symmetric, bool):
        raise ValueError("symmetric must be true or false")
    missing = [key for key in ("F", "a") if key not in block]
    if missing:
        raise ValueError(f"coefficient block is missing {' and '.join(missing)}")
    if not _is_number(block["F"]):
        raise ValueError("F must be a number")
    if not isinstance(block["a"], list) or not all(map(_is_number, block["a"])):
        raise ValueError("a must be a list of numbers")
    coeffs = MappingCoefficients(float(block["F"]), np.asarray(block["a"], dtype=float))
    # F * sum |a_n| bounds every contour coordinate and the sums behind
    # sigma_a and sigma_b; the factor 2 covers their rounding.
    if not math.isfinite(2.0 * coeffs.scale * sum(map(abs, coeffs.a.tolist()))):
        raise ValueError("coefficients too large: 2 F sum |a_n| must be finite")
    return coeffs, symmetric


def _run(args: argparse.Namespace) -> int:
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"usage: --out {args.out} is not a usable directory ({exc.strerror})",
              file=sys.stderr)
        return 2
    stem = args.input.stem

    if args.mode == "evaluate":
        try:
            coeffs, symmetric = _load_coefficients(args.input)
        except (OSError, ValueError, TypeError, OverflowError) as exc:
            print(f"parse: {exc}", file=sys.stderr)
            return 3
        contour = _sample_contour(coeffs, symmetric, args.samples)
        payload = _coefficients_payload(coeffs, symmetric)
        payload["samples"] = args.samples
        payload["contour"] = contour
        summary = f"evaluated N={coeffs.order} at {args.samples} angles"
        return _emit(args, stem, payload, contour, summary)

    try:
        section = load_offsets(args.input)
    except (OSError, OffsetsParseError, SectionValidationError) as exc:
        print(f"parse: {exc}", file=sys.stderr)
        return 3

    lewis = lewis_initial_guess(section.breadth, section.draft, full_area(section))

    if args.mode == "lewis":
        payload = _coefficients_payload(lewis.coefficients, section.symmetric)
        payload["area_matched"] = lewis.area_matched
        contour = _sample_contour(lewis.coefficients, section.symmetric, args.samples)
        summary = f"lewis seed F={lewis.coefficients.scale:.6g} area_matched={lewis.area_matched}"
        return _emit(args, stem, payload, contour, summary, section.points)

    if args.mode == "fit":
        if args.n is None:
            print("usage: fit needs --n", file=sys.stderr)
            return 2
        if section.symmetric and args.n < 2:
            print(f"usage: --n must be at least 2 for a symmetric section, got {args.n}",
                  file=sys.stderr)
            return 2
        scale = max(section.breadth, section.draft)
        tolerance = args.sigma_e if args.sigma_e is not None else 1e-6 * scale * scale
        started = time.perf_counter()
        best = fit_section(section, FitConfig(args.n, tolerance))
        elapsed = time.perf_counter() - started
        if best.diverged:
            print("fit: diverged (singular system or lost scale positivity)", file=sys.stderr)
            return 4
        outcome = None
    else:
        started = time.perf_counter()
        outcome = search_optimum(section)
        elapsed = time.perf_counter() - started
        best = outcome.best_fit

    ex, ey = nash_sutcliffe(section.points, best.mapped_points)
    accuracy = AccuracyReport(ex, ey, 0.0 if args.no_timing else elapsed)
    report = build_report(best, accuracy, stem, section.symmetric, search=outcome)
    if outcome is None:
        state = "converged" if best.converged else "stopped"
        summary = f"fit {state}: N={args.n} E={best.error:.6g} after {best.iterations} sweeps"
    else:
        if args.no_timing:
            for row in report["per_N"]:
                row["seconds"] = 0.0
        summary = (
            f"search optimum: N={outcome.best_order} E={outcome.best_error:.6g} "
            f"({len(outcome.per_order)} accepted orders)"
        )
    contour = _sample_contour(best.coefficients, section.symmetric, args.samples)
    # Fitted plots of symmetric sections overlay the Lewis seed.
    overlay = lewis.coefficients if section.symmetric else None
    return _emit(args, stem, report, contour, summary, section.points, overlay)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_args(args)
    except ValueError as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except HullmapError as exc:
        stage = "fit" if args.mode in ("fit", "lewis") else args.mode
        print(f"{stage}: {exc}", file=sys.stderr)
        return 4 if stage == "fit" else 5 if stage == "search" else 1


if __name__ == "__main__":
    raise SystemExit(main())
