"""Accuracy metrics, the JSON-ready run report and the writer that lays it out."""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError
from .fit import FitResult
from .search import SearchReport


def nash_sutcliffe(real_points, mapped_points) -> tuple[float | None, float | None]:
    """Per-axis Nash-Sutcliffe efficiency of mapped points against real points.

    1 is a perfect match; an axis whose real coordinates have zero variance
    has no defined efficiency and comes back as None.
    """
    real = np.asarray(real_points, dtype=float)
    mapped = np.asarray(mapped_points, dtype=float)
    if real.shape != mapped.shape or real.ndim != 2 or real.shape[1] != 2:
        raise DimensionMismatchError("real and mapped points must share an (n, 2) shape")

    out: list[float | None] = []
    for axis in range(2):
        r = real[:, axis]
        m = mapped[:, axis]
        denom = float(np.sum((r - r.mean()) ** 2))
        if denom == 0.0:
            out.append(None)
            continue
        out.append(1.0 - float(np.sum((r - m) ** 2)) / denom)
    return out[0], out[1]


def build_report(
    fit: FitResult,
    ex: float | None,
    ey: float | None,
    wall_time_seconds: float,
    section_id: str,
    symmetric: bool,
    search: SearchReport | None = None,
) -> dict:
    """Assemble the run report, ready for ``write_report``.

    Scalars are plain Python types; the coefficients ``a``, the ``thetas``
    and the ``mapped_contour`` stay the fit's float64 arrays, which the
    writer spells as their ``tolist()`` would be.  A plain fit's report
    adds ``converged`` and ``iterations``, a search's ``per_N``.
    """
    if search is not None:
        best_order = search.best_order
        best_error = search.best_error
    else:
        best_order = fit.coefficients.order
        best_error = fit.error
    report = {
        "section_id": section_id,
        "symmetric": symmetric,
        "N_best": int(best_order),
        "E_best": float(best_error),
        "log10_E_min": math.log10(best_error) if best_error > 0.0 else None,
        "wall_time_seconds": float(wall_time_seconds),
        "nash_sutcliffe": {"ex": ex, "ey": ey},
        "coefficients": {
            "F": float(fit.coefficients.scale),
            "a": fit.coefficients.a,
        },
        "thetas": fit.thetas.theta,
        "mapped_contour": fit.mapped_points,
        "unresolved_theta_indices": sorted(int(i) for i in fit.thetas.unresolved),
    }
    if search is None:
        report["converged"] = fit.converged
        report["iterations"] = fit.iterations
    else:
        report["per_N"] = [
            {
                "N": rec.order,
                "E_min": rec.e_min,
                "iterations": rec.iterations,
                "seconds": rec.seconds,
            }
            for rec in search.per_order
        ]
    return report


_INDENT = "  "
# Float64 arrays are laid out this many rows at a time, so a 10000-point
# contour streams as ten strings of some 120 kB, not one as long as the
# file.  `cli._write_csv` writes its contour in runs of as many rows.
_CHUNK = 1024


def _orjson_block(values: np.ndarray, depth: int) -> str:
    """json's text of the float64 ``values`` at ``depth + 1``, joined by their separators.

    ``_in_range`` must hold for ``values``.  The text is orjson's, whose
    Ryu digits come about twenty times faster than ``float.__repr__``'s,
    and it equals json's:

    * for zero and for magnitudes in [1e-4, 1e16) both spell a float
      positionally, with the shortest digits that round-trip, and both
      break a tie between two such spellings toward the even digit
      (``2**50 + 0.25`` is ``1125899906842624.2`` in both); outside that
      range orjson writes ``1e16``, ``0.000099`` and ``null`` where json
      writes ``1e+16``, ``9.9e-05`` and ``NaN``;
    * both lay out lists with ``indent=2`` alike; wrapping the values in
      ``depth`` more lists puts them at ``depth + 1``.
    """
    import orjson  # here, so that runs which write no report never load it

    wrapped = values
    for _ in range(depth):
        wrapped = [wrapped]
    text = orjson.dumps(wrapped, option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY).decode()
    # Drop the wrappers' brackets: "[" + newline + indent at each of the
    # depth + 1 levels before, newline + indent + "]" after.
    return text[(depth + 1) * (depth + 4):-(depth + 1) * (depth + 2)]


def _in_range(values: np.ndarray) -> bool:
    """Whether every value is zero or of magnitude in [1e-4, 1e16); nan and inf are not."""
    mag = np.abs(values)
    return bool((((mag >= 1e-4) & (mag < 1e16)) | (mag == 0.0)).all())


def _number_block(values: np.ndarray, depth: int) -> str:
    """json's text of the float64 ``values`` at ``depth + 1``, joined by their separators.

    ``_orjson_block`` spells them where ``_in_range`` holds.  Otherwise,
    where every value is finite, they are joined from ``float.__repr__``,
    json's own spelling of a finite float; a piece with nan or inf, which
    json spells its own way, is json's text of its ``tolist()``.
    """
    if _in_range(values):
        return _orjson_block(values, depth)
    if not np.isfinite(values).all():
        # Drop the brackets, "[" + newline + indent and newline + "]".
        return json.dumps(values.tolist(), indent=2)[4:-2].replace("\n", "\n" + _INDENT * depth)
    inner = "\n" + _INDENT * (depth + 1)
    if values.ndim == 1:
        return f",{inner}".join(map(float.__repr__, values.tolist()))
    leaf = inner + _INDENT
    rows_text = f"{inner}],{inner}[{leaf}".join(
        f",{leaf}".join(map(float.__repr__, row)) for row in values.tolist()
    )
    return f"[{leaf}{rows_text}{inner}]"


def report_pieces(value, depth: int = 0) -> Iterator[str]:
    """Yield the text of ``json.dumps(value, indent=2, sort_keys=True)`` in pieces.

    numpy arrays are written as their ``tolist()`` would be.  Two kinds of
    value are laid out here: a non-empty dict with string keys, key by
    key, and a non-empty 1-D or 2-D C-contiguous float64 array, in pieces
    of up to ``_CHUNK`` rows, each spelled by ``_number_block``.  Every
    other value (lists, tuples, scalars, empty containers, other arrays and
    dicts with a non-string key) is one ``json.dumps`` of it, which raises
    ``TypeError`` for what it cannot spell.  ``depth`` is the nesting
    level ``value`` sits at.
    """
    inner = "\n" + _INDENT * (depth + 1)
    if isinstance(value, dict) and value and all(type(key) is str for key in value):
        separator = "{" + inner
        for key in sorted(value):
            yield separator + json.dumps(key) + ": "
            yield from report_pieces(value[key], depth + 1)
            separator = "," + inner
        yield "\n" + _INDENT * depth + "}"
    elif (type(value) is np.ndarray and value.dtype == np.float64 and value.ndim in (1, 2)
          and value.size and value.flags.c_contiguous):
        separator = "[" + inner
        for start in range(0, len(value), _CHUNK):
            yield separator + _number_block(value[start:start + _CHUNK], depth)
            separator = "," + inner
        yield "\n" + _INDENT * depth + "]"
    else:
        # json.dumps escapes every newline inside strings, so each raw one
        # starts a line that must move in by this value's depth.
        text = json.dumps(value, indent=2, sort_keys=True, default=np.ndarray.tolist)
        yield text.replace("\n", "\n" + _INDENT * depth)


def write_report(path: Path, report: dict) -> None:
    """Write ``report`` as ``json.dumps(report, indent=2, sort_keys=True)`` and a newline.

    ``report`` may hold numpy arrays, such as float64 contours, which are
    written as their ``tolist()`` would be.  The text goes to the file piece
    by piece, never as one string.
    """
    with open(path, "w") as handle:
        handle.writelines(report_pieces(report))
        handle.write("\n")
