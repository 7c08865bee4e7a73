"""Reading, validating and measuring 2D hull section offsets.

A section is an ordered polyline of (x, y) points with y measured downward
from the waterline, so the waterline is y = 0 and the keel sits at y = draft.
Symmetric sections list the starboard half only, from the keel point on the
centreline to the waterline point.  Non-symmetric sections run from the port
waterline point through the keel to the starboard waterline point.

The plain-text offsets format is one header line, ``symmetric`` or
``asymmetric``, followed by one ``x,y`` pair per line.  Blank lines and lines
starting with ``#`` are ignored.  Files are UTF-8, with or without a byte
order mark.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateSectionError,
    OffsetsParseError,
    SectionValidationError,
)


@dataclass(frozen=True, eq=False)
class SectionOffsets:
    """Validated section geometry plus its principal dimensions."""

    points: np.ndarray
    symmetric: bool
    breadth: float
    draft: float
    half_breadth_left: float
    half_breadth_right: float

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    def __len__(self) -> int:
        return len(self.points)


def section_extents(points: np.ndarray, symmetric: bool) -> tuple[float, float, float, float]:
    """Principal dimensions (breadth, draft, left half, right half) of a point list.

    Endpoint conventions are assumed: symmetric sections end at the waterline
    half-breadth point, non-symmetric sections start and end on the waterline.
    """
    pts = np.asarray(points, dtype=float)
    draft = float(np.max(pts[:, 1]))
    if symmetric:
        half = float(pts[-1, 0])
        breadth = 2.0 * half
        left = right = half
    else:
        left = float(-pts[0, 0])
        right = float(pts[-1, 0])
        breadth = left + right
        if left <= 0.0 or right <= 0.0:
            raise DegenerateSectionError("both waterline half-breadths must be positive")
    if draft <= 0.0:
        raise DegenerateSectionError("draft must be positive")
    if breadth <= 0.0:
        raise DegenerateSectionError("breadth must be positive")
    # The area, the fit error and the default tolerances are sums or
    # multiples of squared coordinates; this keeps them all finite.
    extent = 2.0 * max(breadth, draft)
    if not np.isfinite(len(pts) * extent * extent):
        raise DegenerateSectionError("breadth or draft too large: n (2 max(B, D))^2 overflows")
    # The Lewis seed of a half of half-breadth h divides by 2 h D and by
    # 1 + lam, lam = (h/D - 1) / (h/D + 1).  Below the normal range 2 h D
    # loses its digits or rounds to 0; lam rounds to -1 once h/D <= 2**-54
    # and is nan once h/D overflows.
    for half in (left, right):
        if not 2.0 * half * draft >= np.finfo(float).tiny:
            raise DegenerateSectionError("breadth or draft too small: 2 h D underflows")
        ratio = half / draft
        if not (ratio - 1.0) / (ratio + 1.0) > -1.0:
            raise DegenerateSectionError("half-breadth to draft ratio out of range")
    return breadth, draft, left, right


def _validate(points: np.ndarray, symmetric: bool) -> None:
    if points.ndim != 2 or points.shape[1] != 2:
        raise SectionValidationError("points must be an (n, 2) array")
    if len(points) < 3:
        raise SectionValidationError("a section needs at least 3 points")
    finite = np.all(np.isfinite(points), axis=1)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise SectionValidationError(f"point {i} has a non-finite coordinate")
    same = np.all(points[1:] == points[:-1], axis=1)
    if np.any(same):
        i = int(np.argmax(same))
        raise SectionValidationError(f"coincident consecutive points at index {i}")
    # A point's normal is the secant through its neighbours.
    same = np.all(points[2:] == points[:-2], axis=1)
    if np.any(same):
        i = int(np.argmax(same)) + 1
        raise SectionValidationError(f"point {i} has no normal: points {i - 1} and {i + 1} coincide")
    if np.any(points[:, 1] < 0.0):
        i = int(np.argmax(points[:, 1] < 0.0))
        raise SectionValidationError(f"point {i} lies above the waterline (y < 0)")
    if symmetric:
        if points[0, 0] != 0.0:
            raise SectionValidationError("first point must lie on the centreline (x = 0)")
        if points[0, 1] != np.max(points[:, 1]):
            raise SectionValidationError("first point must be the deepest (keel) point")
        if points[-1, 1] != 0.0:
            raise SectionValidationError("last point must lie on the waterline (y = 0)")
    else:
        if points[0, 1] != 0.0 or points[-1, 1] != 0.0:
            raise SectionValidationError("waterline endpoints must have y = 0")
        if points[0, 0] >= 0.0:
            raise SectionValidationError("first point must lie on the port side (x < 0)")
        if points[-1, 0] <= 0.0:
            raise SectionValidationError("last point must lie on the starboard side (x > 0)")


def from_points(points, symmetric: bool) -> SectionOffsets:
    """Build a validated :class:`SectionOffsets` from raw points."""
    pts = np.array(points, dtype=float)
    _validate(pts, symmetric)
    breadth, draft, left, right = section_extents(pts, symmetric)
    pts.setflags(write=False)
    return SectionOffsets(pts, symmetric, breadth, draft, left, right)


def parse_offsets(text: str) -> SectionOffsets:
    """Parse the plain-text offsets format into a validated section.

    Lines end at ``\\n``, ``\\r\\n`` and ``\\r`` only; form feeds, U+2028
    and the other breaks ``str.splitlines`` knows are part of a line.
    """
    header: str | None = None
    rows: list[tuple[float, float]] = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            if line not in ("symmetric", "asymmetric"):
                raise OffsetsParseError(
                    f"line {lineno}: header must be 'symmetric' or 'asymmetric', got {line!r}"
                )
            header = line
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise OffsetsParseError(f"line {lineno}: expected 'x,y', got {line!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise OffsetsParseError(f"line {lineno}: {exc}") from None
    if header is None:
        raise OffsetsParseError("missing header line ('symmetric' or 'asymmetric')")
    if not rows:
        raise OffsetsParseError("no points after the header")
    return from_points(rows, symmetric=(header == "symmetric"))


def serialize_offsets(section: SectionOffsets) -> str:
    """Inverse of :func:`parse_offsets` for valid sections."""
    lines = ["symmetric" if section.symmetric else "asymmetric"]
    lines.extend(f"{float(x)!r},{float(y)!r}" for x, y in section.points)
    return "\n".join(lines) + "\n"


def read_text(path) -> str:
    """The text of the file at ``path`` decoded as UTF-8, a leading byte order mark dropped.

    ``\\r\\n`` and ``\\r`` become ``\\n``, as in ``Path.read_text``.  Bytes
    that are not UTF-8 raise :class:`OffsetsParseError` naming the first one
    and its line.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the input after the byte order mark; bytes split
        # only at b"\n", b"\r\n" and b"\r", as parse_offsets does.
        line = len((exc.object[:exc.start] + b"?").splitlines())
        raise OffsetsParseError(
            f"line {line}: byte {exc.object[exc.start]:#04x} is not valid UTF-8"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_offsets(path) -> SectionOffsets:
    return parse_offsets(read_text(path))


def mirror_to_full(section: SectionOffsets) -> SectionOffsets:
    """Reflect a symmetric half-section into the equivalent full section.

    The mirrored port half and the original starboard half share the keel
    point, which is kept once.
    """
    if not section.symmetric:
        raise SectionValidationError("only symmetric sections can be mirrored")
    mirrored = section.points[::-1] * np.array([-1.0, 1.0])
    full = np.vstack([mirrored[:-1], section.points])
    return from_points(full, symmetric=False)


def _polygon_area(points: np.ndarray) -> float:
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def full_area(section: SectionOffsets) -> float:
    """Submerged area of the full section (both sides, up to the waterline)."""
    if section.symmetric:
        half = _polygon_area(np.vstack([[0.0, 0.0], section.points]))
        return 2.0 * half
    return _polygon_area(section.points)


def split_areas(section: SectionOffsets) -> tuple[float, float]:
    """Port and starboard areas of a non-symmetric section.

    The split runs vertically through the deepest point, which makes each part
    a closed region against the waterline.
    """
    if section.symmetric:
        raise SectionValidationError("split_areas expects a non-symmetric section")
    k = int(np.argmax(section.points[:, 1]))
    top = np.array([[section.points[k, 0], 0.0]])
    left = _polygon_area(np.vstack([section.points[: k + 1], top]))
    right = _polygon_area(np.vstack([section.points[k:], top]))
    return left, right
