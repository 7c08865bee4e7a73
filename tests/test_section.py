import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmap.cli import main
from hullmap.errors import (
    DegenerateSectionError,
    HullmapError,
    OffsetsParseError,
    SectionValidationError,
)
from hullmap.fit import _seed_asymmetric, _seed_symmetric
from hullmap.mapping import lewis_initial_guess
from hullmap.section import (
    from_points,
    full_area,
    load_offsets,
    mirror_to_full,
    parse_offsets,
    section_extents,
    serialize_offsets,
    split_areas,
)
from hullmap.shapes import ellipse_section

from oracles import shoelace_area


def test_parse_minimal_symmetric():
    sec = parse_offsets("symmetric\n0,1\n0.5,0.8\n1,0\n")
    assert sec.symmetric
    assert sec.points.shape == (3, 2)
    assert sec.breadth == 2.0
    assert sec.draft == 1.0


def test_parse_skips_comments_and_blanks():
    text = "# hull station 7\n\nsymmetric\n0,1  # keel\n\n0.5,0.8\n1,0\n"
    sec = parse_offsets(text)
    assert len(sec) == 3


def test_parse_reports_line_numbers():
    with pytest.raises(OffsetsParseError, match="line 3"):
        parse_offsets("symmetric\n0,1\n0.5 0.8\n1,0\n")


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_reads_utf8_with_or_without_a_byte_order_mark(tmp_path, bom, newline):
    path = tmp_path / "sec.txt"
    lines = ["# caf\u00e9", "symmetric", "0,1", "0.5,0.8", "1,0"]
    path.write_bytes(bom + newline.join(line.encode() for line in lines) + newline)
    assert np.array_equal(load_offsets(path).points, [[0.0, 1.0], [0.5, 0.8], [1.0, 0.0]])


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, bom):
    path = tmp_path / "sec.txt"
    path.write_bytes(bom + b"symmetric\r\n0,1\r\n# \xff\n1,0\n")
    with pytest.raises(OffsetsParseError, match="^line 3: byte 0xff is not valid UTF-8$"):
        load_offsets(path)


# The line breaks of str.splitlines other than \n, \r\n and \r.
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("mark", OTHER_BREAKS, ids=[f"U+{ord(c):04X}" for c in OTHER_BREAKS])
def test_only_newlines_end_a_line(mark):
    plain = "symmetric\n0,1\n0.5,0.8\n1,0\n"
    for comment in (f"# moved 0.9,0.5{mark}0.95,0.3", f"# ask{mark}about this"):
        text = plain.replace("1,0", f"{comment}\n1,0")
        assert np.array_equal(parse_offsets(text).points, parse_offsets(plain).points)


@pytest.mark.parametrize("mark", ["\f", "\u2028"], ids=["U+000C", "U+2028"])
def test_a_decode_error_counts_only_newlines(tmp_path, mark):
    path = tmp_path / "sec.txt"
    path.write_bytes(f"symmetric\n0,1 # a{mark}b\n".encode() + b"# \xff\n1,0\n")
    with pytest.raises(OffsetsParseError, match="^line 3: byte 0xff is not valid UTF-8$"):
        load_offsets(path)


def test_parse_rejects_bad_header():
    with pytest.raises(OffsetsParseError, match="header"):
        parse_offsets("mirror\n0,1\n1,0\n")


def test_parse_rejects_empty_input():
    with pytest.raises(OffsetsParseError):
        parse_offsets("")
    with pytest.raises(OffsetsParseError, match="no points"):
        parse_offsets("symmetric\n")


def test_heeled_extents():
    breadth, draft, left, right = section_extents(
        np.array([[-0.8, 0.0], [0.0, 1.2], [1.1, 0.0]]), symmetric=False
    )
    assert breadth == pytest.approx(1.9)
    assert draft == pytest.approx(1.2)
    assert left == pytest.approx(0.8)
    assert right == pytest.approx(1.1)


def test_symmetric_extents_double_the_half_breadth():
    breadth, draft, left, right = section_extents(
        np.array([[0.0, 1.0], [0.6, 0.7], [0.75, 0.0]]), symmetric=True
    )
    assert breadth == pytest.approx(1.5)
    assert left == right == pytest.approx(0.75)
    assert draft == pytest.approx(1.0)


@pytest.mark.parametrize(
    "points,message",
    [
        ([(0.0, 1.0), (1.0, 0.0)], "at least 3"),
        ([(0.0, 1.0), (0.0, 1.0), (1.0, 0.0)], "coincident"),
        ([(0.0, 1.0), (0.5, -0.1), (1.0, 0.0)], "above the waterline"),
        ([(0.1, 1.0), (0.5, 0.5), (1.0, 0.0)], "centreline"),
        ([(0.0, 0.5), (0.5, 1.0), (1.0, 0.0)], "deepest"),
        ([(0.0, 1.0), (0.5, 0.5), (1.0, 0.2)], "waterline"),
    ],
)
def test_symmetric_validation_failures(points, message):
    with pytest.raises(SectionValidationError, match=message):
        from_points(points, symmetric=True)


@pytest.mark.parametrize(
    "points,message",
    [
        ([(-1.0, 0.1), (0.0, 1.0), (1.0, 0.0)], "waterline endpoints"),
        ([(0.5, 0.0), (0.6, 1.0), (1.0, 0.0)], "port side"),
        ([(-1.0, 0.0), (0.0, 1.0), (-0.2, 0.0)], "starboard side"),
    ],
)
def test_asymmetric_validation_failures(points, message):
    with pytest.raises(SectionValidationError, match=message):
        from_points(points, symmetric=False)


def test_degenerate_flat_section_rejected():
    with pytest.raises(DegenerateSectionError, match="draft"):
        section_extents(np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), symmetric=False)


@pytest.mark.parametrize(
    "text",
    [
        "symmetric\n0,nan\n0.5,0.5\n1,0\n",
        "symmetric\n0,1\n0.5,inf\n1,0\n",
        "asymmetric\n-1,0\nnan,1\n1,0\n",
        # 1e400 overflows to inf when parsed.
        "asymmetric\n-1,0\n0,1e400\n1,0\n",
    ],
)
def test_parse_rejects_non_finite_coordinates(text):
    with pytest.raises(SectionValidationError, match="non-finite"):
        parse_offsets(text)


@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 1.0), (0.5e308, 0.5), (1e308, 0.0)],
        # The breadth is finite, but the area and the fit error, sums of
        # squared coordinates, would overflow.
        ellipse_section(21, 4.0, 1.0).points * 1e160,
    ],
    ids=["breadth", "squared_scale"],
)
def test_overflowing_breadth_rejected(points):
    with pytest.raises(DegenerateSectionError, match="breadth"):
        from_points(points, symmetric=True)


def test_a_section_scaled_by_1e150_parses():
    points = ellipse_section(21, 4.0, 1.0).points * 1e150
    sec = parse_offsets(serialize_offsets(from_points(points, symmetric=True)))
    assert sec.breadth == 4e150
    assert np.isfinite(full_area(sec))


def test_a_section_scaled_by_1e_minus_150_parses():
    # B D is 4e-300, a normal float; scaled by 1e-160 it would be subnormal.
    points = ellipse_section(21, 4.0, 1.0).points * 1e-150
    sec = parse_offsets(serialize_offsets(from_points(points, symmetric=True)))
    assert sec.breadth * sec.draft == pytest.approx(4e-300)


_BASE_ROWS = {
    "symmetric": [(0.0, 1.0), (0.8, 0.9), (1.0, 0.5), (1.0, 0.0)],
    "asymmetric": [(-1.0, 0.0), (-0.7, 0.8), (0.1, 1.1), (0.8, 0.7), (1.1, 0.0)],
}
_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "-1e400", "1_0", "0x1", " "]),
    st.text(max_size=6),
)


@st.composite
def offsets_texts(draw):
    """A valid offsets text with some coordinates and lines replaced by junk."""
    header = draw(st.sampled_from(["symmetric", "asymmetric"]))
    rows = [[repr(x), repr(y)] for x, y in _BASE_ROWS[header]]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = draw(_TOKENS)
    lines = [header] + [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(lines)


@given(offsets_texts())
def test_any_text_parses_to_finite_geometry_or_raises(text):
    try:
        sec = parse_offsets(text)
    except HullmapError:
        return
    assert np.all(np.isfinite(sec.points))
    for extent in (sec.breadth, sec.draft, sec.half_breadth_left, sec.half_breadth_right):
        assert np.isfinite(extent) and extent > 0.0


@settings(max_examples=200)
@given(st.sampled_from(sorted(_BASE_ROWS)), st.integers(-330, 310), st.integers(-330, 310))
def test_every_section_that_parses_can_be_seeded(header, x_exponent, y_exponent):
    with np.errstate(all="ignore"):
        points = np.array(_BASE_ROWS[header]) * [float(f"1e{x_exponent}"), float(f"1e{y_exponent}")]
    try:
        sec = from_points(points, symmetric=header == "symmetric")
    except HullmapError:
        return
    # The CLI's seed of the whole section, and the fit's of each half.
    lewis_initial_guess(sec.breadth, sec.draft, full_area(sec))
    seed = (_seed_symmetric if sec.symmetric else _seed_asymmetric)(sec, 4)
    assert np.all(np.isfinite(seed)) and seed[0] > 0.0


_COORDINATES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=30)
@given(st.sampled_from(sorted(_BASE_ROWS)), st.data())
def test_a_point_whose_neighbours_coincide_is_a_parse_error(header, data):
    # Point j + 1 goes out to q and back to point j, so its neighbours, j
    # and j + 2, coincide and the secant through them gives it no normal.
    rows = list(_BASE_ROWS[header])
    j = data.draw(st.integers(0, len(rows) - 1), label="j")
    q = data.draw(st.tuples(_COORDINATES, _COORDINATES).filter(lambda q: q not in rows), label="q")
    rows[j + 1:j + 1] = [q, rows[j]]
    text = "\n".join([header, *(f"{x!r},{y!r}" for x, y in rows)]) + "\n"
    message = f"point {j + 1} has no normal: points {j} and {j + 2} coincide"
    with pytest.raises(SectionValidationError) as raised:
        parse_offsets(text)
    assert str(raised.value) == message
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spike.txt"
        path.write_text(text)
        for mode, extra in (("lewis", []), ("fit", ["--n", "5"]), ("search", [])):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([mode, "--input", str(path), *extra, "--out", str(Path(tmp) / "out")])
            assert (code, err.getvalue()) == (3, f"parse: {message}\n")


@st.composite
def symmetric_sections(draw):
    count = draw(st.integers(min_value=3, max_value=12))
    draft = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    half = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    xs = np.linspace(0.0, half, count)
    inner = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=count - 2,
            max_size=count - 2,
        )
    )
    ys = np.concatenate([[draft], np.sort(np.array(inner))[::-1] * draft, [0.0]])
    return from_points(np.column_stack([xs, ys]), symmetric=True)


@given(symmetric_sections())
def test_serialize_parse_round_trip(sec):
    back = parse_offsets(serialize_offsets(sec))
    assert back.symmetric == sec.symmetric
    assert np.array_equal(back.points, sec.points)
    assert back.breadth == sec.breadth and back.draft == sec.draft


@given(symmetric_sections())
def test_mirror_doubles_the_section(sec):
    full = mirror_to_full(sec)
    assert not full.symmetric
    assert len(full) == 2 * len(sec) - 1
    assert full.breadth == pytest.approx(sec.breadth)
    assert full.draft == pytest.approx(sec.draft)
    assert full.points[0, 0] == pytest.approx(-sec.points[-1, 0])


def test_mirror_rejects_full_sections(tiny_asymmetric):
    with pytest.raises(SectionValidationError):
        mirror_to_full(tiny_asymmetric)


def test_points_are_read_only(tiny_symmetric):
    with pytest.raises(ValueError):
        tiny_symmetric.points[0, 0] = 5.0


def test_full_area_of_rectangle(rectangle41):
    assert full_area(rectangle41) == pytest.approx(2.0, rel=1e-12)


def test_full_area_matches_shoelace(tiny_asymmetric):
    assert full_area(tiny_asymmetric) == pytest.approx(
        shoelace_area(tiny_asymmetric.points), rel=1e-12
    )


def test_split_areas_of_symmetric_triangle():
    tri = from_points([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)], symmetric=False)
    left, right = split_areas(tri)
    assert left == pytest.approx(0.5)
    assert right == pytest.approx(0.5)


def test_split_areas_sum_to_full_area(tiny_asymmetric):
    left, right = split_areas(tiny_asymmetric)
    assert left + right == pytest.approx(full_area(tiny_asymmetric), rel=1e-10)


def test_split_areas_rejects_half_sections(tiny_symmetric):
    with pytest.raises(SectionValidationError):
        split_areas(tiny_symmetric)
