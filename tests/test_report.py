import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hullmap.errors import DimensionMismatchError
from hullmap.fit import FitConfig, fit_symmetric
from hullmap.report import (
    _CHUNK,
    build_report,
    nash_sutcliffe,
    report_pieces,
    write_report,
)
from hullmap.search import search_optimum
from hullmap.shapes import ellipse_section


def test_perfect_match_scores_exactly_one():
    pts = np.array([[0.0, 1.0], [0.5, 0.8], [1.0, 0.0]])
    assert nash_sutcliffe(pts, pts.copy()) == (1.0, 1.0)


def test_known_partial_match():
    real = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    mapped = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    ex, ey = nash_sutcliffe(real, mapped)
    assert ex == 1.0
    # y variance is 2, squared miss is 1.
    assert ey == pytest.approx(0.5)


def test_zero_variance_axis_is_undefined():
    real = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    ex, ey = nash_sutcliffe(real, real + 0.1)
    assert ex is None
    assert ey is not None


def test_shape_mismatch_is_rejected():
    with pytest.raises(DimensionMismatchError):
        nash_sutcliffe(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(DimensionMismatchError):
        nash_sutcliffe(np.zeros(3), np.zeros(3))


def _fit(sec):
    return fit_symmetric(sec, FitConfig(order=2, tolerance=1e-10))


def test_report_schema_for_a_plain_fit():
    sec = ellipse_section(41, breadth=4.0, draft=1.0)
    fit = _fit(sec)
    ex, ey = nash_sutcliffe(sec.points, fit.mapped_points)
    report = build_report(fit, ex, ey, 0.25, "ellipse", True)
    assert report["section_id"] == "ellipse"
    assert report["symmetric"] is True
    assert report["N_best"] == 2
    assert report["E_best"] == fit.error
    assert report["log10_E_min"] == pytest.approx(np.log10(fit.error))
    assert report["wall_time_seconds"] == 0.25
    assert report["nash_sutcliffe"] == {"ex": ex, "ey": ey}
    assert report["coefficients"]["F"] == fit.coefficients.scale
    assert len(report["coefficients"]["a"]) == 3
    assert len(report["thetas"]) == 41
    assert len(report["mapped_contour"]) == 41
    assert report["unresolved_theta_indices"] == []
    assert report["converged"] is fit.converged is True
    assert report["iterations"] == fit.iterations > 0
    assert "per_N" not in report
    expected = json.dumps(report, indent=2, sort_keys=True, default=np.ndarray.tolist)
    assert "".join(report_pieces(report)) == expected


def test_report_includes_search_trace():
    sec = ellipse_section(41, breadth=4.0, draft=1.0)
    outcome = search_optimum(sec)
    fit = outcome.best_fit
    ex, ey = nash_sutcliffe(sec.points, fit.mapped_points)
    report = build_report(fit, ex, ey, 1.0, "ellipse", True, search=outcome)
    assert report["N_best"] == outcome.best_order
    assert report["E_best"] == outcome.best_error
    rows = report["per_N"]
    assert [row["N"] for row in rows] == [rec.order for rec in outcome.per_order]
    assert all(set(row) == {"N", "E_min", "iterations", "seconds"} for row in rows)
    assert "converged" not in report and "iterations" not in report
    expected = json.dumps(report, indent=2, sort_keys=True, default=np.ndarray.tolist)
    assert "".join(report_pieces(report)) == expected


# Values json spells in its own way, or that sit at the edges of float repr.
EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 1e-300, 5e-324, 1e22, 1e16, 0.1, -2.5, 1.7976931348623157e308]
)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS)
STRINGS = st.one_of(
    st.text(),
    st.sampled_from(
        ['"', "\\", "\n", "\t", "\x00", "\u2028", "caf\u00e9", "\U0001f6a2", "n", "inf"]
    ),
)
SCALARS = st.one_of(
    FLOATS,
    NON_FINITE,
    FLOATS.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    STRINGS,
)
ROW_ITEMS = st.one_of(FLOATS, FLOATS.map(np.float64), NON_FINITE, st.integers())
ROWS = st.one_of(
    st.lists(FLOATS, min_size=1),
    st.lists(st.lists(FLOATS, min_size=1, max_size=4), min_size=1),
    st.lists(st.lists(ROW_ITEMS, max_size=4)),
    st.lists(ROW_ITEMS),
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=150)
@given(st.dictionaries(STRINGS, PAYLOADS, max_size=5))
def test_report_pieces_match_json_dumps(payload):
    assert "".join(report_pieces(payload)) == json.dumps(payload, indent=2, sort_keys=True)


def test_lists_longer_than_one_piece_match_json_dumps():
    floats = np.linspace(-1.0, 1.0, 2 * _CHUNK + 500).tolist()
    rows = np.column_stack([floats, floats]).tolist()
    floats[_CHUNK + 300] = float("nan")
    floats[100] = 3.5e-5  # json writes 3.5e-05
    rows[2 * _CHUNK + 100][1] = 3
    rows[20][0] = -2.5e16  # json writes -2.5e+16
    payload = {"floats": floats, "rows": rows, "mixed": [*floats[:10], [1.0], *floats]}
    assert "".join(report_pieces(payload)) == json.dumps(payload, indent=2, sort_keys=True)


# Where orjson's spelling and json's meet or part: the ends of the range
# [1e-4, 1e16) both write positionally, the largest and smallest floats,
# and values whose shortest digits are not their nearest ones.
BOUNDARY_FLOATS = [
    0.0,
    -0.0,
    1e-4,
    math.nextafter(1e-4, 0.0),
    9.9e-05,
    1e15,
    math.nextafter(1e16, 0.0),
    1e16,
    2.0**53,
    0.1,
    0.30000000000000004,
    5e-324,
    1.7976931348623157e308,
]


@pytest.mark.parametrize("value", [v * sign for v in BOUNDARY_FLOATS for sign in (1.0, -1.0)])
def test_boundary_floats_match_json_dumps(value):
    for payload in ({"run": [value] * 3}, {"rows": [[value, 0.5], [0.25, value]]}):
        assert "".join(report_pieces(payload)) == json.dumps(payload, indent=2, sort_keys=True)
        as_array = {key: np.array(rows) for key, rows in payload.items()}
        assert "".join(report_pieces(as_array)) == json.dumps(payload, indent=2, sort_keys=True)


def _spelled_alike(values: np.ndarray) -> None:
    payload = {"run": values, "rows": values[:len(values) // 3 * 3].reshape(-1, 3)}
    expected = json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
    assert "".join(report_pieces(payload)) == expected


def test_random_floats_match_json_dumps():
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(float)
    _spelled_alike(bits[np.isfinite(bits)])
    in_range = 10.0 ** rng.uniform(-4.0, 16.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    _spelled_alike(in_range[np.abs(in_range) < 1e16])
    # 2**50 + k/4 for odd k lies halfway between two 17-digit spellings;
    # both writers must pick the even one.
    _spelled_alike(2.0**50 + np.arange(1, 4001, 2) / 4.0)


def test_in_range_contours_are_spelled_by_orjson(monkeypatch):
    # A stand-in orjson.dumps that writes every 9 as 8: the report shows
    # its text only where a piece took the fast path.
    real = orjson.dumps
    calls = []

    def eights(obj, option=None):
        calls.append(obj)
        return real(obj, option=option).replace(b"9", b"8")

    monkeypatch.setattr(orjson, "dumps", eights)
    # cos(pi / 2) is 6e-17, which json spells with an exponent, so stop short.
    theta = np.linspace(0.0, 1.5, 2 * _CHUNK + 100)
    contour = np.column_stack([theta, np.sin(theta), np.cos(theta)])
    payload = {"contour": contour.tolist(), "thetas": theta.tolist()}
    expected = json.dumps(payload, indent=2, sort_keys=True)
    # Lists of the same floats are spelled by float.__repr__ alone.
    assert "".join(report_pieces(payload)) == expected
    assert calls == []
    text = "".join(report_pieces({"contour": contour, "thetas": theta}))
    assert len(calls) == 2 * 3  # each array is 3 pieces of up to _CHUNK rows
    assert text == expected.replace("9", "8")


# Values at the edges of the range where a float64 piece is spelled by
# orjson, values outside it, and random bit patterns.
ARRAY_FLOATS = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            1e-4,
            math.nextafter(1e-4, 0.0),
            1e16,
            math.nextafter(1e16, 0.0),
            5e-324,
            2.2250738585072014e-308 / 3,
            math.nan,
            math.inf,
            -math.inf,
        ]
    ).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(0, 2**64 - 1).map(lambda bits: np.array(bits, np.uint64).view(float).item()),
    st.floats(),
)


@st.composite
def float64_arrays(draw):
    """1-D or (n, 3) arrays of n up to past two pieces, in range but for a few drawn values."""
    shape = (draw(st.integers(1, 2 * _CHUNK + 20)), *draw(st.sampled_from([(), (3,)])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 10.0 ** rng.uniform(-4.0, 16.0, shape) * rng.choice([-1.0, 1.0], shape)
    values[rng.random(shape) < 0.05] = 0.0
    for _ in range(draw(st.integers(0, 4))):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(ARRAY_FLOATS)
    return values


def _nested(value, depth: int):
    for _ in range(depth):
        value = {"v": value}
    return value


@settings(max_examples=150)
@given(float64_arrays(), st.integers(0, 2))
def test_float64_arrays_are_written_as_their_lists(values, depth):
    pieces = "".join(report_pieces(_nested(values, depth)))
    assert pieces == json.dumps(_nested(values.tolist(), depth), indent=2, sort_keys=True)


_GRID = np.linspace(-1.0, 1.0, 600).reshape(200, 3)


@pytest.mark.parametrize(
    "values",
    [
        # orjson writes float32 0.1 as 0.1; json writes its double, 0.10000000149011612.
        np.full(300, 0.1, dtype=np.float32),
        _GRID.astype(np.float32),
        np.arange(-300, 300, dtype=np.int64),
        np.arange(600).reshape(200, 3) % 3 == 0,
        np.zeros(0),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.float64(0.5),
        np.array(0.1),
        _GRID.T,
        _GRID[::2],
        _GRID[:, 1],
        _GRID.reshape(10, 20, 3),
    ],
    ids=["f32", "f32-rows", "i64", "bool", "empty", "empty-rows", "empty-cols", "scalar",
         "0-d", "T", "every-other", "column", "3-d"],
)
def test_other_arrays_are_written_as_their_lists(values):
    payload = {"v": values, "w": [values]}
    expected = {"v": values.tolist(), "w": [values.tolist()]}
    assert "".join(report_pieces(payload)) == json.dumps(expected, indent=2, sort_keys=True)


def test_write_report_ends_the_text_with_a_newline(tmp_path):
    report = {
        "b": [[0.5, -0.0], []],
        "a": {"x": float("nan"), "y": [1, 2.0]},
        "c": {},
        "d": {2: [True], 1.5: None},
    }
    path = tmp_path / "report.json"
    write_report(path, report)
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_a_list_of_rows_is_one_piece():
    rows = [{"N": n, "E_min": 1.0 / n, "iterations": n, "seconds": 0.0} for n in range(5, 55)]
    pieces = list(report_pieces({"per_N": rows}))
    assert pieces == [
        '{\n  "per_N": ',
        json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n  "),
        "\n}",
    ]


@pytest.mark.parametrize("value", [object(), 1j, {1, 2}, np.int64(1), [0.5, np.float32(0.5)]],
                         ids=["object", "complex", "set", "int64", "float32-in-list"])
def test_what_json_cannot_spell_raises_type_error(value):
    for payload in ({"v": value}, {"v": [{"w": value}]}):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            "".join(report_pieces(payload))
