import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullmap.cli as cli_mod
from hullmap.cli import main
from hullmap.errors import SearchFailedError
from hullmap.mapping import MappingCoefficients
from hullmap.section import from_points, serialize_offsets
from hullmap.shapes import ellipse_section, heeled_rectangle, rectangle_section


@pytest.fixture()
def rect_file(tmp_path):
    path = tmp_path / "rect.txt"
    path.write_text(serialize_offsets(rectangle_section(41)))
    return path


@pytest.fixture()
def ellipse_file(tmp_path):
    path = tmp_path / "ellipse.txt"
    path.write_text(serialize_offsets(ellipse_section(41, breadth=4.0, draft=1.0)))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def read_report(path):
    """Load a JSON report after checking it is laid out as json.dumps(indent=2, sort_keys=True)."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    return json.loads(text)


def test_fit_writes_all_formats(rect_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(
        "fit", "--input", rect_file, "--n", "8", "--sigma-e", "1e-3",
        "--out", out, "--emit", "json,csv,svg", "--no-timing",
    )
    assert code == 0
    assert "converged" in capsys.readouterr().out
    report = read_report(out / "rect_fit.json")
    assert report["converged"] is True
    assert report["N_best"] == 8
    assert report["E_best"] < 1e-3
    assert report["wall_time_seconds"] == 0.0
    csv = (out / "rect_contour.csv").read_text().splitlines()
    assert csv[0] == "theta,x,y"
    assert len(csv) == 257
    svg = (out / "rect_plot.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_the_csv_spells_every_value_as_str_format_does(tmp_path):
    # 1200 rows cross the writer's runs of rows; among the values are nan,
    # +-inf, +-0.0, subnormals, the largest float and random bit patterns.
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310, 1.7976931348623157e308, -2.5e-308]
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**64, size=1500, dtype=np.uint64).view(float)
    scaled = rng.standard_normal(2091) * 10.0 ** rng.integers(-20, 20, 2091)
    theta, x, y = np.concatenate([special, bits, scaled]).reshape(3, -1)
    path = tmp_path / "c.csv"
    cli_mod._write_csv(path, np.column_stack([theta, x, y]))
    assert path.read_text() == _formatted_rows(theta, x, y)


def _formatted_rows(theta, x, y) -> str:
    row = "{:.12g},{:.12g},{:.12g}\n".format
    return "theta,x,y\n" + "".join(map(row, theta.tolist(), x.tolist(), y.tolist()))


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


# Decimals of 13 significant digits ending in 5, halfway between two
# 12-digit roundings: n + o / 2**p with n of 13 - p digits and odd o is one
# exactly; parsing such a decimal string gives a double just beside one.
_EXACT_TIES = st.integers(1, 8).flatmap(
    lambda p: st.builds(
        lambda n, o: n + (2 * o + 1) / 2.0**p,
        st.integers(10 ** (12 - p), 10 ** (13 - p) - 1),
        st.integers(0, 2 ** (p - 1) - 1),
    )
)
_NEAR_TIES = st.builds(
    lambda digits, exponent: float(f"{digits}5e{exponent}"),
    st.integers(10**11, 10**12 - 1),
    st.integers(-17, 2),
)


# Powers of ten from 1e-6 to 1e13 and up to three floats to either side.
def _near_power(exponent: int, steps: int) -> float:
    value = float(f"1e{exponent}")
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


CSV_VALUES = st.one_of(
    _signed(st.floats(1e-6, 1e13)),
    _signed(_EXACT_TIES),
    _signed(_NEAR_TIES),
    _signed(st.builds(_near_power, st.integers(-6, 13), st.integers(-3, 3))),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(CSV_VALUES, CSV_VALUES, CSV_VALUES), min_size=1, max_size=30),
       st.integers(1, 8))
def test_the_csv_equals_a_per_row_format(rows, run):
    contour = np.array(rows)
    theta, x, y = contour.T
    with tempfile.TemporaryDirectory() as tmp, patch.object(cli_mod, "_CHUNK", run):
        path = Path(tmp) / "c.csv"
        cli_mod._write_csv(path, contour)
        assert path.read_text() == _formatted_rows(theta, x, y)


def test_an_evaluated_contour_is_spelled_by_orjson_to_the_waterline(tmp_path, monkeypatch):
    # A stand-in orjson.dumps that writes every 9 as 8: the file shows its
    # text only in rows that took the fast path, which is every row that
    # holds no integer: all but the keel's (theta = 0) and the waterline's
    # (y = 0).
    real = orjson.dumps
    rows_spelled = []

    def eights(obj, option=None):
        rows_spelled.append(len(obj))
        return real(obj, option=option).replace(b"9", b"8")

    monkeypatch.setattr(orjson, "dumps", eights)
    coeffs = MappingCoefficients(1.3, np.array([1.0, 0.1, -0.02]))
    contour = cli_mod._sample_contour(coeffs, True, 10000)
    theta, x, y = contour.T
    assert y[-1] == 0.0
    path = tmp_path / "c.csv"
    cli_mod._write_csv(path, contour)
    integer = [any(float("%.12g" % v).is_integer() for v in row) for row in contour.tolist()]
    assert sum(rows_spelled) == integer.count(False) == 9998
    expected = _formatted_rows(theta, x, y).splitlines(keepends=True)
    lines = [line if whole else line.replace("9", "8") for line, whole in zip(expected[1:], integer)]
    assert path.read_text() == expected[0] + "".join(lines)


def test_rows_holding_an_integer_are_spelled_by_format(tmp_path, monkeypatch):
    # 2.0000000000001 rounds to 12 digits as 2, so '%.12g' writes "2";
    # orjson would write "1.0", "-0.0" and "100.0" for the others.
    real = cli_mod._ryu_rows

    def checked(rows):
        assert not (rows == np.trunc(rows)).any(), rows
        return real(rows)

    monkeypatch.setattr(cli_mod, "_ryu_rows", checked)
    plain = np.linspace(0.1, 0.9, 24).reshape(8, 3)
    specials = [[0.25, 1.0, 0.5], [-0.0, 0.3, 0.7], [0.4, 0.6, 100.0], [2.0000000000001, 0.2, 0.8]]
    contour = np.vstack([plain[:2], specials[:2], plain[2:5], specials[2:], plain[5:]])
    path = tmp_path / "c.csv"
    cli_mod._write_csv(path, contour)
    text = path.read_text()
    assert text == _formatted_rows(*contour.T)
    assert "\n0.25,1,0.5\n-0,0.3,0.7\n" in text
    assert "\n0.4,0.6,100\n2,0.2,0.8\n" in text


def test_an_evaluated_contour_reaches_the_report_in_orjson_pieces(tmp_path, monkeypatch):
    # The same stand-in, now behind `hullmap evaluate --emit json`: the
    # coefficients and the contour go to the report writer as float64
    # arrays, and a, then each of the contour's pieces of up to 1024 rows,
    # reaches orjson as an array slice, whose text is what the file holds.
    real = orjson.dumps
    pieces = []

    def eights(obj, option=None):
        inner = obj[0] if isinstance(obj, list) and len(obj) == 1 else obj
        if isinstance(inner, np.ndarray):
            pieces.append(inner.shape)
        return real(obj, option=option).replace(b"9", b"8")

    source = tmp_path / "c.json"
    source.write_text(json.dumps({"F": 1.3, "a": [1.0, 0.1, -0.02]}))
    monkeypatch.setattr(orjson, "dumps", eights)
    argv = ["evaluate", "--input", source, "--samples", "10000", "--out", tmp_path]
    assert run(*argv) == 0
    monkeypatch.undo()
    assert pieces == [(3,)] + [(1024, 3)] * 9 + [(784, 3)]
    text = (tmp_path / "c_evaluate.json").read_text()
    coeffs = MappingCoefficients(1.3, np.array([1.0, 0.1, -0.02]))
    contour = json.dumps(cli_mod._sample_contour(coeffs, True, 10000).tolist(), indent=2)
    rest = json.dumps({**json.loads(text), "contour": None}, indent=2, sort_keys=True)
    contour = contour.replace("\n", "\n  ").replace("9", "8")
    assert text == rest.replace('"contour": null', '"contour": ' + contour) + "\n"


def _float_lists(value) -> list:
    """Every list or tuple of floats inside ``value``, rows of floats giving their rows."""
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, tuple)):
        return []
    elif any(isinstance(item, float) for item in value):
        return [value]
    return [found for item in value for found in _float_lists(item)]


@pytest.mark.parametrize("mode", ["fit", "search", "lewis", "evaluate"])
def test_no_mode_hands_the_writer_a_list_of_floats(ellipse_file, tmp_path, monkeypatch, mode):
    # Every float sequence reaches write_report as a float64 array, which
    # is the one kind of value the writer spells with orjson.
    source = ellipse_file
    if mode == "evaluate":
        source = tmp_path / "ellipse.json"
        source.write_text(json.dumps({"F": 1.3, "a": [1.0, 0.1, -0.02]}))
    handed = []
    real = cli_mod.write_report

    def record(path, report):
        handed.append(report)
        real(path, report)

    monkeypatch.setattr(cli_mod, "write_report", record)
    argv = [mode, "--input", source, "--out", tmp_path, "--no-timing"]
    assert run(*argv, *(["--n", "6"] if mode == "fit" else [])) == 0
    [report] = handed
    assert _float_lists(report) == []
    if mode in ("fit", "search"):
        sequences = [report["coefficients"]["a"], report["thetas"], report["mapped_contour"]]
    else:
        sequences = [report["a"], *([report["contour"]] if mode == "evaluate" else [])]
    for value in sequences:
        assert isinstance(value, np.ndarray) and value.dtype == np.float64
    text = json.dumps(report, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
    assert (tmp_path / f"{source.stem}_{mode}.json").read_text() == text


def test_fit_is_deterministic_without_timing(rect_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(
            "fit", "--input", rect_file, "--n", "5", "--sigma-e", "1e-2",
            "--out", out, "--no-timing",
        ) == 0
    assert (out_a / "rect_fit.json").read_bytes() == (out_b / "rect_fit.json").read_bytes()


def test_fit_requires_an_order(rect_file, tmp_path, capsys):
    assert run("fit", "--input", rect_file, "--out", tmp_path) == 2
    assert "needs --n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "5", "--sigma-e", "nan"],
        ["--n", "5", "--sigma-e", "inf"],
        ["--n", "5", "--sigma-e=-inf"],
        ["--n", "5", "--sigma-e", "-1"],
        ["--n", "0"],
        ["--n", "-3"],
        ["--n", "1"],
    ],
)
def test_fit_flags_out_of_range_are_usage_errors(rect_file, tmp_path, monkeypatch, capsys, flags):
    monkeypatch.setattr(cli_mod, "fit_section", lambda *args: pytest.fail("fit ran"))
    assert run("fit", "--input", rect_file, *flags, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_a_zero_tolerance_fits_to_the_sweep_budget(rect_file, tmp_path, monkeypatch):
    real = cli_mod.fit_section
    configs = []

    def spy(section, config):
        configs.append(config)
        return real(section, config)

    monkeypatch.setattr(cli_mod, "fit_section", spy)
    code = run("fit", "--input", rect_file, "--n", "3", "--sigma-e", "0", "--out", tmp_path)
    assert code == 0
    assert configs[0].tolerance == 0.0
    assert read_report(tmp_path / "rect_fit.json")["converged"] is False


@pytest.mark.parametrize("mode", ["fit", "search", "lewis", "evaluate"])
def test_unknown_emit_format_is_a_usage_error(rect_file, tmp_path, capsys, mode):
    extra = ["--n", "5"] if mode == "fit" else []
    out = tmp_path / "out"
    code = run(mode, "--input", rect_file, *extra, "--out", out, "--emit", "png")
    assert code == 2
    assert "unknown emit format(s): png" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("emit", "written"),
    [(" json, ,csv ", ["rect_contour.csv", "rect_lewis.json"]), (" , ", ["rect_lewis.json"])],
    ids=["json_csv", "blank"],
)
def test_emit_skips_blank_formats(rect_file, tmp_path, emit, written):
    out = tmp_path / "out"
    assert run("lewis", "--input", rect_file, "--out", out, "--emit", emit) == 0
    assert sorted(p.name for p in out.iterdir()) == written


def test_parse_failure_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("symmetric\n0,1\nnot-a-pair\n")
    assert run("fit", "--input", bad, "--n", "5", "--out", tmp_path) == 3
    assert "parse" in capsys.readouterr().err


def _bom_pair(tmp_path, name: str, text: str) -> tuple[Path, Path]:
    """The same text as a plain UTF-8 file and as one that starts with a byte order mark."""
    plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
    for path, data in ((plain, text.encode()), (marked, b"\xef\xbb\xbf" + text.encode())):
        path.parent.mkdir()
        path.write_bytes(data)
    return plain, marked


@pytest.mark.parametrize("mode", ["lewis", "fit"])
def test_a_byte_order_mark_does_not_change_the_output(tmp_path, mode):
    # A comment with a non-ASCII letter, as an editor might save it.
    text = "# station 7, caf\u00e9\n" + serialize_offsets(rectangle_section(21))
    extra = ["--n", "5", "--sigma-e", "1e-2"] if mode == "fit" else []
    written = []
    for source in _bom_pair(tmp_path, "rect.txt", text):
        out = source.parent / "out"
        assert run(mode, "--input", source, *extra, "--out", out, "--no-timing",
                   "--emit", "json,csv,svg") == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(written[0]) == 3
    assert written[0] == written[1]


def test_a_byte_order_mark_does_not_change_an_evaluate(tmp_path):
    text = json.dumps({"F": 1.3, "a": [1.0, 0.1, -0.02]})
    written = []
    for source in _bom_pair(tmp_path, "c.json", text):
        out = source.parent / "out"
        assert run("evaluate", "--input", source, "--out", out, "--emit", "json,csv") == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(written[0]) == 2
    assert written[0] == written[1]


@pytest.mark.parametrize("mode", ["lewis", "fit", "search", "evaluate"])
def test_a_file_that_is_not_utf8_exits_three(tmp_path, monkeypatch, capsys, mode):
    monkeypatch.setattr(cli_mod, "fit_section", lambda *args: pytest.fail("fit ran"))
    monkeypatch.setattr(cli_mod, "search_optimum", lambda *args: pytest.fail("search ran"))
    bad = tmp_path / "latin1.txt"
    if mode == "evaluate":
        bad.write_bytes('{"F": 1.0,\n "a": [1.0], "note": "caf\u00e9"}'.encode("latin-1"))
    else:
        bad.write_bytes("symmetric\n# caf\u00e9\n0,1\n1,0\n".encode("latin-1"))
    extra = ["--n", "5"] if mode == "fit" else []
    assert run(mode, "--input", bad, *extra, "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert err == "parse: line 2: byte 0xe9 is not valid UTF-8\n"


def test_missing_file_exits_three(tmp_path):
    assert run("fit", "--input", tmp_path / "absent.txt", "--n", "5", "--out", tmp_path) == 3


@pytest.mark.parametrize("mode", ["fit", "search", "lewis"])
def test_a_section_whose_squared_scale_overflows_exits_three(tmp_path, monkeypatch, capsys, mode):
    monkeypatch.setattr(cli_mod, "fit_section", lambda *args: pytest.fail("fit ran"))
    monkeypatch.setattr(cli_mod, "search_optimum", lambda *args: pytest.fail("search ran"))
    # The coordinates parse; n (2 max(B, D))^2 overflows.
    huge = tmp_path / "huge.txt"
    rows = (ellipse_section(21, 4.0, 1.0).points * 1e160).tolist()
    huge.write_text("symmetric\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
    extra = ["--n", "4"] if mode == "fit" else []
    assert run(mode, "--input", huge, *extra, "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse: ") and "too large" in err


_ELLIPSE21 = ellipse_section(21, 4.0, 1.0).points
_TOO_SMALL = "parse: breadth or draft too small: 2 h D underflows\n"
_BAD_RATIO = "parse: half-breadth to draft ratio out of range\n"


@pytest.mark.parametrize(
    "header, points, message",
    [
        # B D underflows to 0, and the seed divides by it.
        ("symmetric", _ELLIPSE21 * 1e-170, _TOO_SMALL),
        # B D is subnormal, and every squared error underflows to 0.
        ("symmetric", _ELLIPSE21 * 1e-160, _TOO_SMALL),
        # B D is normal, but the port half's 2 h D underflows to 0.
        ("asymmetric", [[-1e-174, 0.0], [-1e-174, 5e-159], [0.0, 1e-158], [5e-150, 5e-159],
                        [1e-149, 0.0]], _TOO_SMALL),
        # h/D is 2e-17, so lam rounds to -1 and the seed divides by 1 + lam.
        ("symmetric", _ELLIPSE21 * [1e-17, 1.0], _BAD_RATIO),
        # The same for the port half alone; the whole section seeds.
        ("asymmetric", [[-1e-17, 0.0], [-1e-17, 0.5], [0.0, 1.0], [0.5, 0.6], [1.0, 0.0]],
         _BAD_RATIO),
        # h/D overflows, so lam is nan.
        ("symmetric", [[0.0, 1e-160], [5e149, 5e-161], [1e150, 0.0]], _BAD_RATIO),
    ],
    ids=["bd-zero", "bd-subnormal", "half-bd-zero", "ratio-tiny", "half-ratio-tiny",
         "ratio-overflows"],
)
@pytest.mark.parametrize("mode", ["fit", "search", "lewis"])
def test_a_section_the_lewis_seed_cannot_divide_by_exits_three(
    tmp_path, monkeypatch, capsys, header, points, message, mode
):
    monkeypatch.setattr(cli_mod, "fit_section", lambda *args: pytest.fail("fit ran"))
    monkeypatch.setattr(cli_mod, "search_optimum", lambda *args: pytest.fail("search ran"))
    tiny = tmp_path / "tiny.txt"
    tiny.write_text(header + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in np.array(points).tolist()))
    extra = ["--n", "3"] if mode == "fit" else []
    assert run(mode, "--input", tiny, *extra, "--out", tmp_path) == 3
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "text",
    ["symmetric\n0,1\nnan,0.5\n1,0\n", "asymmetric\n-1,0\nnan,1\n1,0\n"],
)
@pytest.mark.parametrize("mode", ["fit", "lewis"])
def test_non_finite_offsets_exit_three(tmp_path, capsys, text, mode):
    bad = tmp_path / "nan.txt"
    bad.write_text(text)
    extra = ["--n", "5"] if mode == "fit" else []
    assert run(mode, "--input", bad, *extra, "--out", tmp_path) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["search", "lewis"])
@pytest.mark.parametrize("flag", [["--n", "5"], ["--sigma-e", "0.1"]])
def test_fit_flags_belong_to_fit_only(rect_file, tmp_path, mode, flag):
    assert run(mode, "--input", rect_file, *flag, "--out", tmp_path) == 2


def test_lewis_mode_reports_the_seed(ellipse_file, tmp_path):
    out = tmp_path / "out"
    assert run("lewis", "--input", ellipse_file, "--out", out, "--emit", "json,svg") == 0
    payload = json.loads((out / "ellipse_lewis.json").read_text())
    assert payload["N"] == 2
    assert payload["area_matched"] is True
    assert payload["sigma_a"] == pytest.approx(
        0.5 * 4.0 / payload["F"], rel=1e-12
    )


def test_search_mode_emits_the_trace(ellipse_file, tmp_path):
    out = tmp_path / "out"
    assert run("search", "--input", ellipse_file, "--out", out, "--no-timing") == 0
    report = read_report(out / "ellipse_search.json")
    assert report["per_N"]
    assert all(row["seconds"] == 0.0 for row in report["per_N"])
    assert report["nash_sutcliffe"]["ex"] > 0.997


def test_evaluate_accepts_a_fit_report(rect_file, tmp_path):
    out = tmp_path / "out"
    run("fit", "--input", rect_file, "--n", "5", "--out", out, "--no-timing")
    code = run("evaluate", "--input", out / "rect_fit.json", "--out", out, "--samples", "33")
    assert code == 0
    payload = read_report(out / "rect_fit_evaluate.json")
    assert payload["samples"] == 33
    assert len(payload["contour"]) == 33


def test_evaluate_accepts_bare_coefficients(tmp_path):
    src = tmp_path / "coeffs.json"
    src.write_text(json.dumps({"F": 1.0, "a": [1.0], "symmetric": True}))
    assert run("evaluate", "--input", src, "--out", tmp_path, "--samples", "9") == 0
    payload = json.loads((tmp_path / "coeffs_evaluate.json").read_text())
    contour = np.array(payload["contour"])
    assert np.allclose(np.hypot(contour[:, 1], contour[:, 2]), 1.0, atol=1e-12)


def test_evaluate_rejects_malformed_json(tmp_path, capsys):
    src = tmp_path / "garbage.json"
    src.write_text("{]")
    assert run("evaluate", "--input", src, "--out", tmp_path) == 3


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000, '{"F": 1.0, "a": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["open", "closed"],
)
def test_a_deeply_nested_coefficients_file_exits_three(tmp_path, capsys, text):
    src = tmp_path / "deep.json"
    src.write_text(text)
    assert run("evaluate", "--input", src, "--out", tmp_path) == 3
    assert capsys.readouterr().err == "parse: coefficients file is nested too deeply\n"


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {"F": None, "a": [1.0]},
        {"coefficients": [1]},
        {"F": 1.0, "a": [1.0, 0.1], "symmetric": "false"},
        {"F": True, "a": [True, 0.1]},
        {"F": "2", "a": ["1", "0.1"]},
        {"F": 1.0, "a": [1.0, 10**400]},
    ],
)
def test_evaluate_rejects_json_of_the_wrong_shape(tmp_path, capsys, payload):
    src = tmp_path / "coeffs.json"
    src.write_text(json.dumps(payload))
    assert run("evaluate", "--input", src, "--out", tmp_path) == 3
    assert capsys.readouterr().err.startswith("parse: ")
    assert not (tmp_path / "coeffs_evaluate.json").exists()


@pytest.mark.parametrize(
    ("payload", "missing"),
    [({"a": [1.0]}, "F"), ({"F": 1.0}, "a"), ({"coefficients": {}}, "F and a")],
    ids=["F", "a", "both"],
)
def test_evaluate_names_a_missing_key(tmp_path, capsys, payload, missing):
    src = tmp_path / "coeffs.json"
    src.write_text(json.dumps(payload))
    assert run("evaluate", "--input", src, "--out", tmp_path) == 3
    assert capsys.readouterr().err == f"parse: coefficient block is missing {missing}\n"


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_unusable_out_is_a_usage_error(rect_file, tmp_path, monkeypatch, capsys, target):
    (tmp_path / "afile").write_text("not a directory\n")
    monkeypatch.setattr(cli_mod, "fit_section", lambda *args: pytest.fail("fit ran"))
    code = run("fit", "--input", rect_file, "--n", "5", "--out", tmp_path / target)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: --out ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mode, blocked, emit",
    [("lewis", "rect_lewis.json", "json"), ("fit", "rect_contour.csv", "json,csv")],
)
def test_an_output_file_that_cannot_be_opened_is_a_usage_error(
    rect_file, tmp_path, capsys, mode, blocked, emit
):
    out = tmp_path / "o3"
    (out / blocked).mkdir(parents=True)
    extra = ["--n", "5", "--sigma-e", "1e-2"] if mode == "fit" else []
    code = run(mode, "--input", rect_file, *extra, "--out", out, "--emit", emit)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: --out {out}: cannot write {blocked} (")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_the_parser_is_built_once_per_process(rect_file, tmp_path):
    parser = cli_mod._parser()
    assert run("lewis", "--input", rect_file, "--out", tmp_path) == 0
    assert run("fit", "--input", rect_file, "--out", tmp_path) == 2
    assert cli_mod._parser() is parser


@pytest.mark.parametrize(
    ("F", "a"),
    [
        (1.0, [1.0, float("nan")]),
        (1.0, [1.0, float("inf")]),
        # Finite, but the contour and sigma_a would overflow.
        (1e308, [1.0, 5.0]),
    ],
    ids=["a0", "a1", "a2"],
)
def test_evaluate_rejects_non_finite_coefficients(tmp_path, capsys, F, a):
    src = tmp_path / "coeffs.json"
    src.write_text(json.dumps({"F": F, "a": a}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("evaluate", "--input", src, "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse: ") and err.count("\n") == 1
    assert "finite" in err
    assert not (tmp_path / "coeffs_evaluate.json").exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize("mode", ["lewis", "evaluate"])
def test_samples_below_one_is_a_usage_error(rect_file, tmp_path, capsys, mode, samples):
    src = rect_file
    if mode == "evaluate":
        src = tmp_path / "coeffs.json"
        src.write_text(json.dumps({"F": 1.0, "a": [1.0]}))
    assert run(mode, "--input", src, "--out", tmp_path, "--samples", samples) == 2
    assert "--samples" in capsys.readouterr().err


def test_asymmetric_fit_round_trip(tmp_path):
    path = tmp_path / "heeled.txt"
    path.write_text(serialize_offsets(heeled_rectangle(21)))
    out = tmp_path / "out"
    code = run(
        "fit", "--input", path, "--n", "12", "--sigma-e", "0.2", "--out", out, "--no-timing"
    )
    assert code == 0
    report = json.loads((out / "heeled_fit.json").read_text())
    assert report["symmetric"] is False
    assert report["converged"] is True


def test_search_failure_exits_five(rect_file, tmp_path, monkeypatch, capsys):
    def boom(section):
        raise SearchFailedError("no order converged")

    monkeypatch.setattr(cli_mod, "search_optimum", boom)
    assert run("search", "--input", rect_file, "--out", tmp_path) == 5
    assert "search" in capsys.readouterr().err


def test_a_search_whose_fits_solve_nothing_exits_five(tmp_path, capsys):
    # Three points leave every order's first system singular.
    path = tmp_path / "three.txt"
    path.write_text(serialize_offsets(from_points([(0.0, 1.0), (0.7, 0.6), (1.0, 0.0)], symmetric=True)))
    assert run("fit", "--input", path, "--n", "5", "--out", tmp_path) == 4
    assert run("search", "--input", path, "--out", tmp_path) == 5
    assert capsys.readouterr().err.endswith(
        "search: no order in (5, 100) converged at tolerance 10.0: 96 solved no system, "
        "0 lost their anchor, 0 had no reportable sweep under the tolerance\n"
    )


def test_diverged_fit_exits_four(rect_file, tmp_path, monkeypatch, capsys):
    real = cli_mod.fit_section

    def diverge(section, config):
        result = real(section, config)
        result.diverged = True
        return result

    monkeypatch.setattr(cli_mod, "fit_section", diverge)
    assert run("fit", "--input", rect_file, "--n", "5", "--out", tmp_path) == 4
    assert "diverged" in capsys.readouterr().err
