"""The verdicts of `scripts/compare_trees.py` on made-up records and directories."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_trees.py"


@pytest.fixture(scope="module")
def compare_trees():
    spec = importlib.util.spec_from_file_location("compare_trees", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fit(points: int = 5, order: int = 2, sweeps: int = 3) -> dict:
    """A made-up fit record: ``sweeps`` sweeps at ``order`` on ``points`` points, every one well conditioned."""
    return {
        "scale": np.array(1.0),
        "points": np.array(points),
        "theta": np.linspace(0.0, 1.5, points * sweeps),
        "fa": np.linspace(1.0, 0.1, (order + 1) * sweeps),
        "E": np.geomspace(1e-2, 1e-4, sweeps),
        "unresolved": np.zeros((0, 2), dtype=np.int64),
        "mapped": np.ones((points, 2)),
        # (fit, sweep, order, condition number, largest |F a_n| / s, largest and summed s / |r'|)
        "rows": np.array([(0, k, order, 1.0, 1.0, 1.0, points) for k in range(1, sweeps + 1)], dtype=float),
        "entries": np.array([(0, k) for k in range(1, sweeps + 1)]),
    }


def _moved(record: dict, key: str, by: float) -> dict:
    """``record`` with the last entry of ``record[key]`` moved by ``by``."""
    array = record[key].astype(float)
    array.flat[-1] += by
    return {**record, key: array}


def test_equal_records_are_same(compare_trees):
    mark, found, note = compare_trees._judge(_fit(), _fit())
    assert mark == "same"
    assert note == ""
    assert [largest for largest, _ in found.values()] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("key", ["theta", "fa", "E"])
def test_a_move_inside_the_bound_is_within(compare_trees, key):
    mark, found, note = compare_trees._judge(_fit(), _moved(_fit(), key, 1e-14))
    assert mark == "within"
    assert note == ""
    assert all(largest <= bound for largest, bound in found.values())


@pytest.mark.parametrize("key", ["theta", "fa", "E"])
def test_a_move_past_the_bound_is_outside(compare_trees, key):
    mark, found, _ = compare_trees._judge(_fit(), _moved(_fit(), key, 1e-3))
    assert mark == "OUTSIDE"
    assert any(largest > bound for largest, bound in found.values())


def test_a_sweep_count_change_below_the_rank_cap_is_outside(compare_trees):
    mark, found, note = compare_trees._judge(_fit(sweeps=3), _fit(sweeps=2))
    assert mark == "OUTSIDE"
    assert found == {}
    assert "3 errors at REF, 2 here" in note


def test_a_sweep_count_change_above_the_rank_cap_is_within(compare_trees):
    mark, _, note = compare_trees._judge(_fit(order=5, sweeps=3), _fit(order=5, sweeps=2))
    assert mark == "within"
    assert "N above the rank cap 4" in note


def test_an_exception_on_one_side_is_outside(compare_trees):
    raised = {"scale": np.array(1.0), "points": np.array(5), "raised": np.array("FitAbortError: lost")}
    assert compare_trees._judge(raised, _fit()) == ("OUTSIDE", {}, "raised FitAbortError: lost at REF, ran here")
    assert compare_trees._judge(raised, dict(raised)) == ("same", {}, "raised FitAbortError: lost")


def test_a_label_on_one_side_is_outside(compare_trees):
    assert compare_trees._judge(None, _fit()) == ("OUTSIDE", {}, "only here")
    assert compare_trees._judge(_fit(), None) == ("OUTSIDE", {}, "only at REF")


@pytest.mark.parametrize("key", ["mapped", "unresolved"])
def test_an_unbounded_array_that_alone_differs_is_outside(compare_trees, key):
    new = {**_fit(), "unresolved": np.array([[2, 3]])} if key == "unresolved" else _moved(_fit(), key, 1e-15)
    mark, _, note = compare_trees._judge(_fit(), new)
    assert mark == "OUTSIDE"
    assert note == f"unbounded arrays that differ: {key}"


def test_an_unbounded_array_that_moves_with_the_bounded_ones_is_named(compare_trees):
    new = _moved(_moved(_fit(), "theta", 1e-14), "mapped", 1e-15)
    assert compare_trees._judge(_fit(), new)[::2] == ("within", "unbounded arrays that differ: mapped")


def test_records_round_trip_by_label(compare_trees, tmp_path):
    arrays = {"fine41 search (5, 7)/E": np.arange(3.0), "fine41 N=5/raised": np.array("FitAbortError: x")}
    np.savez(tmp_path / "records.npz", **arrays)
    records = compare_trees._load(tmp_path / "records.npz")
    assert list(records) == ["fine41 search (5, 7)", "fine41 N=5"]
    assert str(records["fine41 N=5"]["raised"]) == "FitAbortError: x"


def test_cli_files_that_differ_or_exist_on_one_side_are_named(compare_trees, tmp_path):
    theirs, ours = tmp_path / "ref", tmp_path / "here"
    for root in (theirs, ours):
        (root / "out0").mkdir(parents=True)
        (root / "out0" / "same.json").write_text("{}")
        (root / "out0.exit").write_text("fit circle41.txt exit=0\n")
    (ours / "out0.exit").write_text("fit circle41.txt exit=4\n")
    (theirs / "out0" / "gone.csv").write_text("1,2\n")
    (ours / "out1").mkdir()
    (ours / "out1" / "new.svg").write_text("<svg/>")
    differ, total = compare_trees._cli_differences(theirs, ours)
    assert differ == ["out0.exit", "out0/gone.csv", "out1/new.svg"]
    assert total == 4
    assert compare_trees._cli_differences(theirs, theirs) == ([], 3)


def test_a_script_that_fails_exits_two_with_its_stderr(compare_trees, tmp_path, capsys):
    script = tmp_path / "broken.py"
    script.write_text("import sys\nfor i in range(30):\n    print(f'line {i}', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(SystemExit) as exit_info:
        compare_trees._run("broken.py at REF", [sys.executable, str(script)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "broken.py at REF failed with exit code 3:"
    assert err[1:] == [f"line {i}" for i in range(30 - compare_trees._TAIL, 30)]
