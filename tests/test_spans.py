"""The benchmark's tracer wraps module attributes of hullmap; they must all exist.

`perfbench/spans.py` is read as it is, from outside the package, so that a
rename under `src/` fails here and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _spans_module().WRAPPED


@pytest.mark.parametrize(
    ("module", "attribute"),
    [(module, attribute) for module, attribute, _ in WRAPPED],
    ids=[f"{module.__name__}.{attribute}" for module, attribute, _ in WRAPPED],
)
def test_every_traced_attribute_exists(module, attribute):
    assert callable(getattr(module, attribute, None))
