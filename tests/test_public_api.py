"""The package root's names, and the hullmap names README.md quotes, resolve."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import hullmap

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
IMPORTS = re.findall(r"^\s*(from hullmap\S* import .+)$", README, re.MULTILINE)
DOTTED = re.findall(r"`(hullmap(?:\.\w+)+)`", README)


def _resolve(dotted: str):
    """The object a dotted name names: its longest importable prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            found = getattr(found, name)
        return found
    raise ModuleNotFoundError(dotted)


def test_the_package_root_binds_the_library_example_names():
    public = {n for n, v in vars(hullmap).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == {"FitConfig", "fit_section", "search_optimum"}


def test_readme_quotes_imports_and_dotted_names():
    assert IMPORTS and DOTTED


@pytest.mark.parametrize("line", IMPORTS)
def test_every_readme_import_resolves(line):
    exec(line, {})


@pytest.mark.parametrize("dotted", DOTTED)
def test_every_dotted_readme_name_resolves(dotted):
    _resolve(dotted)
