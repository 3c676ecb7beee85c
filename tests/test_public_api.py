"""The public names: each module's __all__ is the one list of its public
names, the package exports exactly their union, and every name the
benchmark calls on the package resolves."""

import re
from pathlib import Path

import pytest

import susy_pt
import susy_pt.cli
from susy_pt import ladder, model, numeric, verify, wavefun

MODULES = (model, wavefun, ladder, numeric, verify)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_module_names_resolve(mod):
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_package_exports_union_of_module_lists():
    union = [name for mod in MODULES for name in mod.__all__] + ["__version__"]
    assert len(union) == len(set(union))  # no name is public in two modules
    assert len(susy_pt.__all__) == len(set(susy_pt.__all__))
    assert set(susy_pt.__all__) == set(union)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(susy_pt, name) is getattr(mod, name), name


@pytest.mark.parametrize("script", ["tracing.py", "workloads.py"])
def test_benchmark_calls_resolve(script):
    # read only: a removal that would break a traced benchmark run fails here
    names = set(re.findall(r"\bpkg\.([A-Za-z_]\w*)", (PERFBENCH / script).read_text()))
    assert names
    assert sorted(n for n in names if not hasattr(susy_pt, n)) == []
