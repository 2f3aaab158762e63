"""tools/stagebench.py: the tree loader, a second copy of the package beside
``medsolve``, and the per-row summary of the timed samples."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

import medsolve as ms

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rev(tmp_path):
    """The package copied to ``tmp_path/src`` and loaded as ``medsolve_rev``, and its tree."""
    spec = importlib.util.spec_from_file_location("stagebench", ROOT / "tools" / "stagebench.py")
    stagebench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stagebench)
    tree = tmp_path / "src" / "medsolve"
    shutil.copytree(Path(ms.__file__).parent, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    yield stagebench.load("medsolve_rev", tmp_path / "src"), tree.resolve()
    for key in [key for key in sys.modules if key.split(".")[0] == "medsolve_rev"]:
        del sys.modules[key]


def test_each_package_is_loaded_from_its_own_tree(rev):
    package, tree = rev
    here = Path(ms.__file__).resolve().parent
    assert tree != here
    names = sorted(key for key in sys.modules if key.split(".")[0] == "medsolve_rev")
    assert len(names) == len(list(tree.glob("*.py")))  # the package and every module
    for name in names:
        theirs = sys.modules[name]
        ours = importlib.import_module(name.replace("medsolve_rev", "medsolve", 1))
        assert theirs is not ours
        assert Path(theirs.__file__).resolve().parent == tree
        assert Path(ours.__file__).resolve().parent == here
    assert package is not ms
    assert package.GramMatrix is not ms.GramMatrix


@pytest.fixture
def stagebench():
    spec = importlib.util.spec_from_file_location("stagebench", ROOT / "tools" / "stagebench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_summary_pairs_sample_k_of_each_package(stagebench):
    # host load that moves both packages' sample k alike leaves the paired
    # ratios at 1.1; sorting either side first would spread them
    rev = [10.0, 30.0, 20.0, 50.0, 40.0]
    here = [11.0, 33.0, 22.0, 55.0, 44.0]
    assert stagebench.summary(rev, here) == (10.0, 11.0, 1.1, 1.1, 1.1, 1.1)
    # 0.5, 2, 1, 0.5, 2 paired: q1, median and q3 at the 2nd, 3rd and 4th of five
    assert stagebench.summary([2.0, 1.0, 3.0, 8.0, 1.5], [1.0, 2.0, 3.0, 4.0, 3.0]) == (
        1.0, 1.0, 1.0, 0.5, 1.0, 2.0)
