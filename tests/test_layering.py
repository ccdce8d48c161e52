"""Each package module reaches the others only through their public names: no
module imports an underscore-prefixed name from another package module, or
reads one off a package module it imported. A setting has one owner, read at
call time, so a patch of the owner reaches every reader."""

import ast
import pathlib
from unittest import mock

import numpy as np
import pytest

import rpforest.oracle
from rpforest import Dataset, TreeConfig, build_forest, query_all_training

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rpforest"
MODULES = sorted(PACKAGE.glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reaches(source: str) -> list[str]:
    """Each import of, or attribute read of, another package module's private name in source."""
    tree, modules, found = ast.parse(source), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == "rpforest"):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif node.module in (None, "rpforest"):  # a module of the package: from . import core
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.partition(".")[0] == "rpforest")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) and ast.unparse(node.value) in modules:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_names(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", ["oracle.py", "metrics.py"])
def test_ranking_and_metrics_import_nothing_from_the_forest(name):
    """The forest ranks through the oracle, so the ranking layer sits below it."""
    nodes = [n for n in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))) if isinstance(n, ast.ImportFrom)]
    assert "forest" not in {(n.module or "").split(".")[-1] for n in nodes} | {a.name for n in nodes for a in n.names}


def test_the_check_sees_both_kinds_of_reach():
    source = "from . import core\nfrom .forest import _rank, query_knn\nimport rpforest.tree as t\ncore._x, t._y, core.WORKERS, x._z\n"
    assert private_reaches(source) == ["line 2: from .forest import _rank", "line 4: core._x", "line 4: t._y"]
    assert len(MODULES) >= 9


def test_a_patch_of_the_filter_gate_reaches_the_forest():
    """The forest centres its points for the Gram filter only where the
    oracle's gate, read at call time, lets rank filter."""
    forest = build_forest(Dataset(np.random.default_rng(0).normal(size=(300, 12))), TreeConfig(), 3, 1)
    with mock.patch.object(rpforest.oracle, "_FILTER_WORDS", 12):
        query_all_training(forest, 5)
    assert "_gram" not in vars(forest)
    query_all_training(forest, 5)
    assert "_gram" in vars(forest)
