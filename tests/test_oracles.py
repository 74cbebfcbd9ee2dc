"""The oracles must not reuse the library code they check, and the closed forms hold."""

import ast
import pathlib

import numpy as np
import pytest

from oracles import ou_moments


def test_oracles_import_no_itmbench_module_but_errors():
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "itmbench":
                imported += [f"itmbench.{alias.name}" for alias in node.names]
            else:
                imported.append(node.module)
    assert "itmbench.errors" in imported
    bad = [name for name in imported
           if name.split(".")[0] == "itmbench" and name != "itmbench.errors"]
    assert not bad, f"oracles.py imports {bad}"


class TestOuMoments:
    def test_time_zero(self):
        assert ou_moments(2.0, 0.0, 1.0, 1.0, 0.0) == (2.0, 0.0)

    def test_stationary_limit(self):
        mean, var = ou_moments(2.0, 0.5, 1.5, 1.0, 1e9)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert var == pytest.approx(1.0 / (2 * 1.5), abs=1e-12)

    def test_unit_evaluation(self):
        mean, var = ou_moments(2.0, 0.0, 1.0, 1.0, 1.0)
        assert mean == pytest.approx(2 * np.exp(-1.0), abs=1e-15)
        assert var == pytest.approx((1 - np.exp(-2.0)) / 2, abs=1e-15)
