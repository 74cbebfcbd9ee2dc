"""The oracles must not reuse the library code they check."""

import ast
import pathlib


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
