"""The public surface is what something reaches: `settable_census.py --unreached` stays empty,
and every function in the package is entered by a run or listed with the reason it stays."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import itmbench.sde

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "settable_census.py"
PACKAGE = ROOT / "src" / "itmbench"

# The functions of the package that neither `tools/cli_digest.py --size 16` nor README's
# library example enters, each with the reason it stays. Give a new function a run (extend
# cli_digest where a user path is missing from it) rather than a line here.
NEVER_ENTERED = {
    "camera.Crf.apply": "the public counterpart of `inverse`; the pipeline calls `_apply_owned`",
    "camera.Crf.from_dict": "the manifest reader; only the benchmark reads a manifest back",
    "cli.entry": "the console script of `[project.scripts]`",
    "losses.denoise_loss": "`linear_l1` under a second name, which the benchmark traces",
    "losses.score_matching_loss": "acceptance criterion 6's subject; no command calls it",
    "pu21.rank_teams": "acceptance criterion 9's subject; no command ranks teams yet",
    "pu21.rank_teams.key": "`rank_teams`' sort key",
}

def load_tool():
    spec = importlib.util.spec_from_file_location("settable_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_public_name_is_reached():
    run = run_tool("--unreached")
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_totals_are_pinned():
    # public names and settable values over the ten modules: a change that adds
    # or removes either edits this line
    run = run_tool()
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == "total (10)     69      108"


def test_a_new_public_name_without_a_reacher_is_listed(monkeypatch):
    def orphan():
        pass

    orphan.__module__ = itmbench.sde.__name__
    monkeypatch.setattr(itmbench.sde, "orphan", orphan, raising=False)
    assert load_tool().unreached() == ["sde.orphan"]


def test_static_and_class_method_defaults_are_settable(monkeypatch):
    tool = load_tool()
    public, settable = tool.census(itmbench.sde)

    class Knobs:
        @staticmethod
        def make(a, b=1, c=2):
            pass

        @classmethod
        def build(cls, d=3):
            pass

        def instance(self, e=4):
            pass

        @staticmethod
        def _private(f=5):
            pass

    Knobs.__module__ = itmbench.sde.__name__
    monkeypatch.setattr(itmbench.sde, "Knobs", Knobs, raising=False)
    assert tool.census(itmbench.sde) == (public + 1, settable + 3)


def defined_functions(sources: dict) -> dict:
    """(file name, first line, name) -> `module.qualified.name` of every def in `sources`,
    {file name: module source}. A decorated def's first line is its first decorator's, as
    in its code object; `co_qualname` would name it directly, but needs Python 3.11."""
    found = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found[(file, (child.decorator_list or [child])[0].lineno, child.name)] = name
                visit(child, file, name)
            else:
                visit(child, file, prefix)

    for file, source in sources.items():
        visit(ast.parse(source), file, file.removesuffix(".py"))
    return found


@pytest.fixture(scope="module")
def entered(traced_digest) -> set:
    return {tuple(key) for key in traced_digest["entered"]}


def never_entered(entered: set, sources: dict) -> set:
    return {name for key, name in defined_functions(sources).items() if key not in entered}


def package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_function_is_entered_or_listed(entered):
    assert never_entered(entered, package_sources()) == set(NEVER_ENTERED)


def test_a_new_function_no_run_enters_is_listed(entered):
    sources = package_sources()
    sources["sde.py"] += "\n\ndef orphan():\n    def inner():\n        pass\n"
    assert never_entered(entered, sources) == {*NEVER_ENTERED, "sde.orphan", "sde.orphan.inner"}
