"""The public surface is what something reaches: `settable_census.py --unreached` stays empty."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import itmbench.sde

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "settable_census.py"


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
    assert run.stdout.splitlines()[-1] == "total (10)     72      108"


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
