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


def test_every_public_name_is_reached():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, str(TOOL), "--unreached"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_a_new_public_name_without_a_reacher_is_listed(monkeypatch):
    def orphan():
        pass

    orphan.__module__ = itmbench.sde.__name__
    monkeypatch.setattr(itmbench.sde, "orphan", orphan, raising=False)
    assert load_tool().unreached() == ["sde.orphan"]
