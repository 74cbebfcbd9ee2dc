import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from itmbench.image_io import LinearImage

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh process, since cli_digest changes the working directory. It records the
# (file name, first line, name) of each package function's code object at its call events,
# in every thread: `score --jobs 2` scores its pairs in worker threads only.
TRACE = """
import contextlib, io, json, os, sys, threading
package, work, tools, tests = sys.argv[1:]
entered = set()


def tracer(frame, event, arg):
    code = frame.f_code
    if os.path.dirname(code.co_filename) == package:
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))


threading.settrace(tracer)
sys.settrace(tracer)
sys.path[:0] = [tools, tests]
import cli_digest
from test_readme import run_example

digest = io.StringIO()
with contextlib.redirect_stdout(digest):
    cli_digest.main([work, "--size", "16"])
with contextlib.redirect_stdout(io.StringIO()):
    run_example()
sys.settrace(None)
print(json.dumps({"entered": sorted(entered), "digest": digest.getvalue()}))
"""


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def random_pair(rng):
    """Two independent random 32x32 linear images in (0, 1]."""
    a = rng.uniform(0.01, 1.0, size=(32, 32, 3)).astype(np.float32)
    b = rng.uniform(0.01, 1.0, size=(32, 32, 3)).astype(np.float32)
    return LinearImage(a), LinearImage(b)


def make_image(rng, h=16, w=16, lo=0.0, hi=1.0):
    return LinearImage(rng.uniform(lo, hi, size=(h, w, 3)).astype(np.float32))


@pytest.fixture(scope="session")
def traced_digest(tmp_path_factory) -> dict:
    """One traced run of `tools/cli_digest.py --size 16` and README's library example:
    {"entered": the (file name, first line, name) of every package function they
    entered, "digest": the digest's text}."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", TRACE, str(ROOT / "src" / "itmbench"),
                          str(tmp_path_factory.mktemp("reach") / "digest"),
                          str(ROOT / "tools"), str(ROOT / "tests")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    return json.loads(run.stdout)
