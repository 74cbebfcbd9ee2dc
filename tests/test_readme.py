"""README's library example runs as printed, so a name it uses cannot vanish unnoticed."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def run_example() -> dict:
    """Execute README's library example; returns the names it binds."""
    block = re.search(r"## Library example\n+```python\n(.*?)```", README.read_text(), re.S)
    names: dict = {}
    exec(compile(block.group(1), "README.md", "exec"), names)
    return names


def test_library_example_runs(capsys):
    run_example()
    psnr, ssim = (float(v) for v in capsys.readouterr().out.split())
    assert psnr > 0 and 0 < ssim <= 1


def test_operator_chain_output():
    names = run_example()
    masks = names["masks"]
    assert np.abs(masks.under + masks.mid + masks.over - 1.0).max() <= 1e-12
    for image in (names["fused"], names["projected"]):
        assert image.data.shape == names["recon"].data.shape
        assert np.isfinite(image.data).all() and (image.data >= 0).all()
