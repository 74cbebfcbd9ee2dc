"""README's library example runs as printed, so a name it uses cannot vanish unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"## Library example\n+```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    psnr, ssim = (float(v) for v in capsys.readouterr().out.split())
    assert psnr > 0 and 0 < ssim <= 1
