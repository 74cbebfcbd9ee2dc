import json
import re
from pathlib import Path

import pytest

from itmbench.config import _SCHEMA, Config, _parse_config_text
from itmbench.errors import ConfigError
from itmbench.pu21 import PuEncoding

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_ini() -> str:
    """The README's ```ini block with inline # comments stripped."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    return "\n".join(line.split("#", 1)[0] for line in block.splitlines())


def test_readme_block_parses_to_the_defaults():
    assert _parse_config_text(readme_ini()) == Config()


def test_readme_block_names_every_key():
    named, section = set(), None
    for line in readme_ini().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            named.add((section, line.partition("=")[0].strip()))
    assert named == {(sec, key) for sec, keys in _SCHEMA.items() for key in keys}


def test_lo_hi_keys_set_one_end_of_the_range():
    cfg = _parse_config_text("[synth]\ngamma_hi = 0.9\nsigma_lo = 0.002\n")
    assert cfg.synth.gamma_range == (0.35, 0.9)
    assert cfg.synth.sigma_range == (0.002, 0.01)


def test_pu_coefficients_are_loaded_once_as_the_config_is_built(tmp_path):
    default = PuEncoding.default()
    path = tmp_path / "pu.json"
    path.write_text(json.dumps({"p": list(default.p), "y_min": default.y_min,
                                "y_max": default.y_max, "name": "copy"}))
    cfg = _parse_config_text(f"[score]\npu_coefficients = {path}\n")
    path.unlink()  # read once: the file is no longer needed
    assert cfg.encoding() is cfg.encoding()
    assert cfg.encoding() == PuEncoding(default.p, default.y_min, default.y_max, "copy")
    assert Config().encoding() is default


def test_unreadable_pu_coefficients_are_a_config_error_when_built(tmp_path):
    with pytest.raises(ConfigError, match="cannot load PU coefficients"):
        Config(pu_coefficients=str(tmp_path / "missing.json"))
