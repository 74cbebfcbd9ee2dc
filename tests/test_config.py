import re
from pathlib import Path

from itmbench.config import _SCHEMA, Config, _parse_config_text

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
