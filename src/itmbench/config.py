"""Key = value configuration files with [section] headers.

Unknown sections or keys are hard errors so typos surface immediately.
Blank lines and full-line # comments are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .camera import SynthesisSettings
from .color import DisplayMapping
from .errors import ConfigError, DomainError
from .pu21 import PuEncoding

# Sections whose keys are the fields of a settings dataclass (see _keys).
_SETTINGS = {"display": DisplayMapping, "synth": SynthesisSettings}


def _keys(cls):
    """Yield (key, field name, tuple index or None, default) per config key of `cls`.

    A scalar field is one key; a `<stem>_range` field is the pair of keys
    `<stem>_lo` and `<stem>_hi`. A key's type is that of its default.
    """
    for f in fields(cls):
        if f.name.endswith("_range"):
            stem = f.name[: -len("_range")]
            yield f"{stem}_lo", f.name, 0, f.default[0]
            yield f"{stem}_hi", f.name, 1, f.default[1]
        else:
            yield f.name, f.name, None, f.default


_SCHEMA = {
    **{section: {key: type(default) for key, _, _, default in _keys(cls)}
       for section, cls in _SETTINGS.items()},
    "score": {"pu_coefficients": str},
    "seeds": {"master": int},
}


@dataclass(frozen=True)
class Config:
    display: DisplayMapping = field(default_factory=DisplayMapping)
    synth: SynthesisSettings = field(default_factory=SynthesisSettings)
    pu_coefficients: str = ""
    master_seed: int = 0

    def __post_init__(self):
        # loaded once, as the Config is built: an unusable file is a ConfigError here
        object.__setattr__(self, "_encoding", PuEncoding.from_json(self.pu_coefficients)
                           if self.pu_coefficients else PuEncoding.default())

    def encoding(self) -> PuEncoding:
        """The PU encoding `pu_coefficients` names, or the packaged one when it is empty."""
        return self._encoding


def _parse_config_text(text: str) -> Config:
    values: dict = {section: {} for section in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        caster = _SCHEMA[section][key]
        try:
            values[section][key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {value!r} as {caster.__name__}"
            ) from None
    return _build(values)


def parse_config(path) -> Config:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return _parse_config_text(text)


def _settings(cls, given: dict):
    """Construct `cls` from the keys given in its section; absent keys keep defaults."""
    kwargs: dict = {}
    for key, name, index, default in _keys(cls):
        value = given.get(key, default)
        kwargs[name] = value if index is None else kwargs.get(name, ()) + (value,)
    return cls(**kwargs)


def _build(values: dict) -> Config:
    try:
        display = _settings(DisplayMapping, values["display"])
        synth = _settings(SynthesisSettings, values["synth"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return Config(
        display=display,
        synth=synth,
        pu_coefficients=values["score"].get("pu_coefficients", ""),
        master_seed=values["seeds"].get("master", 0),
    )
