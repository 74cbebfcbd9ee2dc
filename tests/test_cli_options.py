"""The command line accepts only what it reads.

Every option a subcommand declares, other than `--out`, is read by that
subcommand's handler. Each handler runs once on small inputs with every one
of its options given, through a namespace that records the attributes the
handler reads; `--config` counts as read when the handler reads the settings
that `main` loads from it (`args.cfg`).
"""

import argparse

import numpy as np
import pytest

from itmbench import cli
from itmbench.image_io import LinearImage, Ldr8Image, write_ldr8, write_pfm

# the value given to each option that takes one; flags are given bare
SHARED = {"--seed": "3", "--config": "settings.ini", "--jobs": "2"}
OWN = {
    "synthesize": {"--hdr-dir": "gt", "--count": "1"},
    "score": {"--pred": "pred", "--gt": "gt"},
    "analyze": {"--pred": "pred/a.pfm", "--gt": "gt/a.pfm", "--ldr": "ldr.png", "--quantile": "0.5"},
    "expand": {"--input": "ldr.png", "--crf": "gamma:0.5", "--format": "pfm"},
    "sde-demo": {"--hdr": "gt/a.pfm", "--ldr": "pred/a.pfm", "--steps": "2"},
}


class _Reads:
    """Proxy of an argparse namespace that records each attribute read through it."""

    def __init__(self, args, names: set):
        self._args, self._names = args, names

    def __getattr__(self, name):
        self._names.add(name)
        return getattr(self._args, name)


def subcommands(parser) -> dict:
    """Subcommand name -> its parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def options(parser) -> list:
    """The declared options of one subcommand's parser, help excepted, in declaration order."""
    return [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


def full_argv(name: str, parser) -> list:
    """`name` with every one of its options given, `--out` set to out/<name>."""
    values = {**SHARED, **OWN[name], "--out": f"out/{name}"}
    argv = [name]
    for action in options(parser):
        option = action.option_strings[0]
        argv += [option] if action.nargs == 0 else [option, values[option]]
    return argv


def unread_options(monkeypatch) -> list:
    """'<subcommand> <option>' for each declared option but `--out` that its handler leaves unread."""
    reads = {}
    build = cli._build_parser

    def recording_parser():
        parser = build()
        for name, sub in subcommands(parser).items():
            def spy(args, *rest, handler=sub.get_default("func"), seen=reads.setdefault(name, set())):
                return handler(_Reads(args, seen), *rest)
            sub.set_defaults(func=spy)
        return parser

    monkeypatch.setattr(cli, "_build_parser", recording_parser)
    unread = []
    for name, sub in subcommands(build()).items():
        assert cli.main(full_argv(name, sub)) == 0, name
        for action in options(sub):
            read = action.dest in reads[name] or (action.dest == "config" and "cfg" in reads[name])
            if not read and action.dest != "out":
                unread.append(f"{name} {action.option_strings[0]}")
    return unread


@pytest.fixture
def inputs(tmp_path, monkeypatch, rng):
    """16 x 16 inputs for every subcommand in the working directory tmp_path."""
    monkeypatch.chdir(tmp_path)
    gt = rng.uniform(0.05, 1.0, (16, 16, 3)).astype(np.float32)
    for sub, data in (("gt", gt), ("pred", 0.9 * gt)):
        (tmp_path / sub).mkdir()
        write_pfm(LinearImage(data), tmp_path / sub / "a.pfm")
    write_ldr8(Ldr8Image(np.round(255.0 * np.sqrt(gt)).astype(np.uint8)), tmp_path / "ldr.png")
    (tmp_path / "settings.ini").write_text("[seeds]\nmaster = 1\n")
    return tmp_path


def test_every_declared_option_is_read(inputs, monkeypatch):
    assert unread_options(monkeypatch) == []


def test_a_new_unread_option_is_listed(inputs, monkeypatch):
    build = cli._build_parser

    def with_verbose():
        parser = build()
        subcommands(parser)["expand"].add_argument("--verbose", action="store_true")
        return parser

    monkeypatch.setattr(cli, "_build_parser", with_verbose)
    assert unread_options(monkeypatch) == ["expand --verbose"]


@pytest.mark.parametrize("name, option", [
    ("score", "--seed"), ("analyze", "--seed"), ("analyze", "--jobs"), ("expand", "--seed"),
    ("expand", "--jobs"), ("expand", "--config"), ("sde-demo", "--jobs"),
])
def test_an_option_no_handler_reads_is_a_usage_error(inputs, capsys, name, option):
    argv = full_argv(name, subcommands(cli._build_parser())[name]) + [option, SHARED[option]]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {SHARED[option]}" in capsys.readouterr().err
    assert not (inputs / "out").exists()
