#!/usr/bin/env python3
"""Census of the public names and settable values of every itmbench module.

For each module of the package it prints two counts:

- public: the classes and functions the module defines whose names do not
  start with an underscore. Exception classes are the error vocabulary, not
  API surface, and are not counted, so `errors` has nothing to count.
- settable: the fields of its public dataclasses plus the parameters with a
  default of its public module-level functions and of the public static and
  class methods of its public classes (instance methods are not counted).

Modules with nothing to count are left out; the last line is the total. To
compare two source trees, run against each and diff the outputs:

    PYTHONPATH=<tree>/src python tools/settable_census.py

With `--unreached` it prints instead, one `module.name` a line, each public
name that nothing reaches, and exits 1 if it printed any. A name is reached
when one of these names it, as an identifier (found by AST) or as a string
constant equal to it:

- another module of the package (not `__init__.py`)
- any file under `bench/` or `tools/`, or `tests/test_acceptance.py`
- the Python block under README's "Library example"
- a `[project.scripts]` target in `pyproject.toml`

A class is also reached when a reached function names it in its signature's
annotations, or a reached dataclass in a field's. Comments and prose do not
count. The files scanned are those of the tree `itmbench` is imported from.

Uses numpy (through itmbench) and the standard library only.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import itmbench


def public_names(module) -> dict:
    """name -> object of the public classes and functions `module` defines."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isfunction(obj)
                 or (inspect.isclass(obj) and not issubclass(obj, BaseException)))}


def census(module) -> tuple:
    """(public, settable) counts of one module."""
    public = list(public_names(module).values())
    fields = sum(len(dataclasses.fields(obj)) for obj in public if dataclasses.is_dataclass(obj))
    methods = [attr.__func__ for cls in public if inspect.isclass(cls)
               for name, attr in vars(cls).items()
               if not name.startswith("_") and isinstance(attr, (staticmethod, classmethod))]
    defaults = sum(1 for fn in [obj for obj in public if inspect.isfunction(obj)] + methods
                   for p in inspect.signature(fn).parameters.values()
                   if p.default is not p.empty)
    return len(public), fields + defaults


def modules() -> dict:
    """Module name -> module, for every module of the package."""
    return {info.name: importlib.import_module(f"itmbench.{info.name}")
            for info in sorted(pkgutil.iter_modules(itmbench.__path__), key=lambda m: m.name)}


def identifiers(source: str) -> set:
    """Names, attribute names, imported names and string constants of Python source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _annotation_names(obj) -> set:
    """Identifiers in the signature annotations of a function or the field types of a dataclass."""
    if dataclasses.is_dataclass(obj):
        annotations = [f.type for f in dataclasses.fields(obj)]
    elif inspect.isfunction(obj):
        sig = inspect.signature(obj)
        annotations = [p.annotation for p in sig.parameters.values()] + [sig.return_annotation]
    else:
        return set()
    names = set()
    for ann in annotations:
        if isinstance(ann, str):
            names |= identifiers(ann)
        else:
            names.add(getattr(ann, "__name__", ""))
    return names


def unreached() -> list:
    """`module.name` of every public name that nothing reaches, sorted (see the module doc)."""
    package = Path(itmbench.__file__).resolve().parent
    root = package.parents[1]
    outside = set()
    for path in [*(root / "bench").rglob("*.py"), *(root / "tools").rglob("*.py"),
                 root / "tests" / "test_acceptance.py"]:
        outside |= identifiers(path.read_text())
    readme = re.search(r"## Library example\n+```python\n(.*?)```", (root / "README.md").read_text(),
                       re.S)
    outside |= identifiers(readme.group(1))
    scripts = (root / "pyproject.toml").read_text().partition("[project.scripts]")[2].split("\n[")[0]
    outside |= set(re.findall(r":(\w+)\"", scripts))

    mods = modules()
    inside = {name: identifiers((package / f"{name}.py").read_text()) for name in mods}
    public = {(mod, name): obj for mod, module in mods.items()
              for name, obj in public_names(module).items()}
    reached = {key for key in public
               if key[1] in outside or any(key[1] in ids for m, ids in inside.items() if m != key[0])}
    frontier = set(reached)
    while frontier:
        named = set().union(*(_annotation_names(public[key]) for key in frontier))
        frontier = {key for key, obj in public.items()
                    if key not in reached and key[1] in named and inspect.isclass(obj)}
        reached |= frontier
    return sorted(f"{mod}.{name}" for mod, name in public if (mod, name) not in reached)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Census of itmbench's public names.")
    parser.add_argument("--unreached", action="store_true",
                        help="list the public names that nothing reaches; exit 1 if any")
    args = parser.parse_args(argv)
    if args.unreached:
        names = unreached()
        for name in names:
            print(name)
        return 1 if names else 0
    rows = []
    for name, module in modules().items():
        public, settable = census(module)
        if public or settable:
            rows.append((name, public, settable))
    print(f"{'module':<10} {'public':>6} {'settable':>8}")
    for name, public, settable in rows:
        print(f"{name:<10} {public:>6} {settable:>8}")
    print(f"{f'total ({len(rows)})':<10} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
