#!/usr/bin/env python3
"""Census of the public names and settable values of every itmbench module.

For each module of the package it prints two counts:

- public: the classes and functions the module defines whose names do not
  start with an underscore. Exception classes are the error vocabulary, not
  API surface, and are not counted, so `errors` has nothing to count.
- settable: the fields of its public dataclasses plus the parameters with a
  default of its public module-level functions (methods are not counted).

Modules with nothing to count are left out; the last line is the total. To
compare two source trees, run against each and diff the outputs:

    PYTHONPATH=<tree>/src python tools/settable_census.py

Uses numpy (through itmbench) and the standard library only.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import sys

import itmbench


def census(module) -> tuple:
    """(public, settable) counts of one module."""
    public = [obj for name, obj in vars(module).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
              and (inspect.isfunction(obj)
                   or (inspect.isclass(obj) and not issubclass(obj, BaseException)))]
    fields = sum(len(dataclasses.fields(obj)) for obj in public if dataclasses.is_dataclass(obj))
    defaults = sum(1 for obj in public if inspect.isfunction(obj)
                   for p in inspect.signature(obj).parameters.values()
                   if p.default is not p.empty)
    return len(public), fields + defaults


def main() -> int:
    rows = []
    for info in sorted(pkgutil.iter_modules(itmbench.__path__), key=lambda m: m.name):
        public, settable = census(importlib.import_module(f"itmbench.{info.name}"))
        if public or settable:
            rows.append((info.name, public, settable))
    print(f"{'module':<10} {'public':>6} {'settable':>8}")
    for name, public, settable in rows:
        print(f"{name:<10} {public:>6} {settable:>8}")
    print(f"{f'total ({len(rows)})':<10} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
