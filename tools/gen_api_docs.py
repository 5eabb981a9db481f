#!/usr/bin/env python3
"""Generate docs/api.md from the public API's docstrings.

Walks the packages' ``__all__`` exports (plus the flow/reporting entry
points), pulls signatures and first docstring paragraphs, and writes a
browsable reference.  Run after API changes:

    python tools/gen_api_docs.py

``--check`` writes nothing and exits 1 when docs/api.md differs from
what would be generated.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

SECTIONS = [
    ("Top level", "repro"),
    ("CDFG", "repro.cdfg"),
    ("Partitioning", "repro.partition"),
    ("Modules & timing", "repro.modules"),
    ("ILP substrate", "repro.ilp"),
    ("Graph algorithms", "repro.graphs"),
    ("Scheduling", "repro.scheduling"),
    ("Pass pipeline", "repro.pipeline"),
    ("Core synthesis", "repro.core"),
    ("RTL generation", "repro.rtl"),
    ("Simulation", "repro.sim"),
    ("Reporting", "repro.reporting"),
    ("Benchmark designs", "repro.designs"),
    ("Design-space explorer", "repro.explore"),
    ("Synthesis service", "repro.service"),
    ("Cluster tier", "repro.cluster"),
    ("Checking & fuzzing", "repro.check"),
    ("Serialization", "repro.io_json"),
]


#: Hand-authored markdown injected after a module's intro paragraph —
#: for narrative that docstring-harvesting can't express (worked
#: examples, tables).
EXTRAS = {
    "repro.pipeline": """\
### Scheduler backends

Every scheduler the flows can drive is an entry in the backend
registry; registered names are automatically valid
`SynthesisOptions.scheduler` values, `repro synthesize --scheduler` /
`repro explore --schedulers` choices, explorer-axis values, and
differential-oracle participants.  Built-ins:

| name | kind | flows | description |
|---|---|---|---|
| `list` | iohooks | simple, connection-first | per-step priority list scheduling (Figure 3.4) |
| `heap` | iohooks | simple, connection-first | heap-driven ready list keyed by step/deadline/criticality |
| `postpone` | rounds | connection-first | list scheduling with iterative postponement rounds |
| `modulo` | iohooks | simple, connection-first | IMS modulo placement at II=L, legalized by list scheduling |
| `fds` | time | schedule-first | time-constrained force-directed scheduling (Section 5.2) |

Registering a third-party backend:

```python
from repro.pipeline import register_scheduler

def my_backend(graph, timing, rate, resources, hooks_factory,
               budget, diagnostics):
    # hooks_factory() yields fresh IoHooks per scheduling attempt;
    # consult hooks.can_schedule / hooks.commit for every I/O op
    # placement and return a finished repro.scheduling.base.Schedule.
    ...

register_scheduler("mine", my_backend,
                   flows=("simple", "connection-first"),
                   description="my experimental scheduler")
```

`repro.synthesize(..., scheduler="mine")` then drives it; its results
face the same `ResourceTable` pin accounting, `require_valid()`
verification, and unified design rules as the built-ins.  Backends
with `kind="time"` are called as `factory(graph, timing, rate,
pipe_length, budget, diagnostics)` instead.
""",
}


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


class _Named:
    """Renders as a bare name (a callable default's ``__qualname__``,
    not its ``<function ... at 0x...>`` repr, which changes per run)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


def signature_of(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    params = [param.replace(default=_Named(param.default.__qualname__))
              if inspect.isroutine(param.default) else param
              for param in signature.parameters.values()]
    return str(signature.replace(parameters=params))


def describe(module) -> list:
    lines = []
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        summary = first_paragraph(obj)
        if inspect.isclass(obj):
            lines.append(f"### `{name}`\n\n{summary}\n")
            for meth_name, meth in sorted(
                    inspect.getmembers(obj, inspect.isfunction)):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                lines.append(f"- `{meth_name}{signature_of(meth)}` — "
                             f"{first_paragraph(meth)}")
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`\n\n"
                         f"{summary}\n")
        elif not inspect.ismodule(obj):
            lines.append(f"### `{name}`\n\n{summary or repr(obj)}\n")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if docs/api.md is out of date")
    args = parser.parse_args(argv)
    out = ["# API reference",
           "",
           "Generated by `tools/gen_api_docs.py` — do not edit by "
           "hand.",
           ""]
    for title, module_name in SECTIONS:
        module = importlib.import_module(module_name)
        out.append(f"## {title} (`{module_name}`)")
        out.append("")
        intro = first_paragraph(module)
        if intro:
            out.append(intro)
            out.append("")
        if module_name in EXTRAS:
            out.append(EXTRAS[module_name])
        out.extend(describe(module))
        out.append("")
    target = pathlib.Path(__file__).parent.parent / "docs" / "api.md"
    text = "\n".join(out) + "\n"
    if args.check:
        if not target.exists() or target.read_text() != text:
            print(f"{target} is out of date; run tools/gen_api_docs.py",
                  file=sys.stderr)
            return 1
        print(f"{target} is up to date")
        return 0
    target.write_text(text)
    print(f"wrote {target} ({len(out)} blocks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
