"""Call tracer for the bcoslab benchmark, installed from outside the program.

``Tracer.install`` wraps the public functions, the constructors of the
public classes and their public methods in bcoslab's modules. A function is
re-bound in every bcoslab namespace that holds it, because callers look names
up where they imported them: ``analysis`` does ``from .optim import step``,
so wrapping ``bcoslab.optim.step`` alone would record nothing. Methods and
constructors are wrapped on their class, which every caller goes through.

Each call becomes one span (name, start, end, parent span, run id) kept in
memory; ``dump`` writes them out when the traced command ends and ``load``
reads them back. Self time is derived from the spans by the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

MODULES = ("problems", "optim", "core", "schedules", "analysis", "cli")

# Work counted per call, from the bound arguments and the result: Monte Carlo
# draws for the samplers, bytes of text for the output writers.
AMOUNTS = {
    "problems.NoisyQuadratic.sample_gradients": lambda args, result: args["size"],
    "analysis.estimator_stats": lambda args, result: args["n_mc"],
    "cli.curve_csv": lambda args, result: len(result.encode()),
    "cli.write_outputs": lambda args, result: sum(
        len(text.encode()) for text in args["named_texts"].values()
    ),
}


class Tracer:
    """Spans of one traced command; single-threaded, like the CLI run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.amounts: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        measure = AMOUNTS.get(name)
        signature = inspect.signature(fn) if measure else None
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = t0
                stack.pop()
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.amounts[name] = self.amounts.get(name, 0) + measure(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("bcoslab")
        modules = {short: importlib.import_module(f"bcoslab.{short}") for short in MODULES}
        namespaces = [vars(package)] + [vars(mod) for mod in modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self.wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                ns[key] = traced
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{short}.{attr}", obj)

    def _wrap_class(self, prefix: str, cls) -> None:
        for key, member in list(vars(cls).items()):
            if key == "__init__":
                setattr(cls, key, self.wrap(prefix, member))
            elif key.startswith("_"):
                continue
            elif isinstance(member, (staticmethod, classmethod)):
                setattr(cls, key, type(member)(self.wrap(f"{prefix}.{key}", member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, key, self.wrap(f"{prefix}.{key}", member))

    def dump(self, path: str) -> None:
        """One JSON header line (run id, span names, counted work, span
        count), then the raw name and parent arrays (int32) and the start and
        end arrays (float64, perf_counter seconds) in native byte order."""
        header = {"run_id": self.run_id, "names": self.names,
                  "amounts": self.amounts, "count": len(self.name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def load(path: str) -> dict:
    """Read what ``Tracer.dump`` wrote: the header plus the four columns."""
    with open(path, "rb") as fh:
        spans = json.loads(fh.readline())
        for key, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
            column = array(code)
            column.fromfile(fh, spans["count"])
            spans[key] = column
    return spans
