"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``genrep`` module and
re-binds every name that refers to them in every loaded ``genrep`` module,
because modules import each other's functions by name (``from .gvalue
import value_size``); re-binding only the defining module would miss those
calls. ``uninstall`` puts the originals back, so untraced code never runs a
wrapper.

A span is (layer, start, end, parent). A call into a layer whose innermost
open span is the same layer runs unwrapped, so recursion inside one layer is
one span and ``calls`` counts entries into the layer. Spans stay in memory
until the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import subprocess
import sys
import time
from array import array
from collections import defaultdict

from depth import OPS as DEPTH_OPS
from sweep import PINNED

ENUM_UNIVERSES = ("regular", "polyp", "multirec", "indexed", "instant")
CONFORM_UNIVERSES = ENUM_UNIVERSES
MAP_UNIVERSES = ("indexed", "regular", "polyp", "multirec")
ARROWS = ("r-p", "r-m", "p-i", "m-i", "i-ig")
MODULES = (
    "genrep", "gvalue", "regular", "polyp", "multirec", "indexed", "instant",
    "embed", "corpus", "dsl", "oracle", "cli",
)

# (module, function, layer); "suite" and "arrow" layers are resolved per call.
_SPANNED = [
    ("oracle", "enum_regular", "oracle.enum.regular"),
    ("oracle", "enum_mu_regular", "oracle.enum.regular"),
    ("oracle", "enum_polyp", "oracle.enum.polyp"),
    ("oracle", "enum_mu_polyp", "oracle.enum.polyp"),
    ("oracle", "enum_multirec", "oracle.enum.multirec"),
    ("oracle", "enum_mu_multirec", "oracle.enum.multirec"),
    ("oracle", "enum_indexed", "oracle.enum.indexed"),
    ("oracle", "enum_instant", "oracle.enum.instant"),
    ("oracle", "run_property", "suite"),
    ("indexed", "map_i", "indexed.map"),
    ("regular", "map_r", "regular.map"),
    ("polyp", "map_p", "polyp.map"),
    ("polyp", "pmap", "polyp.map"),
    ("multirec", "map_m", "multirec.map"),
    ("gvalue", "value_size", "gvalue.size"),
    ("gvalue", "print_value", "gvalue.print"),
    ("regular", "conform_r", "regular.conform"),
    ("regular", "conform_mu_r", "regular.conform"),
    ("polyp", "conform_p", "polyp.conform"),
    ("polyp", "conform_mu_p", "polyp.conform"),
    ("multirec", "conform_m", "multirec.conform"),
    ("multirec", "conform_mu_m", "multirec.conform"),
    ("indexed", "conform_i", "indexed.conform"),
    ("instant", "conform_ig", "instant.conform"),
    ("embed", "convert_r_p", "embed.convert.r-p"),
    ("embed", "convert_r_m", "embed.convert.r-m"),
    ("embed", "convert_p_i", "embed.convert.p-i"),
    ("embed", "convert_m_i", "embed.convert.m-i"),
    ("embed", "convert_i_ig", "embed.convert.i-ig"),
    # Private walkers of the arrows: their spans give the walk's own time to
    # the arrow that runs it, not to the map or lift it calls back through.
    ("embed", "_walk_mu_r", "arrow"),
    ("embed", "_from_mu_p", "arrow"),
    ("embed", "_to_mu_p", "arrow"),
    ("embed", "_from_p", "arrow"),
    ("embed", "_to_p", "arrow"),
    ("embed", "_walk_mu_m", "arrow"),
    ("embed", "_from_ig", "arrow"),
    ("embed", "_to_ig", "arrow"),
    ("embed", "lift_r_to_p", "embed.lift"),
    ("embed", "lift_r_to_m", "embed.lift"),
    ("embed", "lift_p_to_i", "embed.lift"),
    ("embed", "lift_m_to_i", "embed.lift"),
    ("embed", "lift_i_to_ig", "embed.lift"),
    ("embed", "fix_p_code", "embed.lift"),
    ("embed", "fix_m_code", "embed.lift"),
    ("embed", "compose_path", "embed.compose_path"),
    ("dsl", "parse_value", "dsl.parse"),
    ("dsl", "parse_code", "dsl.parse"),
    ("dsl", "parse_env", "dsl.parse"),
    ("dsl", "parse_label", "dsl.parse"),
    ("dsl", "print_code", "dsl.print"),
    ("dsl", "print_env", "dsl.print"),
    ("cli", "run_cli", "cli.run"),
]

# Functions counted but not timed: they run far too often for a span each.
_COUNTED = [
    ("gvalue", "label", "gvalue.label"),
    ("gvalue", "left", "gvalue.label"),
    ("gvalue", "right", "gvalue.label"),
]

# Which argument of a public conversion is the value being converted.
_VALUE_ARG = {
    "embed.convert.r-p": 1,
    "embed.convert.r-m": 1,
    "embed.convert.p-i": 1,
    "embed.convert.m-i": 2,
    "embed.convert.i-ig": 3,
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for u in ENUM_UNIVERSES:
        names += [f"oracle.enum.{u}.calls", f"oracle.enum.{u}.self_s", f"oracle.enum.{u}.values"]
    names += [f"oracle.suite.{s}.s" for s in PINNED]
    for u in MAP_UNIVERSES:
        names += [f"{u}.map.calls", f"{u}.map.self_s"]
    names += ["gvalue.label.calls", "gvalue.size.calls", "gvalue.size.self_s",
              "gvalue.print.calls", "gvalue.print.self_s", "gvalue.eq.calls", "gvalue.eq.self_s"]
    for u in CONFORM_UNIVERSES:
        names += [f"{u}.conform.calls", f"{u}.conform.self_s"]
    for a in ARROWS:
        names += [f"embed.convert.{a}.calls", f"embed.convert.{a}.self_s", f"embed.convert.{a}.nodes"]
    names += ["embed.lift.calls", "embed.lift.self_s",
              "embed.compose_path.calls", "embed.compose_path.self_s",
              "dsl.parse.calls", "dsl.parse.self_s", "dsl.parse.bytes",
              "dsl.print.calls", "dsl.print.self_s", "dsl.print.bytes"]
    names += [f"import.{m}_s" for m in MODULES]
    names += ["cli.run.calls", "cli.run.self_s", "trace.overhead", "trace.coverage"]
    names += [f"depth.{op}" for op in DEPTH_OPS]
    return names


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._arrows: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.amount: dict[str, int] = defaultdict(int)  # values, bytes
        self.converted: dict[str, list] = defaultdict(list)  # nodes, counted later
        self._rebound: list[tuple[object, str, object]] = []

    def _id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def span(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer`` (or inside the open one)."""
        lid = self._id(layer)
        if self._open and self.layer_of[self._open[-1]] == lid:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.layer_of.append(lid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._open.pop()

    def _spanned(self, fn, layer: str):
        tracer = self

        if layer == "suite":
            def wrapper(name, *args, **kwargs):
                return tracer.span(f"oracle.suite.{name}", fn, name, *args, **kwargs)
        elif layer == "arrow":
            def wrapper(*args, **kwargs):
                if not tracer._arrows:
                    return fn(*args, **kwargs)
                return tracer.span(tracer._arrows[-1], fn, *args, **kwargs)
        elif layer in _VALUE_ARG:
            position = _VALUE_ARG[layer]

            def wrapper(*args, **kwargs):
                tracer.calls[layer] += 1
                tracer.converted[layer].append(
                    args[position] if len(args) > position else kwargs["v"])
                tracer._arrows.append(layer)
                try:
                    return tracer.span(layer, fn, *args, **kwargs)
                finally:
                    tracer._arrows.pop()
        else:
            def wrapper(*args, **kwargs):
                outer = tracer._open and tracer.layers[tracer.layer_of[tracer._open[-1]]] == layer
                result = tracer.span(layer, fn, *args, **kwargs)
                if not outer:
                    tracer.calls[layer] += 1
                    tracer._account(layer, args, result)
                return result
        return wrapper

    def _account(self, layer: str, args, result) -> None:
        if layer.startswith("oracle.enum."):
            self.amount[layer + ".values"] += len(result)
        elif layer == "dsl.parse":
            text = args[1] if len(args) > 1 else args[0]
            self.amount["dsl.parse.bytes"] += len(text.encode())
        elif layer == "dsl.print":
            self.amount["dsl.print.bytes"] += len(result.encode())

    def _counted(self, fn, layer: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function and re-bind it in every genrep module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "genrep" or name.startswith("genrep."))]
        for table, make in ((_SPANNED, self._spanned), (_COUNTED, self._counted)):
            for module, name, layer in table:
                original = getattr(sys.modules.get(f"genrep.{module}"), name, None)
                if original is None:  # renamed or removed by a later change
                    continue
                wrapper = make(original, layer)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: duration minus the children's durations."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.layers[self.layer_of[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            if self.parent[i] < 0 or self.layer_of[self.parent[i]] != self.layer_of[i]:
                out[self.layers[self.layer_of[i]]] += self.end[i] - self.start[i]
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated (layer, start, end, parent index)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("layer\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{self.layers[self.layer_of[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def layer_metrics(tracer: Tracer, rounds: int, count_nodes) -> dict[str, float]:
    """The span- and counter-derived metrics, per round of the workload."""
    selfs = tracer.self_times()
    incl = tracer.inclusive_times()
    out: dict[str, float] = {}
    for name in layer_metric_names():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            value = tracer.calls.get(base, 0)
        elif kind == "self_s":
            value = selfs.get(base, 0.0)
        elif kind in ("values", "bytes"):
            value = tracer.amount.get(name, 0)
        elif kind == "nodes":
            value = sum(count_nodes(v) for v in tracer.converted.get(base, ()))
        elif kind == "s" and base.startswith("oracle.suite."):
            value = incl.get(base, 0.0)
        else:
            continue
        out[name] = value / rounds
    return out


# ---------------------------------------------------------------------------
# import time, from a child interpreter


def import_times(python: str, env: dict, cwd: str, repeats: int = 3) -> dict[str, float]:
    """Median self import seconds of each genrep module under -X importtime."""
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import genrep"],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            module = fields[2].strip()
            if module == "genrep" or module.startswith("genrep."):
                short = module.rpartition(".")[2] if "." in module else module
                samples[short].append(int(fields[0]) / 1e6)
    out = {}
    for m in MODULES:
        values = sorted(samples.get(m, [0.0]))
        out[f"import.{m}_s"] = values[len(values) // 2]
    return out


def unit_of(name: str) -> str:
    kind = name.rpartition(".")[2]
    if kind.endswith("_s") or kind == "s":
        return "s"
    if kind == "bytes":
        return "bytes"
    if name in ("trace.overhead", "trace.coverage"):
        return "ratio"
    return "count"
