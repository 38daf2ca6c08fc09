"""Per-layer tracing of hallwalk from outside the package.

`Tracer.install` replaces the public functions listed in PROBES, in every
hallwalk module that holds them, by wrappers that record one span per call
(name, start, end, parent) and add the call's work counts from its
arguments and result.  `Tracer.remove` puts the originals back.  Spans stay
in memory until `write` is called at the end of a run.

LEAVES are called too often to keep a span each (`certify` makes about
90,000 determinant calls per round): their time is added to the calling
span's child time and to the layer's total instead.
"""

import json
import sys
from collections import Counter
from math import prod
from time import perf_counter


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _inversion_seqs(args, kwargs, result):
    return {"delta.inversion_seqs": prod(_arg(args, kwargs, 0, "s"))}


def _dilated_seqs(args, kwargs, result):
    # a confirmed index c means delta_vector ran on c*s, which has c^d * prod(s) sequences
    s = _arg(args, kwargs, 0, "s")
    return {"classify.dilated_seqs": result ** len(s) * prod(s) if result else 0}


def _points(args, kwargs, result):
    return {"polytope.points": len(result)}


def _sumset(args, kwargs, result):
    lower = _arg(args, kwargs, 1, "lower")
    ground = _arg(args, kwargs, 2, "ground")
    return {"idp.sums_formed": len(lower) * len(ground),
            "idp.targets": len(_arg(args, kwargs, 0, "targets"))}


def _cells(args, kwargs, result):
    return {"triangulate.cells": len(result.simplices)}


def _samples(args, kwargs, result):
    return {"triangulate.samples": getattr(result, "samples_checked", 0)}


# (module, function, counter hook); a span is named "module.function"
PROBES = (
    ("cli", "main", None),
    ("delta", "delta_vector", _inversion_seqs),
    ("classify", "classify", None),
    ("classify", "gorenstein_index", _dilated_seqs),
    ("ehrhart", "count", None),
    ("polytope", "lattice_points", _points),
    ("idp", "is_idp", None),
    ("idp", "first_undecomposable", _sumset),
    ("freesum", "gorenstein_compose", None),
    ("freesum", "idp_compose", None),
    ("triangulate", "chimney_triangulation", _cells),
    ("triangulate", "verify_triangulation", _samples),
    ("intlinalg", "determinant", None),
)
LEAVES = ("intlinalg.determinant",)

# per-layer metric -> (kind, span names): "self" subtracts child spans,
# "total" sums the outermost spans of those names
TIMED = {
    "cli.self_s": ("self", ("cli.main",)),
    "delta.delta_vector_s": ("total", ("delta.delta_vector",)),
    "classify.self_s": ("self", ("classify.classify",)),
    "classify.gorenstein_index_s": ("total", ("classify.gorenstein_index",)),
    "ehrhart.count_s": ("total", ("ehrhart.count",)),
    "polytope.lattice_points_s": ("total", ("polytope.lattice_points",)),
    "idp.is_idp_s": ("total", ("idp.is_idp",)),
    "idp.sumset_s": ("total", ("idp.first_undecomposable",)),
    "freesum.compose_s": ("total", ("freesum.gorenstein_compose", "freesum.idp_compose")),
    "triangulate.build_s": ("total", ("triangulate.chimney_triangulation",)),
    "triangulate.verify_s": ("total", ("triangulate.verify_triangulation",)),
    "intlinalg.determinant_s": ("total", ("intlinalg.determinant",)),
}
COUNTED = (
    "delta.inversion_seqs",
    "classify.dilated_seqs",
    "ehrhart.count_calls",
    "ehrhart.refused",
    "polytope.points",
    "idp.sums_formed",
    "idp.targets",
    "triangulate.cells",
    "triangulate.samples",
    "intlinalg.determinant_calls",
)


class Tracer:
    def __init__(self, refusal_error):
        self.refusal_error = refusal_error
        self.spans = []  # [name, start, end, parent index, outermost of its name, op, child time]
        self.counts = Counter()
        self.leaf_time = Counter()
        self._stack = []
        self._depth = Counter()
        self._patched = []
        self._op = None

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hallwalk" or name.startswith("hallwalk.")}
        for module, func, hook in PROBES:
            original = getattr(modules["hallwalk." + module], func)
            wrapper = self._wrap(f"{module}.{func}", original, hook)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def op(self, name, call):
        """Run call() as the root span of one benchmark operation."""
        self._op = len(self.spans)
        return self._wrap("op." + name, call, None)()

    def _wrap(self, name, fn, hook):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        refusal_error = self.refusal_error

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0, self._op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusal_error:
                if name == "ehrhart.count":
                    counts["ehrhart.refused"] += 1
                raise
            finally:
                span[2] = perf_counter()
                depth[name] -= 1
                stack.pop()
                if stack:
                    spans[stack[-1]][6] += span[2] - span[1]
                if name == "ehrhart.count":
                    counts["ehrhart.count_calls"] += 1
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        return wrapper

    def _wrap_leaf(self, name, fn):
        spans, stack, counts, leaf_time = self.spans, self._stack, self.counts, self.leaf_time
        calls = name + "_calls"

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                leaf_time[name] += seconds
                counts[calls] += 1
                if stack:
                    spans[stack[-1]][6] += seconds

        return wrapper

    def metrics(self, rounds):
        """Per-round per-layer metrics."""
        values = {}
        for metric, (kind, names) in TIMED.items():
            total = sum(self.leaf_time[name] for name in names)
            for name, start, end, _, outermost, _, child in self.spans:
                if name in names:
                    if kind == "self":
                        total += end - start - child
                    elif outermost:
                        total += end - start
            values[metric] = total / rounds
        for metric in COUNTED:
            values[metric] = self.counts[metric] / rounds
        return values

    def write(self, path):
        with open(path, "w") as sink:
            for n, (name, start, end, parent, _, op, _) in enumerate(self.spans):
                sink.write(json.dumps({"id": n, "parent": parent, "op": op, "name": name,
                                       "start": start, "end": end}) + "\n")
