"""Outside-in tracing of the quasilang layers.

`install()` wraps every public function of each quasilang module, on its
defining module and on every quasilang module that imported it by name, and
the methods of `CyclotomicNumber`, `FactoredRational` and `FiniteGroup`.
Nothing under `src/` changes: the wrappers live here and are installed by
patching module and class attributes in the benchmark process.

Each wrapped call records a span (name, start, end, parent span, request id)
in flat in-memory arrays.  Cyclotomic arithmetic is too hot for one record
per call: its calls are counted per method, and the time of the outermost
cyclotomic call is summed per parent span.  `metrics()` turns the spans into
per-layer self times (a span's duration minus what its child spans and the
cyclotomic time under it cover) and work counts; `write()` dumps the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "langkit", "wordposet", "genfun", "cyclotomic", "grouptheory", "wreath", "segre")
CLASSES = {
    "cyclotomic": ("CyclotomicNumber",),
    "genfun": ("FactoredRational",),
    "grouptheory": ("FiniteGroup",),
}
# dunder methods that are part of a class's arithmetic interface
DUNDERS = {
    "CyclotomicNumber": (
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__pow__", "__eq__",
    ),
    "FactoredRational": ("__add__", "__mul__", "__neg__"),
    "FiniteGroup": (),
}
ADD_OPS = ("__add__", "__sub__", "__rsub__")  # __radd__ delegates to __add__
MUL_OPS = ("__mul__",)  # __rmul__ and __pow__ delegate to __mul__
CONSTRUCTORS = ("cyclic", "symmetric", "direct_product", "from_json")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # span i: name, parent (-1 for a root), request, start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.active = False  # only calls made while a request is in flight are traced
        self.request = -1
        self.counts: Counter = Counter()
        self.cyc_depth = 0
        self.cyc_time: dict[int, float] = defaultdict(float)  # parent span -> outermost cyclotomic time
        self.tabled: dict[int, set] = defaultdict(set)

    def name_id(self, name: str) -> int:
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, probe=None):
        nid = self.name_id(name)
        stack = self.stack
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    def cyclotomic(self, name: str, fn):
        counts = self.counts
        stack = self.stack
        cyc_time = self.cyc_time
        key = "cyclotomic." + name
        kind = "add" if name in ADD_OPS else "mul" if name in MUL_OPS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            if kind is not None:
                a, b = args[0], args[1]
                b_order = getattr(b, "order", 1)
                counts[f"cyclotomic.{kind}"] += 1
                if a.order == 1 and b_order == 1:
                    counts["cyclotomic.order1"] += 1
                if hasattr(b, "order") and b_order != a.order:
                    counts["cyclotomic.mixed_order"] += 1
            if self.cyc_depth:
                return fn(*args, **kwargs)
            self.cyc_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cyc_time[stack[-1] if stack else -1] += perf_counter() - start
                self.cyc_depth = 0

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.span_name)
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += self.span_end[i] - self.span_start[i]
        for p, t in self.cyc_time.items():
            if p >= 0:
                covered[p] += t
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.span_name[i]]] += self.span_end[i] - self.span_start[i] - covered[i]
        out["cyclotomic"] = sum(self.cyc_time.values())
        return out

    def span_counts(self) -> Counter:
        return Counter(self.names[i] for i in self.span_name)

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, parent, request, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    json.dumps(
                        [self.names[self.span_name[i]], self.span_parent[i], self.span_request[i],
                         round(self.span_start[i], 7), round(self.span_end[i], 7)]
                    )
                )
                fh.write("\n")


# ---------------------------------------------------------------------------
# probes: work counts read from a wrapped call's arguments and result


def _count(key, value_of):
    def probe(tracer, args, result):
        tracer.counts[key] += value_of(args, result)

    return probe


def _union_parts(expr) -> int:
    return len(expr.parts) if type(expr).__name__ == "Union" else 1


def _compile_ordered(tracer, args, result):
    tracer.counts["langkit.union_branches_in"] += _union_parts(args[0])
    tracer.counts["langkit.dfa_states_out"] += result.n_states


def _character_table(tracer, args, result):
    group = args[0]
    key = (group.name, group.order, hash(group.table))
    seen = tracer.tabled[tracer.request]
    if key in seen:
        tracer.counts["grouptheory.character_table.repeats"] += 1
    seen.add(key)


PROBES = {
    "langkit.compile_ordered": _compile_ordered,
    "wordposet.leq": _count("wordposet.leq.found", lambda a, r: r is not None),
    "wordposet.principal_ideal_language": _count(
        "wordposet.principal_ideal_language.branches_out", lambda a, r: _union_parts(r.ordered)
    ),
    "wordposet.fws_principal_series": _count(
        "wordposet.fws_principal_series.closed", lambda a, r: r[1] is not None
    ),
    "genfun.series_from_dfa": _count("genfun.series_from_dfa.coeffs_out", lambda a, r: len(r.coefficients)),
    "genfun.FactoredRational.expand": _count(
        "genfun.FactoredRational.expand.terms_out", lambda a, r: len(r.coefficients)
    ),
    "genfun.congruence_filter": _count("genfun.congruence_filter.factors_out", lambda a, r: len(r.factors)),
    "grouptheory.character_table": _character_table,
    "segre.segre_product": _count("segre.segre_product.simplices_out", lambda a, r: r.simplex_count()),
    "segre.boundary_matrix": _count(
        "segre.boundary_matrix.entries", lambda a, r: len(r) * (len(r[0]) if r else 0)
    ),
}
for _name in CONSTRUCTORS:
    PROBES[f"grouptheory.FiniteGroup.{_name}"] = _count("grouptheory.construct.elements", lambda a, r: r.order)


# ---------------------------------------------------------------------------
# installation


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def install() -> tuple[Tracer, Callable[[], None]]:
    """Patch the wrappers in; returns the tracer and a function that restores
    every patched attribute."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"quasilang.{layer}") for layer in LAYERS}
    package = importlib.import_module("quasilang")
    importers = list(modules.values()) + [package]
    undo = []

    def patch(owner, name, value):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    for layer, module in modules.items():
        for name, fn in list(_public_callables(module)):
            full = f"{layer}.{name}"
            if layer == "cyclotomic":
                wrapper = tracer.cyclotomic(name, fn)
            else:
                wrapper = tracer.span(full, fn, PROBES.get(full))
            for other in importers:
                if other.__dict__.get(name) is fn:
                    patch(other, name, wrapper)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name not in DUNDERS[cls_name]:
                    continue
                fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
                if not inspect.isfunction(fn):
                    continue
                full = f"{layer}.{cls_name}.{name}"
                if layer == "cyclotomic":
                    wrapper = tracer.cyclotomic(name, fn)
                else:
                    wrapper = tracer.span(full, fn, PROBES.get(full))
                if isinstance(attr, classmethod):
                    wrapper = classmethod(wrapper)
                elif isinstance(attr, staticmethod):
                    wrapper = staticmethod(wrapper)
                patch(cls, name, wrapper)

    def uninstall():
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return tracer, uninstall


# ---------------------------------------------------------------------------
# per-layer metrics


def _frac(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, resp_bytes: int) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts

    def t(name):
        return self_s.get(name, 0.0)

    out = {
        "cli.execute_request.self_s": t("cli.execute_request"),
        "cli.dumps.self_s": t("cli.dumps"),
        "cli.resp_bytes": resp_bytes,
        "langkit.compile_ordered.calls": calls["langkit.compile_ordered"],
        "langkit.compile_ordered.self_s": t("langkit.compile_ordered"),
        "langkit.union_branches_in": counts["langkit.union_branches_in"],
        "langkit.dfa_states_out": counts["langkit.dfa_states_out"],
        "langkit.compile_quasi_ordered.self_s": t("langkit.compile_quasi_ordered"),
        "langkit.intersect_dfa.self_s": t("langkit.intersect_dfa"),
        "langkit.membership.calls": calls["langkit.membership"],
        "wordposet.leq.calls": calls["wordposet.leq"],
        "wordposet.leq.self_s": t("wordposet.leq"),
        "wordposet.leq.found_frac": _frac(counts["wordposet.leq.found"], calls["wordposet.leq"]),
        "wordposet.principal_ideal_language.self_s": t("wordposet.principal_ideal_language"),
        "wordposet.principal_ideal_language.branches_out": counts["wordposet.principal_ideal_language.branches_out"],
        "wordposet.minimal_words_over.self_s": t("wordposet.minimal_words_over"),
        "wordposet.fws_principal_series.self_s": t("wordposet.fws_principal_series"),
        "wordposet.fws_principal_series.closed_frac": _frac(
            counts["wordposet.fws_principal_series.closed"], calls["wordposet.fws_principal_series"]
        ),
        "genfun.series_from_dfa.self_s": t("genfun.series_from_dfa"),
        "genfun.series_from_dfa.coeffs_out": counts["genfun.series_from_dfa.coeffs_out"],
        "genfun.certify_unambiguous.self_s": t("genfun.certify_unambiguous"),
        "genfun.FactoredRational.expand.self_s": t("genfun.FactoredRational.expand"),
        "genfun.FactoredRational.expand.terms_out": counts["genfun.FactoredRational.expand.terms_out"],
        "genfun.congruence_filter.self_s": t("genfun.congruence_filter"),
        "genfun.congruence_filter.factors_out": counts["genfun.congruence_filter.factors_out"],
        "cyclotomic.add.calls": counts["cyclotomic.add"],
        "cyclotomic.mul.calls": counts["cyclotomic.mul"],
        "cyclotomic.inverse.calls": counts["cyclotomic.inverse"],
        "cyclotomic.lift.calls": counts["cyclotomic.lift"],
        "cyclotomic.order1_frac": _frac(
            counts["cyclotomic.order1"], counts["cyclotomic.add"] + counts["cyclotomic.mul"]
        ),
        "cyclotomic.mixed_order_frac": _frac(
            counts["cyclotomic.mixed_order"], counts["cyclotomic.add"] + counts["cyclotomic.mul"]
        ),
        "grouptheory.construct.self_s": sum(t(f"grouptheory.FiniteGroup.{c}") for c in CONSTRUCTORS),
        "grouptheory.construct.elements": counts["grouptheory.construct.elements"],
        "grouptheory.character_table.calls": calls["grouptheory.character_table"],
        "grouptheory.character_table.self_s": t("grouptheory.character_table"),
        "grouptheory.character_table.repeat_frac": _frac(
            counts["grouptheory.character_table.repeats"], calls["grouptheory.character_table"]
        ),
        "grouptheory.restriction_matrix.self_s": t("grouptheory.restriction_matrix"),
        "grouptheory.is_good_family.self_s": t("grouptheory.is_good_family"),
        "grouptheory.smith_normal_form.self_s": t("grouptheory.smith_normal_form"),
        "wreath.wreath_irreducible_character.calls": calls["wreath.wreath_irreducible_character"],
        "wreath.wreath_irreducible_character.self_s": t("wreath.wreath_irreducible_character"),
        "wreath.wreath_inner_product.calls": calls["wreath.wreath_inner_product"],
        "wreath.wreath_inner_product.self_s": t("wreath.wreath_inner_product"),
        "wreath.diag_induced_series.self_s": t("wreath.diag_induced_series"),
        "wreath.tensor_stability_table.self_s": t("wreath.tensor_stability_table"),
        "segre.segre_product.self_s": t("segre.segre_product"),
        "segre.segre_product.simplices_out": counts["segre.segre_product.simplices_out"],
        "segre.homology_ranks.self_s": t("segre.homology_ranks"),
        "segre.boundary_matrix.calls": calls["segre.boundary_matrix"],
        "segre.boundary_matrix.entries": counts["segre.boundary_matrix.entries"],
        "segre.check_boundary_squares_to_zero.calls": calls["segre.check_boundary_squares_to_zero"],
        "segre.check_boundary_squares_to_zero.self_s": t("segre.check_boundary_squares_to_zero"),
        "segre.equivariant_trace.calls": calls["segre.equivariant_trace"],
        "segre.equivariant_trace.self_s": t("segre.equivariant_trace"),
        "segre.equivariant_hilbert_data.self_s": t("segre.equivariant_hilbert_data"),
    }
    for layer in LAYERS:
        if layer != "cyclotomic":
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["cyclotomic.self_s"] = self_s["cyclotomic"]
    out["trace.spans"] = len(tracer.span_name)
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric == "trace.overhead":
        return "ratio"
    if metric == "cli.resp_bytes":
        return "bytes"
    return "count"


def dominant_layer(layer_metrics: dict) -> str:
    return max(LAYERS, key=lambda layer: layer_metrics[f"{layer}.self_s"])
