"""Spans around the public functions of each dlecorr layer.

The tracer replaces module attributes (and FiniteDLE methods) with thin
wrappers.  A function is replaced in every dlecorr module that holds it,
so calls made inside the library (``verify_correspondence`` ->
``check_validity``, ``engine.trace_lines`` -> ``print_inequality``) are
recorded too.  Spans (name, start, end, parent) are kept in flat arrays
in memory and written out once, at the end of the run.

Self time of a span is its duration minus the durations of its direct
children; since spans nest on one thread, the self times of all spans
inside an interval add up to the traced time of that interval.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# layer -> (module, attribute) pairs; "FiniteDLE.x" names a method
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "parsing": (("parsing", "parse_inequality"), ("parsing", "parse_signature")),
    "printing": (("printing", "print_inequality"),),
    "classify": (("classify", "is_sahlqvist"), ("classify", "is_inductive"),
                 ("classify", "inductive_witnesses"),
                 ("classify", "meta_inductive_witnesses"),
                 ("classify", "is_meta_inductive")),
    "engine": (("engine", "run_alba"), ("engine", "is_safe"),
               ("engine", "trace_lines")),
    "generators": (("generators", "random_signature"),
                   ("generators", "random_inductive"),
                   ("generators", "phi_image")),
    "models.sweep": (("models", "enumerate_posets"),
                     ("models", "canonical_relations"),
                     ("models", "relational_lattices"),
                     ("models", "random_dle"),
                     ("models", "FiniteDLE.__init__")),
    "models.tables": tuple(("models", "FiniteDLE." + m) for m in (
        "role_table", "def_table", "black_table", "dot_adj_table",
        "residual_table", "arrow_table", "coimp_table")),
    "models.axioms": (("models", "role_axioms_hold"),),
    "models.checks": (("models", "check_validity"), ("models", "check_quasi"),
                      ("models", "verify_rule_step"),
                      ("models", "verify_correspondence")),
    "models.lemmas": (("models", "check_lemma_suite"),),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str | None] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.total_self_ns = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans -----------------------------------------------------------

    def _intern(self, name: str, layer: str | None) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_id[name]

    def enter(self, nid: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([idx, 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        idx, child_ns = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        nid = self.span_name[idx]
        layer = self.layer_of[nid]
        own = dur - child_ns
        if layer is None:  # the benchmark's own spans: time outside every layer
            key = self.names[nid]
            self.self_ns[key] = self.self_ns.get(key, 0) + own
            return
        self.self_ns[layer] = self.self_ns.get(layer, 0) + own
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.total_self_ns += own

    def span(self, name: str) -> "_Span":
        return _Span(self, self._intern(name, None))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of LAYERS in every loaded dlecorr module."""
        if not self._patches:
            self._patches = self._find_patches()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._patches:
            setattr(owner, key, orig)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        from dlecorr import models
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dlecorr" or name.startswith("dlecorr.")]
        patches = []
        for layer, funcs in LAYERS.items():
            for mod_name, attr in funcs:
                if attr.startswith("FiniteDLE."):
                    meth = attr.split(".", 1)[1]
                    orig = getattr(models.FiniteDLE, meth)
                    patches.append((models.FiniteDLE, meth, orig,
                                    self._wrap(orig, layer, "models." + attr)))
                    continue
                orig = getattr(sys.modules["dlecorr." + mod_name], attr)
                wrapped = self._wrap(orig, layer, f"{mod_name}.{attr}")
                for m in modules:
                    for key, value in vars(m).items():
                        if value is orig:
                            patches.append((m, key, orig, wrapped))
        return patches

    def _wrap(self, orig, layer: str, name: str):
        nid = self._intern(name, layer)
        hook = _HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(orig):
            def gen_wrapper(*args, **kwargs):
                it = orig(*args, **kwargs)
                while True:
                    tracer.enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.enter(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, result)
            return result
        return wrapper

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "layers": self.layer_of,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [list(row) for row in zip(
                self.span_name, self.span_start, self.span_end,
                self.span_parent)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.enter(self.nid)

    def __exit__(self, *exc):
        self.tracer.exit()


def _witnesses(tracer: Tracer, result) -> None:
    tracer.count("classify.witnesses", len(result))


def _run(tracer: Tracer, d) -> None:
    tracer.count("engine.runs")
    tracer.count("engine.nodes", len(d.nodes))
    if d.status.kind != "success":
        tracer.count("engine.failed_runs")


def _lattice(tracer: Tracer, _result) -> None:
    tracer.count("models.sweep.lattices")


def _axioms(tracer: Tracer, held: bool) -> None:
    tracer.count("models.axioms.kept", int(bool(held)))


_HOOKS = {
    "classify.inductive_witnesses": _witnesses,
    "classify.meta_inductive_witnesses": _witnesses,
    "engine.run_alba": _run,
    "models.FiniteDLE.__init__": _lattice,
    "models.role_axioms_hold": _axioms,
}


def layer_metrics(tracer: Tracer, valuations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    s = lambda layer: tracer.self_ns.get(layer, 0) / 1e9
    c = lambda layer: tracer.calls.get(layer, 0)
    k = lambda key: tracer.counts.get(key, 0)
    checks_s = s("models.checks")
    axioms = c("models.axioms")
    return {
        "parsing.calls": (c("parsing"), "count"),
        "parsing.self_s": (s("parsing"), "s"),
        "printing.calls": (c("printing"), "count"),
        "printing.self_s": (s("printing"), "s"),
        "classify.calls": (c("classify"), "count"),
        "classify.witnesses": (k("classify.witnesses"), "count"),
        "classify.self_s": (s("classify"), "s"),
        "engine.runs": (k("engine.runs"), "count"),
        "engine.failed_runs": (k("engine.failed_runs"), "count"),
        "engine.nodes": (k("engine.nodes"), "count"),
        "engine.self_s": (s("engine"), "s"),
        "generators.draws": (c("generators"), "count"),
        "generators.self_s": (s("generators"), "s"),
        "models.sweep.lattices": (k("models.sweep.lattices"), "count"),
        "models.sweep.self_s": (s("models.sweep"), "s"),
        "models.tables.calls": (c("models.tables"), "count"),
        "models.tables.self_s": (s("models.tables"), "s"),
        "models.axioms.calls": (axioms, "count"),
        "models.axioms.hold_ratio": (
            k("models.axioms.kept") / axioms if axioms else 0.0, "ratio"),
        "models.axioms.self_s": (s("models.axioms"), "s"),
        "models.checks.calls": (c("models.checks"), "count"),
        "models.checks.valuations": (valuations, "count"),
        "models.checks.valuations_per_s": (
            valuations / checks_s if checks_s else 0.0, "1/s"),
        "models.checks.self_s": (checks_s, "s"),
        "models.lemmas.lattices": (c("models.lemmas"), "count"),
        "models.lemmas.self_s": (s("models.lemmas"), "s"),
    }
