"""Per-layer spans recorded from outside the package.

Wrappers are installed on the public functions named in SPANS, in every
hyperdox module that binds them except those in UNWRAPPED_INSIDE, for the
traced passes only, and are removed afterwards. A call made while a span of the same name is open
(recursion, or satisfies_h calling sat_mask_h) runs unrecorded, so each
span is an outermost call. Self time is a span's duration minus the time
covered by the spans opened inside it. Generator functions are timed
inside next(): creating the stream counts one call, and every step of it
adds to the span's time.
"""

from __future__ import annotations

import sys
import threading
import time

# (span name, module, attribute); "Class.method" names a method.
SPANS = (
    ("cli.main", "hyperdox.cli", "main"),
    ("modelio.load_model", "hyperdox.modelio", "load_model"),
    ("modelio.load_proof", "hyperdox.modelio", "load_proof"),
    ("modelio.save_model", "hyperdox.modelio", "save_model"),
    ("formula.parse_formula", "hyperdox.formula", "parse_formula"),
    ("proofcheck.check_proof", "hyperdox.proofcheck", "check_proof"),
    ("proofcheck.is_tautology_instance", "hyperdox.proofcheck", "is_tautology_instance"),
    ("proofcheck.match_scheme", "hyperdox.proofcheck", "match_scheme"),
    ("proofcheck.instantiate_scheme", "hyperdox.proofcheck", "instantiate_scheme"),
    ("search.soundness_suite", "hyperdox.search", "soundness_suite"),
    ("search.countermodel", "hyperdox.search", "countermodel"),
    ("search.enumerate_models", "hyperdox.search", "enumerate_models"),
    ("search.scheme_instances", "hyperdox.search", "scheme_instances"),
    ("hypergraph.sat", "hyperdox.hypergraph", "sat_mask_h"),
    ("hypergraph.sat", "hyperdox.hypergraph", "satisfies_h"),
    ("hypergraph.accessibility", "hyperdox.hypergraph", "accessibility"),
    ("hypergraph.graph_metrics", "hyperdox.hypergraph", "graph_metrics"),
    ("hypergraph.induced_complex", "hyperdox.hypergraph", "induced_complex"),
    ("kripke.sat", "hyperdox.kripke", "KripkeModel.sat_mask"),
    ("kripke.sat", "hyperdox.kripke", "satisfies_k"),
    ("kripke.model_properties", "hyperdox.kripke", "model_properties"),
    ("convert.kripke_to_hypergraph", "hyperdox.convert", "kripke_to_hypergraph"),
    ("convert.hypergraph_to_kripke", "hyperdox.convert", "hypergraph_to_kripke"),
    ("convert.check_modal_equivalence", "hyperdox.convert", "check_modal_equivalence"),
    ("convert.enumerate_formulas", "hyperdox.convert", "enumerate_formulas"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
GENERATORS = {"search.enumerate_models", "convert.enumerate_formulas"}
# Calls made inside these modules stay unwrapped: in hypergraph they are
# sat_mask_h's recursion and its accessibility lookups, over a million per
# soundness pass, and wrapping them doubled the pass time.
UNWRAPPED_INSIDE = {"hyperdox.hypergraph"}
COUNTS = (
    "search.models",
    "search.structures",
    "search.models_to_witness",
    "proofcheck.taut_rows",
    "formula.chars_parsed",
    "convert.equiv_pairs",
)


def _skeleton(model):
    return tuple((tuple(sorted(e.tail)), tuple(sorted(e.head))) for e in model.edges)


class _ThreadState(threading.local):
    def __init__(self, tracer):
        self.open = dict.fromkeys(SPAN_NAMES, 0)
        self.stack = []  # [name, start, time covered by child spans]
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        # register the dicts, not self: reading self from another thread
        # would see that thread's state
        with tracer.lock:
            tracer.threads.append((self.calls, self.total, self.self_time))


class Tracer:
    """Span totals and counts for one traced pass; install() ... remove().

    Spans are kept per thread (countermodel with workers > 1 evaluates in
    a thread pool) and summed when the metrics are read.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.threads = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent = []
        self._state = _ThreadState(self)
        self._patches = []  # (owner, attribute, original)
        self._after = {
            "search.countermodel": self._count_witness,
            "formula.parse_formula": self._count_parsed,
            "convert.check_modal_equivalence": self._count_equiv,
        }

    # -- spans --

    def _enter(self, state, name):
        state.open[name] += 1
        state.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, state):
        name, start, covered = state.stack.pop()
        elapsed = time.perf_counter() - start
        state.open[name] -= 1
        state.total[name] += elapsed
        state.self_time[name] += elapsed - covered
        if state.stack:
            state.stack[-1][2] += elapsed

    def _wrap_call(self, name, fn):
        after = self._after.get(name)

        def traced(*args, **kwargs):
            state = self._state
            if state.open[name]:
                return fn(*args, **kwargs)
            state.calls[name] += 1
            self._enter(state, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(state)
            if after is not None:
                with self.lock:
                    after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        class Stream:
            def __init__(self, gen):
                self.gen = gen
                self.last = None

            def __iter__(self):
                return self

            def __next__(self):
                state = tracer._state
                tracer._enter(state, name)
                try:
                    item = next(self.gen)
                finally:
                    tracer._exit(state)
                if name == "search.enumerate_models":
                    tracer._count_model(self, item)
                return item

        def traced(*args, **kwargs):
            self._state.calls[name] += 1
            return Stream(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- counts --

    def _count_witness(self, args, result):
        if result.outcome == "countermodel":
            self.counts["search.models_to_witness"] += result.models_visited

    def _count_parsed(self, args, result):
        self.counts["formula.chars_parsed"] += len(args[0])

    def _count_equiv(self, args, report):
        self.counts["convert.equiv_pairs"] += report.checked

    def _count_model(self, stream, model):
        self.counts["search.models"] += 1
        skeleton = _skeleton(model)
        if skeleton != stream.last:
            self.counts["search.structures"] += 1
            stream.last = skeleton

    # -- install / remove --

    def install(self):
        """Wrap the listed functions where hyperdox modules bind them."""
        modules = [m for n, m in list(sys.modules.items()) if n == "hyperdox" or n.startswith("hyperdox.")]
        for name, module_name, attr in SPANS:
            module = sys.modules.get(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrap = self._wrap_generator if name in GENERATORS else self._wrap_call
            traced = wrap(name, fn)
            if owner:
                self._patch(holder, leaf, traced)
                continue
            for mod in modules:
                if mod.__name__ in UNWRAPPED_INSIDE:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def add_taut_rows(self, rows: int):
        self.counts["proofcheck.taut_rows"] += rows

    def metrics(self) -> dict:
        """Name -> (value, unit) for every span and count."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (sum(calls[name] for calls, _, _ in self.threads), "count")
            out[f"{name}.s"] = (sum(total[name] for _, total, _ in self.threads), "s")
            out[f"{name}.self_s"] = (sum(own[name] for _, _, own in self.threads), "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        structures = self.counts["search.structures"]
        ratio = self.counts["search.models"] / structures if structures else 0.0
        out["search.models_per_structure"] = (ratio, "ratio")
        out["trace.absent_spans"] = (len(self.absent), "count")
        return out
