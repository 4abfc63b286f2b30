"""Spans around the calls into each obd layer, recorded from outside it.

Nothing under ``src/obd`` knows about tracing.  ``Tracer.install`` replaces
the public names listed in LAYER_CALLS with timing wrappers at their call
sites: a module-level function is replaced in every ``obd`` module that
binds it (so ``obd.logic.linear_relation`` is wrapped where the compiler
looks it up), a method is replaced on its class.  ``uninstall`` puts the
originals back, so untraced passes run the unmodified code.

Spans are kept in memory as (name, start_ns, end_ns, parent index,
request id) and written out when the run ends.  A top-level span starts a
new request id; its descendants share it.  A span's self time is its
duration minus the durations of its direct children, which never overlap
because the program is single-threaded.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

KERNELS = ("min_blocks", "pair_product", "trim", "quotient", "bfs_renumber",
           "determinize", "walk")

# span name -> (module, class or None, attribute)
LAYER_CALLS = {f"kernels.{k}": ("obd._kernels", None, k) for k in KERNELS}
LAYER_CALLS.update({
    f"automata.{m}": ("obd.automata", "Automaton", m)
    for m in ("product", "project", "lift", "permute_tracks",
              "accepts_values", "function_value", "to_text")})
LAYER_CALLS.update({
    "logic.parse_formula": ("obd.logic", None, "parse_formula"),
    "logic.compile_formula": ("obd.logic", None, "compile_formula"),
    "relations.linear_relation": ("obd.relations", None, "linear_relation"),
    "relations.inequality_relation": ("obd.relations", None,
                                      "inequality_relation"),
    "relations.canonical_recognizer": ("obd.relations", None,
                                       "canonical_recognizer"),
    "regexlang.regex_compile": ("obd.regexlang", None, "regex_compile"),
    "session.execute": ("obd.session", "Session", "execute"),
    "session.load": ("obd.session", "Session", "load"),
    "session.word_value": ("obd.session", None, "word_value"),
    "numeration.encode": ("obd.numeration", "NumerationSystem", "encode"),
    "numeration.pad_parallel": ("obd.numeration", "NumerationSystem",
                                "pad_parallel"),
})

# spans that stand for one user request; they must cover the pass
TOP_LEVEL = ("session.execute", "query.request")


def _states_built(result) -> int:
    return int(result[0].size) - 1  # CSR indptr has one entry per state + 1


class Tracer:
    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0
        self.counters = {"kernels.pair_product.states_built": 0,
                         "kernels.determinize.states_built": 0,
                         "canonical.states_in": 0, "canonical.states_out": 0,
                         "automata.max_states": 0}
        self._saved: list = []

    # -- manual spans --------------------------------------------------------

    def begin(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:
            self.request += 1
        self.stack.append(len(self.spans))
        self.spans.append([name, self.clock_ns(), 0, parent, self.request])

    def end(self):
        self.spans[self.stack.pop()][2] = self.clock_ns()

    def take(self) -> list:
        """Hand over the spans recorded so far; start afresh, counters too."""
        spans, self.spans = self.spans, []
        for key in self.counters:
            self.counters[key] = 0
        return spans

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        begin, end = self.begin, self.end
        counter = f"{name}.states_built"
        counts = counter in self.counters

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if counts:
                self.counters[counter] += _states_built(result)
            return result
        return traced

    def _wrap_canonical(self, fn):
        counters = self.counters

        def canonical(aut):
            out = fn(aut)
            counters["canonical.states_in"] += aut.n_states
            counters["canonical.states_out"] += out.n_states
            if aut.n_states > counters["automata.max_states"]:
                counters["automata.max_states"] = aut.n_states
            return out
        return canonical

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every name in LAYER_CALLS at its call sites."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "obd" or n.startswith("obd.")) and m is not None]
        for name, (module, cls, attr) in LAYER_CALLS.items():
            home = sys.modules[module]
            if cls is None:
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapped)
                continue
            owner = getattr(home, cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr,
                            classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(owner, attr, self._wrap(name, raw))
        automaton = sys.modules["obd.automata"].Automaton
        self._patch(automaton, "_canonical",
                    self._wrap_canonical(automaton.__dict__["_canonical"]))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- reduction ---------------------------------------------------------------


def layer_totals(spans) -> dict:
    """name -> [calls, total ns, self ns] over the given spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = totals.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
    return totals


def top_level_ns(spans) -> int:
    return sum(end - start for name, start, end, parent, _ in spans
               if parent < 0 and name in TOP_LEVEL)


def per_layer_metrics(pass_spans, setup_spans, counters, pass_times,
                      scale) -> dict:
    """Per-layer metrics, normalised to one pass (compile: one run of the
    script; query: one block of requests).  ``pass_times`` are the traced
    passes' times; times are multiplied by ``scale``, their mean factor to
    reference speed."""
    passes = len(pass_times)
    totals = layer_totals(pass_spans)
    setup = layer_totals(setup_spans)

    def calls(name):
        return totals.get(name, [0, 0, 0])[0] / passes

    def self_ns(name):
        return totals.get(name, [0, 0, 0])[2] * scale / passes

    def total_ns(name):
        return totals.get(name, [0, 0, 0])[1] * scale / passes

    m = {}
    for k in KERNELS:
        key = f"kernels.{k}"
        if k == "walk":
            m[f"{key}.self_us"] = self_ns(key) / 1e3
        else:
            m[f"{key}.self_ms"] = self_ns(key) / 1e6
        m[f"{key}.calls"] = calls(key)
    for k in ("pair_product", "determinize"):
        m[f"kernels.{k}.states_built"] = (
            counters[f"kernels.{k}.states_built"] / passes)
    built = counters["canonical.states_in"]
    m["kernels.kept_state_ratio"] = (
        counters["canonical.states_out"] / built if built else 0.0)
    for k in ("product", "project", "lift", "permute_tracks"):
        m[f"automata.{k}.self_ms"] = self_ns(f"automata.{k}") / 1e6
        m[f"automata.{k}.calls"] = calls(f"automata.{k}")
    m["automata.max_states"] = counters["automata.max_states"]
    m["automata.to_text.ms"] = total_ns("automata.to_text") / 1e6
    m["logic.parse_formula.ms"] = total_ns("logic.parse_formula") / 1e6
    for key in ("logic.compile_formula", "relations.linear_relation",
                "relations.inequality_relation",
                "relations.canonical_recognizer", "session.execute"):
        m[f"{key}.self_ms"] = self_ns(key) / 1e6
        m[f"{key}.calls"] = calls(key)
    m["regexlang.regex_compile.ms"] = total_ns("regexlang.regex_compile") / 1e6
    m["session.load.ms"] = setup.get("session.load", [0, 0, 0])[1] * scale / 1e6
    for key in ("numeration.encode", "numeration.pad_parallel"):
        m[f"{key}.self_us"] = self_ns(key) / 1e3
        m[f"{key}.calls"] = calls(key)
    for key in ("automata.accepts_values", "automata.function_value",
                "session.word_value"):
        m[f"{key}.self_us"] = self_ns(key) / 1e3
    m["trace.coverage"] = top_level_ns(pass_spans) / 1e9 / sum(pass_times)
    return m


def dump(path: Path, header: dict, phases: dict):
    """Write the spans as gzip'd JSON lines: a header, then one span per
    line tagged with its phase."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for phase, spans in phases.items():
            for span in spans:
                fh.write(json.dumps([phase] + list(span)) + "\n")
