"""Every name the benchmark's tracer wraps still exists in obd.

perfbench/tracing.py replaces the functions and methods in its
LAYER_CALLS table with timing wrappers; a traced run stops with an error
when one of them has moved or been renamed.  This checks the table
against the code, reading perfbench/ without changing it.  It also
counts the states a product or subset construction builds from the
kernel's return value, its row offsets, so that reading is checked
against the kernels' rows, and installs the tracer around two compiles,
of period length 1 and 2, to check its counters against counts taken
here.
"""
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from obd import _kernels as K
from obd import relations
from obd.automata import Automaton
from obd.repro import SCRIPT_DIR
from obd.session import Session, split_commands

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_calls_resolve():
    layer_calls = load_tracing().LAYER_CALLS
    assert layer_calls
    missing = []
    for span, (module, cls, attr) in layer_calls.items():
        home = importlib.import_module(module)
        if cls is None:
            found = callable(getattr(home, attr, None))
        else:
            # the tracer patches methods through the class __dict__
            owner = getattr(home, cls, None)
            found = owner is not None and attr in owner.__dict__
        if not found:
            missing.append(f"{span}: {module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []


def test_states_built_counts_output_states():
    states_built = load_tracing()._states_built
    # two machines of two states over the letters 0 and 1
    a = ([(0, 1), (1,)], [[1, 0], [1]], [0, 1])
    b = ([(0, 1), (0,)], [[0, 1], [0]], [1, 0])
    for mode in range(4):
        out = K.pair_product(*a, 0, *b, 0, mode)
        assert states_built(out) == len(out[3]) == len(out[1]) == len(out[2]) > 2
    # both letters read as 1, so the start set {0} has no zero letter to
    # close over: the subsets {0} and {0, 1}
    out = K.determinize(*a, [0], (1, 1))
    assert states_built(out) == len(out[3]) == len(out[1]) == len(out[2]) == 2


def patched_names(layer_calls):
    """Every name the tracer may replace, by where it is bound."""
    names = {}
    for module, cls, attr in layer_calls.values():
        if cls is None:
            for name, mod in list(sys.modules.items()):
                if (name == "obd" or name.startswith("obd.")) and mod is not None \
                        and attr in mod.__dict__:
                    names[name, attr] = mod.__dict__[attr]
        else:
            owner = getattr(importlib.import_module(module), cls)
            names[module, cls, attr] = owner.__dict__[attr]
    names["_canonical"] = Automaton.__dict__["_canonical"]
    return names


def counted_compile(monkeypatch, commands):
    """Run `commands`, (command, terminator) pairs, in a fresh session
    under the tracer, with the kernels, the linear atoms' walk and
    ``Automaton._canonical`` wrapped here first to count what they return
    and are given.  Checks the tracer's state counters against those
    counts and that uninstall puts back every name; returns the raw
    pieces' sizes, the sizes ``_canonical`` and
    ``K.determinize`` were given and the tracer's counters."""
    tracing = load_tracing()
    built = {"pair_product": [], "determinize": []}
    subsets = []  # states of each determinize input
    for name, states in built.items():
        def counted(*args, _name=name, _kernel=getattr(K, name), _states=states):
            if _name == "determinize":
                subsets.append(len(args[0]))
            out = _kernel(*args)
            _states.append(len(out[1]))  # one letter row per state
            return out
        monkeypatch.setattr(K, name, counted)
    pieces = []
    linear_piece = relations._linear_piece

    def walked(*args):
        out = linear_piece(*args)
        pieces.append(len(out[1]))
        return out
    monkeypatch.setattr(relations, "_linear_piece", walked)
    given = []
    canonical = Automaton._canonical

    def seen(aut):
        given.append(aut.n_states)
        return canonical(aut)
    monkeypatch.setattr(Automaton, "_canonical", seen)
    before = patched_names(tracing.LAYER_CALLS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sess = Session("unused", out=lambda line: None, persist=False)
        for command, terminator in commands:
            sess.execute(command, terminator)
    finally:
        tracer.uninstall()
    after = patched_names(tracing.LAYER_CALLS)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    counters = tracer.counters
    assert counters["kernels.pair_product.states_built"] == sum(built["pair_product"]) > 0
    assert counters["kernels.determinize.states_built"] == sum(built["determinize"]) > 0
    assert counters["canonical.states_in"] == sum(given)
    assert counters["automata.max_states"] == max(given)
    calls = tracing.layer_totals(tracer.spans)
    assert calls["kernels.pair_product"][0] == len(built["pair_product"])
    assert calls["kernels.determinize"][0] == len(built["determinize"])
    return pieces, given, subsets, counters


def script_commands(name, upto=None):
    """Commands of a packaged script, cut after the one that defines
    `upto` when given."""
    commands = split_commands((SCRIPT_DIR / f"{name}.obd").read_text(encoding="utf-8"))
    if upto is not None:
        commands = commands[:1 + [c.split()[:2] for c, _ in commands].index(["def", upto])]
    return commands


def test_tracer_counts_one_compile(monkeypatch):
    """The tracer's state counters over s7 (msd_fib, period length 1)
    equal what the kernels return and what ``Automaton._canonical`` is
    given, counted here by wrapping them before the tracer does."""
    counted_compile(monkeypatch, script_commands("s7"))


def test_tracer_counts_period_two_compile(monkeypatch):
    """The same over s6 up to ``def beattyg`` ([3 1], period length 2),
    where every linear atom's raw piece goes straight to its pad
    closure's subset construction, with one fresh state that reads the
    leading zeros, and is counted there.  The pieces' sizes are pinned,
    canon(1), the zero window, being the 4: checking canonicity by each
    digit's position residue, the largest walk makes 551 states, where
    walking in step with canon(3) made 1 064, then the largest machine of
    the run."""
    pieces, given, subsets, counters = counted_compile(
        monkeypatch, script_commands("s6", "beattyg"))
    assert pieces == [2, 12, 4, 551]
    assert Counter(n + 1 for n in pieces) <= Counter(subsets)
    assert max(given) == counters["automata.max_states"]
