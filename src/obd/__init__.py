"""obd: decide first-order statements about inhomogeneous Beatty sequences.

The pipeline: exact quadratic arithmetic -> Ostrowski numeration ->
synchronized finite automata -> a Walnut-style first-order DSL compiled
to automata, plus a CLI and scripted reproductions of the key identities.
An Ostrowski system is one object, ``NumerationSystem(name, period)``:
its continued fraction, denominators and digit codec.
"""
from .quadratic import QuadraticReal, cf_value, cf_expand, period_rotate
from .numeration import NumerationSystem
from .automata import Automaton
from .regexlang import RegexError, regex_compile
from .relations import (
    canonical_recognizer,
    fibonacci_word,
    inequality_relation,
    linear_relation,
    shift_relation,
)
from .logic import (
    Environment,
    LogicError,
    StoredPredicate,
    compile_formula,
    def_predicate,
    eval_sentence,
    free_variables,
    parse_formula,
)
from .beatty import BeattySpec, beatty_sync, floor_gamma_sync

__all__ = [
    "QuadraticReal", "cf_value", "cf_expand", "period_rotate",
    "NumerationSystem", "Automaton",
    "BeattySpec", "beatty_sync", "canonical_recognizer", "fibonacci_word",
    "floor_gamma_sync", "inequality_relation", "linear_relation",
    "shift_relation", "RegexError", "regex_compile",
    "Environment", "LogicError", "StoredPredicate", "compile_formula",
    "def_predicate", "eval_sentence", "free_variables", "parse_formula",
]
