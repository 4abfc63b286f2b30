"""The paper's synchronizers, written as formulas over the shift relation.

Both are compiled by :func:`~obd.logic.compile_formula` in a private
environment that holds the numeration system and its shift relation as
``$shift``.  With q_i the convergent denominators and m the period length,
the slope synchronizer for ``z = floor(n * gamma)`` is

    (n=0 & z=0) | (Eu,v n=u+1 & $shift(u,v) & v=q_{m-1}*z+q_m*u)

because appending m zero digits to u = n - 1 gives the value
``q_m*u + q_{m-1}*floor(n*gamma)``.  With that machine stored as ``$fg``,
the inhomogeneous Beatty synchronizer for ``z = floor(n*alpha + beta)``,
``alpha = (a + b*gamma)/c`` and ``beta = (d + e*gamma)/c``, is

    (n>=1 & Et,w t=b*n+e & $fg(t,w) & z=(a*n+d+w)/c)

since taking the inner floor first cannot change an integer division.
Each index k >= 1 with b*k + e < 0 adds the disjunct ``| (n=k & z=<term>)``
with the term computed exactly, and b = 0 needs no ``$fg`` at all:
``n>=1 & z=(a*n+d+floor(e*gamma))/c``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Automaton
from .logic import Environment, StoredPredicate, compile_formula
from .numeration import NumerationSystem
from .quadratic import QuadraticReal
from .relations import shift_relation

__all__ = ["BeattySpec", "floor_gamma_sync", "beatty_sync"]


@dataclass(frozen=True)
class BeattySpec:
    """Coefficients for ``alpha = (a + b*gamma)/c`` and ``beta = (d + e*gamma)/c``.

    b must be nonnegative and c positive; the represented slope must satisfy
    ``alpha >= 0`` and ``alpha + beta >= 0`` so that every term with n >= 1
    is a natural number.
    """

    a: int
    b: int
    c: int
    d: int
    e: int

    def alpha(self, system: NumerationSystem) -> QuadraticReal:
        return (self.a + self.b * system.gamma) / self.c

    def beta(self, system: NumerationSystem) -> QuadraticReal:
        return (self.d + self.e * system.gamma) / self.c

    def term(self, system: NumerationSystem, n: int) -> int:
        """Exact ``floor(n * alpha + beta)``."""
        value = (self.a * n + self.d) + (self.b * n + self.e) * system.gamma
        return (value / self.c).floor()

    def validate(self, system: NumerationSystem) -> None:
        if self.c < 1:
            raise ValueError("denominator c must be positive")
        if self.b < 0:
            raise ValueError("slope coefficient b must be nonnegative")
        alpha = self.alpha(system)
        if alpha.sign() < 0:
            raise ValueError("slope alpha must be nonnegative")
        if (alpha + self.beta(system)).sign() < 0:
            raise ValueError("alpha + beta must be nonnegative")


def _compile(system: NumerationSystem, formula: str, **stored) -> Automaton:
    """Compile a formula in (n, z) with ``$shift`` and the given predicates."""
    env = Environment()
    env.add_system(system)
    stored["shift"] = shift_relation(system)
    for name, aut in stored.items():
        env.add_predicate(StoredPredicate(name, system.name, aut, "builtin"))
    return compile_formula(env, formula)[0]


def floor_gamma_sync(system: NumerationSystem) -> Automaton:
    """Synchronizer for ``z = floor(n * gamma)``, all n >= 0."""
    key = ("floor_gamma",)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    m = system.period_length
    out = _compile(system, "(n=0 & z=0) | (Eu,v n=u+1 & $shift(u,v)"
                   f" & v={system.q(m - 1)}*z+{system.q(m)}*u)")
    system._cache[key] = out
    return out


def beatty_sync(system: NumerationSystem, spec: BeattySpec) -> Automaton:
    """Synchronizer for ``z = floor(n*alpha + beta)`` over pairs with n >= 1."""
    spec.validate(system)
    a, b, c, d, e = spec.a, spec.b, spec.c, spec.d, spec.e
    # signed constants are written {x:+d}, after a leading positive term
    if b == 0:
        shifted = d + (e * system.gamma).floor()
        return _compile(system, f"n>=1 & z=({a}*n{shifted:+d})/{c}")
    formula = (f"(n>=1 & Et,w t={b}*n{e:+d} & $fg(t,w)"
               f" & z=(w{a:+d}*n{d:+d})/{c})")
    # indices with b*k + e < 0 have no t; their terms are glued on exactly
    for k in range(1, -(e // b) if e < 0 else 1):
        formula += f" | (n={k} & z={spec.term(system, k)})"
    return _compile(system, formula, fg=floor_gamma_sync(system))
