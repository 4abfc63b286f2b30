"""First-order formulas over Ostrowski numeration, compiled to automata.

The language is the Walnut dialect the reproduction scripts are written in:

    ?msd_s13 Eu,v n=u+1 & $shift13(u,v) & v=3*z+4*u

Connectives, loosest binding first: <=>  =>  ^  |  &  ~, all left
associative.  E and A introduce existential and universal quantifiers over
comma-separated variable lists and take the largest right scope that the
surrounding parentheses allow.  Atoms compare linear terms (=; !=; <; <=;
>; >=), apply a stored predicate ($name(t1,...,tk)), or test one output of
a stored word automaton (W[t]=@v).  Terms may add, subtract, multiply by a
natural constant, and floor-divide by a positive constant.  Every variable
ranges over the natural numbers; subtraction never truncates, it moves
across the comparison, so "x = y-z" and "x+z = y" compile identically and
a term with no natural value makes its atom false.

Compilation is structural: each subformula becomes an automaton over the
subformula's free variables in sorted name order, every node stays inside
the canonical-word language and closed under leading zero padding, and E
projects all its variables' tracks at once.  A negation is pushed inward
before anything is complemented: ~~p is p, ~Ax p is Ex ~p, ~(p => q) is
p & ~q and ~(p <=> q) is p ^ q; any other ~p is the complement of p within
the canonical words.  So Ax p is ~Ex ~p, and Ax p => q complements only
once, after the projection.  A formula with no free variables compiles to
a zero-track automaton whose nonemptiness is the truth value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .automata import Automaton
from .numeration import NumerationSystem
from .relations import canonical_recognizer, inequality_relation, linear_relation

__all__ = [
    "LogicError",
    "StoredPredicate",
    "Environment",
    "parse_formula",
    "free_variables",
    "compile_formula",
    "eval_sentence",
    "def_predicate",
]


class LogicError(ValueError):
    """Parse or compile failure; a syntax error names its line and column
    and keeps its offset into the text in ``pos`` (-1 for other errors)."""

    def __init__(self, message: str, pos: int = -1):
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# syntax trees


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Scaled:
    factor: int
    term: object


@dataclass(frozen=True)
class Sum:
    left: object
    right: object
    sign: int  # +1 or -1 applied to the right part


@dataclass(frozen=True)
class FloorDiv:
    num: object
    divisor: int


@dataclass(frozen=True)
class Compare:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class WordTest:
    name: str
    index: object
    op: str  # "=" or "!="
    value: int


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class Connective:
    op: str  # & | ^ => <=>
    left: object
    right: object


@dataclass(frozen=True)
class Quantified:
    kind: str  # "E" or "A"
    names: tuple
    body: object


_RELOPS = ("=", "!=", "<", "<=", ">", ">=")
_CONNECTIVES = ("<=>", "=>", "^", "|", "&")


# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<tag>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<pred>\$[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>[0-9]+)
      | (?P<quant>[EA](?![A-Z0-9_]))
      | (?P<word>[A-Z][A-Za-z0-9_]*)
      | (?P<name>[a-z][a-z0-9_]*)
      | (?P<op><=>|=>|!=|<=|>=|[-+*/()\[\],&|^~<>=@])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LogicError(_span(text, pos) + f": unexpected {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _span(text: str, pos: int) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return f"syntax error at line {line} col {col}"


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _err(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.tokens[self.i][2]
        raise LogicError(f"{_span(self.text, pos)}: {message}", pos)

    def peek(self):
        return self.tokens[self.i]

    def peek_op(self):
        kind, value, _ = self.tokens[self.i]
        return value if kind == "op" else None

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.tokens[self.i]
        if kind != "op" or value != op:
            self._err(f"expected {op!r}, found {value or 'end of input'!r}")
        self.i += 1

    # -- entry ---------------------------------------------------------------

    def parse(self):
        tag = None
        if self.peek()[0] == "tag":
            tag = self.take()[1][1:]
        ast = self.formula()
        kind, value, pos = self.peek()
        if kind != "eof":
            if kind == "tag":
                self._err("system tag must prefix the whole formula", pos)
            self._err(f"unexpected {value!r}", pos)
        return tag, ast

    # -- connective ladder -----------------------------------------------------

    def formula(self, level: int = 0):
        """Connectives from the loosest, ``<=>``, to the tightest, ``&``;
        each binds to the left."""
        if level == len(_CONNECTIVES):
            return self.negation()
        op = _CONNECTIVES[level]
        node = self.formula(level + 1)
        while self.peek_op() == op:
            self.take()
            node = Connective(op, node, self.formula(level + 1))
        return node

    def negation(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "~":
            self.take()
            return Not(self.negation())
        if kind == "quant":
            self.take()
            names = [self.var_name()]
            while self.peek_op() == ",":
                self.take()
                names.append(self.var_name())
            # the quantifier grabs everything to the next closing parenthesis
            return Quantified(value, tuple(names), self.formula())
        if kind == "op" and value == "(":
            return self.group(pos)
        if kind == "tag":
            self._err("system tag must prefix the whole formula", pos)
        return self.atom()

    def var_name(self) -> str:
        kind, value, pos = self.peek()
        if kind != "name":
            self._err("expected a variable name")
        self.take()
        return value

    def group(self, open_pos: int):
        """A parenthesis may wrap a formula or the first term of an atom."""
        mark = self.i
        try:
            self.take()
            node = self.formula()
            self.expect_op(")")
            nxt = self.peek_op()
            if nxt in ("+", "-", "*", "/") or nxt in _RELOPS:
                self._err("parenthesized term", open_pos)  # force the retry
            return node
        except LogicError as formula_err:
            self.i = mark
            try:
                return self.atom()
            except LogicError as atom_err:
                raise atom_err if atom_err.pos >= formula_err.pos else formula_err

    # -- atoms -------------------------------------------------------------

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "pred":
            self.take()
            self.expect_op("(")
            args = [self.term()]
            while self.peek_op() == ",":
                self.take()
                args.append(self.term())
            self.expect_op(")")
            if self.peek_op() in _RELOPS:
                self._err("a predicate application is not a term")
            return Call(value[1:], tuple(args))
        if kind == "word":
            self.take()
            self.expect_op("[")
            index = self.term()
            self.expect_op("]")
            op = self.relop()
            if op not in ("=", "!="):
                self._err("outputs compare only with = or !=", pos)
            self.expect_op("@")
            sign = 1
            if self.peek_op() == "-":
                self.take()
                sign = -1
            nkind, nvalue, _ = self.peek()
            if nkind != "num":
                self._err("expected an output value after @")
            self.take()
            return WordTest(value, index, op, sign * int(nvalue))
        lhs = self.term()
        op = self.relop()
        rhs = self.term()
        if self.peek_op() in _RELOPS:
            self._err("comparisons do not chain")
        return Compare(op, lhs, rhs)

    def relop(self) -> str:
        op = self.peek_op()
        if op not in _RELOPS:
            self._err("expected a comparison operator")
        self.take()
        return op

    # -- terms -------------------------------------------------------------

    def term(self):
        node = self.product()
        while self.peek_op() in ("+", "-"):
            sign = 1 if self.take()[1] == "+" else -1
            node = Sum(node, self.product(), sign)
        return node

    def product(self):
        node = self.factor()
        while self.peek_op() in ("*", "/"):
            op = self.take()[1]
            pos = self.peek()[2]
            rhs = self.factor()
            if op == "*":
                lc, rc = _const_of(node), _const_of(rhs)
                if lc is not None and rc is not None:
                    node = Const(lc * rc)
                elif lc is not None:
                    node = Scaled(lc, rhs)
                elif rc is not None:
                    node = Scaled(rc, node)
                else:
                    self._err("multiplication needs a constant factor", pos)
            else:
                d = _const_of(rhs)
                if d is None:
                    self._err("division only by a constant", pos)
                if d <= 0:
                    self._err("division needs a positive constant", pos)
                nc = _const_of(node)
                node = Const(nc // d) if nc is not None else FloorDiv(node, d)
        return node

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return Const(int(value))
        if kind == "name":
            self.take()
            return Var(value)
        if kind == "op" and value == "(":
            self.take()
            node = self.term()
            self.expect_op(")")
            return node
        self._err(f"expected a term, found {value or 'end of input'!r}")


def _const_of(term) -> int | None:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Scaled):
        inner = _const_of(term.term)
        return None if inner is None else term.factor * inner
    if isinstance(term, Sum):  # down the left spine in a loop, as it can be long
        total = 0
        while isinstance(term, Sum):
            b = _const_of(term.right)
            if b is None:
                return None
            total += term.sign * b
            term = term.left
        a = _const_of(term)
        return None if a is None else a + total
    return None


def parse_formula(text: str):
    """Return (system tag or None, syntax tree)."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# free variables


def free_variables(node) -> set:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, (Const,)):
        return set()
    if isinstance(node, Scaled):
        return free_variables(node.term)
    if isinstance(node, Sum):  # down the left spine in a loop, as it can be long
        out = set()
        while isinstance(node, Sum):
            out |= free_variables(node.right)
            node = node.left
        return out | free_variables(node)
    if isinstance(node, FloorDiv):
        return free_variables(node.num)
    if isinstance(node, Compare):
        return free_variables(node.lhs) | free_variables(node.rhs)
    if isinstance(node, Call):
        out = set()
        for arg in node.args:
            out |= free_variables(arg)
        return out
    if isinstance(node, WordTest):
        return free_variables(node.index)
    if isinstance(node, Not):
        return free_variables(node.body)
    if isinstance(node, Connective):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Quantified):
        return free_variables(node.body) - set(node.names)
    raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# environment


@dataclass
class StoredPredicate:
    name: str
    system_name: str
    automaton: Automaton
    source: str
    kind: str = "relation"  # or "word"
    # set for def machines: they accept canonical tuples of this system only
    canon_of: NumerationSystem | None = None

    @property
    def state_count(self) -> int:
        return self.automaton.live_states


@dataclass
class Environment:
    """Named numeration systems and named compiled relations."""

    systems: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)
    default_system: str | None = None

    def add_system(self, system: NumerationSystem) -> NumerationSystem:
        self.systems[system.name] = system
        self.default_system = system.name
        return system

    def add_predicate(self, pred: StoredPredicate) -> StoredPredicate:
        self.predicates[pred.name] = pred
        return pred

    def system_for(self, tag: str | None) -> NumerationSystem:
        if tag is None:
            if self.default_system is None:
                raise LogicError("no numeration system in scope; "
                                 "tag the formula with ?msd_<name>")
            return self.systems[self.default_system]
        system = self.systems.get(tag)
        if system is None:
            raise LogicError(f"unknown numeration system {tag!r}")
        return system

    def predicate(self, name: str) -> StoredPredicate:
        pred = self.predicates.get(name)
        if pred is None:
            raise LogicError(f"unknown predicate ${name}")
        return pred


# ---------------------------------------------------------------------------
# compiler

# An ``&`` where neither side spans meets canon(k) with its smaller side
# first only when the two widened sides' state counts multiply to at least
# this; see `_Compiler.merge` for the measurements behind it.
CANON_STEP_PRODUCT = 1000


@dataclass(frozen=True)
class _Node:
    """A compiled subformula: its machine and its free variables.

    Invariant: ``aut`` accepts only tuples of canonical representations
    over ``names``, that is, a subset of ``canonical_recognizer(system,
    len(names))``.  Every step that builds a node keeps it, so a step may
    rely on it for its own inputs.  Any two routes to the same language
    give the same canonical machine, so how a step reaches its language
    never shows in a stored machine.
    """

    aut: Automaton
    names: tuple  # sorted variable names, one per track


class _Compiler:
    def __init__(self, env: Environment, system: NumerationSystem,
                 trace: list | None = None):
        self.env = env
        self.system = system
        self.trace = trace
        self.fresh_count = 0

    # -- plumbing ----------------------------------------------------------

    def note(self, label: str, aut: Automaton):
        if self.trace is not None:
            self.trace.append((label, aut.live_states))

    def canon(self, arity: int) -> Automaton:
        return canonical_recognizer(self.system, arity)

    def fresh(self) -> str:
        self.fresh_count += 1
        return f"\x00{self.fresh_count:06d}"

    def widen(self, node: _Node, names: tuple) -> Automaton:
        """The node's machine over the wider `names`, by `Automaton.lift`.

        No product: on the new tracks the result accepts any digits, so it
        leaves ``canon(len(names))`` unless the node already spans."""
        if node.names == names:
            return node.aut
        positions = [names.index(v) for v in node.names]
        return node.aut.lift(len(names), positions)

    def merge(self, op: str, a: _Node, b: _Node) -> _Node:
        """One connective, with at most one product against ``canon``.

        L and R are the operands widened to the merged names.  A side
        spans when it already has every merged name; by the `_Node`
        invariant it then lies inside canon = ``canon(k)``.

        - ``&``: L ∩ R lies inside canon already, since canon checks each
          track alone and every track belongs to a side that checks it.
          When neither side spans and ``|L| * |R|`` (state counts) is at
          least `CANON_STEP_PRODUCT`, the side with fewer states still
          meets canon first: that costs one product but keeps the next
          one small (s6's ``check2`` peaks at 7 274 product states this
          way, 10 060 without it).  Below the threshold L ∩ R is built
          directly; the step would cost more than it saves, and skipping
          it takes a compile-small pass from 390 products to 299.  Other
          rules did worse on s6's product states (13 731 with this one):
          a threshold of 2 000 gives 13 778, never taking the step 16 964,
          and taking it at 2 000 input edges (both sides) 14 256.
        - ``|``, ``^``: (L op R) ∩ canon, with no canon step when both
          sides span.
        - ``=>``: canon \\ (L \\ R).  The complement of L \\ R is
          ¬L ∪ R, so this is (canon \\ L) ∪ (canon ∩ R), the implication
          over canonical tuples, in two products whether or not a side
          spans.
        - ``<=>``: canon \\ (L xor R).
        - ``&~``: L \\ R, with no canon step when L spans.  It is not a
          connective of the language: `compile_negated` builds ~(p => q)
          with it, and ~(p <=> q) with ``^``, instead of complementing
          the ``=>`` or ``<=>`` node within canon.
        """
        names = tuple(sorted(set(a.names) | set(b.names)))
        left, right = self.widen(a, names), self.widen(b, names)
        spans = a.names == names, b.names == names
        k = len(names)  # canon(k) is built only in the branches that read it
        if op == "&":
            if (not any(spans) and left.n_states * right.n_states
                    >= CANON_STEP_PRODUCT):
                small, big = sorted((left, right), key=lambda m: m.n_states)
                left, right = small.intersect(self.canon(k)), big
            aut = left.intersect(right)
        elif op in ("|", "^"):
            aut = left.union(right) if op == "|" else left.xor(right)
            if not all(spans):
                aut = aut.intersect(self.canon(k))
        elif op == "=>":
            aut = self.canon(k).andnot(left.andnot(right))
        elif op == "<=>":
            aut = self.canon(k).andnot(left.xor(right))
        elif op == "&~":
            aut = left.andnot(right)
            if not spans[0]:
                aut = aut.intersect(self.canon(k))
        else:
            raise LogicError(f"unknown connective {op!r}")
        self.note(op, aut)
        return _Node(aut, names)

    def negate(self, node: _Node) -> _Node:
        aut = node.aut.complement_within(self.canon(len(node.names)))
        self.note("~", aut)
        return _Node(aut, node.names)

    def project_names(self, node: _Node, names) -> _Node:
        """Existentially quantify a block of names in one projection."""
        drop = [i for i, v in enumerate(node.names) if v in names]
        if not drop:
            return node
        aut = node.aut.project(drop)
        self.note("project", aut)
        return _Node(aut, tuple(v for v in node.names if v not in names))

    # -- atoms ---------------------------------------------------------------

    def flatten(self, term, constraints: list, freshes: list):
        """Term -> (coefficient dict, constant); divisions spawn constraints,
        each a window ``(lin, lo, hi)`` for ``lo <= sum(lin) <= hi``."""
        if isinstance(term, Var):
            return {term.name: 1}, 0
        if isinstance(term, Const):
            return {}, term.value
        if isinstance(term, Scaled):
            lin, k = self.flatten(term.term, constraints, freshes)
            return {v: term.factor * c for v, c in lin.items()}, term.factor * k
        if isinstance(term, Sum):
            # the left spine of a long sum in a loop, its terms left to right
            spine = []
            while isinstance(term, Sum):
                spine.append(term)
                term = term.left
            lin, k = self.flatten(term, constraints, freshes)
            for node in reversed(spine):
                rlin, rk = self.flatten(node.right, constraints, freshes)
                for v, c in rlin.items():
                    lin[v] = lin.get(v, 0) + node.sign * c
                k += node.sign * rk
            return lin, k
        if isinstance(term, FloorDiv):
            lin, k = self.flatten(term.num, constraints, freshes)
            w = self.fresh()
            freshes.append(w)
            c = term.divisor
            lin[w] = lin.get(w, 0) - c
            # w = floor(num / c): c*w <= num <= c*w + c-1, one window atom
            constraints.append((lin, -k, c - 1 - k))
            return {w: 1}, 0
        raise TypeError(f"not a term node: {term!r}")

    def linear_atom(self, lin: dict, constant: int, op: str,
                    upper: int | None = None) -> _Node:
        """``sum(lin) <op> constant``, or with op ``=`` and an upper bound
        the window ``constant <= sum(lin) <= upper``."""
        names = tuple(sorted(v for v, c in lin.items() if c != 0))
        if not names:
            truth = {
                "=": constant <= 0 <= (constant if upper is None else upper),
                "!=": 0 != constant,
                "<": 0 < constant, "<=": 0 <= constant,
                ">": 0 > constant, ">=": 0 >= constant,
            }[op]
            aut = (Automaton.universal if truth else Automaton.empty)(
                0, self.system.dmax)
            return _Node(aut, ())
        coefs = tuple(lin[v] for v in names)
        if op == "=":
            aut = linear_relation(self.system, coefs, constant, upper)
        elif op == "!=":
            eq = linear_relation(self.system, coefs, constant)
            aut = eq.complement_within(self.canon(len(names)))
        else:
            aut = inequality_relation(self.system, coefs, constant, op)
        return _Node(aut, names)

    def constrain(self, out: _Node, constraints, freshes) -> _Node:
        """`out` & every constraint window, with the fresh names projected."""
        for lin, lo, hi in constraints:
            out = self.merge("&", out, self.linear_atom(lin, lo, "=", hi))
        return self.project_names(out, freshes)

    def compare(self, node: Compare) -> _Node:
        constraints, freshes = [], []
        llin, lk = self.flatten(node.lhs, constraints, freshes)
        rlin, rk = self.flatten(node.rhs, constraints, freshes)
        for v, c in rlin.items():
            llin[v] = llin.get(v, 0) - c
        return self.constrain(self.linear_atom(llin, rk - lk, node.op),
                              constraints, freshes)

    def apply_relation(self, aut: Automaton, args, label: str,
                       inside_canon: bool = False) -> _Node:
        if aut.arity != len(args):
            raise LogicError(
                f"{label} takes {aut.arity} arguments, got {len(args)}")
        constraints, freshes = [], []
        names = []
        for arg in args:
            if isinstance(arg, Var) and arg.name not in names:
                names.append(arg.name)
                continue
            lin, k = self.flatten(arg, constraints, freshes)
            w = self.fresh()
            freshes.append(w)
            lin[w] = lin.get(w, 0) - 1
            constraints.append((lin, -k, -k))
            names.append(w)
        order = tuple(sorted(names))
        perm = [order.index(v) for v in names]
        if perm != list(range(len(perm))):
            aut = aut.permute_tracks(perm)
        # canon(k) checks each track alone, so a def machine stays inside
        # it under permuted or repeated arguments; reg and shift machines,
        # F[.]=@v tests and loaded machines may lie outside it
        if not inside_canon:
            aut = aut.intersect(self.canon(len(order)))
        out = self.constrain(_Node(aut, order), constraints, freshes)
        self.note(label, out.aut)
        return out

    def call(self, node: Call) -> _Node:
        pred = self.env.predicate(node.name)
        if pred.kind != "relation":
            raise LogicError(
                f"${node.name} is a word automaton; test it with "
                f"{node.name}[t]=@value")
        if pred.system_name != self.system.name:
            raise LogicError(
                f"${node.name} belongs to {pred.system_name}, the formula "
                f"uses {self.system.name}: mixed systems are not allowed")
        return self.apply_relation(pred.automaton, node.args, f"${node.name}",
                                   pred.canon_of is self.system)

    def word_test(self, node: WordTest) -> _Node:
        pred = self.env.predicate(node.name)
        if pred.kind != "word":
            raise LogicError(f"{node.name} is not a word automaton")
        if pred.system_name != self.system.name:
            raise LogicError(
                f"{node.name} belongs to {pred.system_name}, the formula "
                f"uses {self.system.name}: mixed systems are not allowed")
        hit = pred.automaton.output_equals(node.value)
        if node.op == "!=":  # the complement lies inside canon(1)
            hit = hit.complement_within(self.canon(1))
        return self.apply_relation(hit, (node.index,), f"{node.name}[.]",
                                   node.op == "!=")

    # -- recursion -----------------------------------------------------------

    def compile(self, node) -> _Node:
        if isinstance(node, Compare):
            return self.compare(node)
        if isinstance(node, Call):
            return self.call(node)
        if isinstance(node, WordTest):
            return self.word_test(node)
        if isinstance(node, Not):
            return self.compile_negated(node.body)
        if isinstance(node, Connective):
            return self.merge(node.op, self.compile(node.left),
                              self.compile(node.right))
        if isinstance(node, Quantified):
            if node.kind == "E":
                return self.project_names(self.compile(node.body), node.names)
            body = self.compile_negated(node.body)
            return self.negate(self.project_names(body, node.names))
        raise TypeError(f"not a formula node: {node!r}")

    def compile_negated(self, node) -> _Node:
        """~node, with the negation pushed inward past ~, A, => and <=>."""
        if isinstance(node, Not):
            return self.compile(node.body)
        if isinstance(node, Quantified) and node.kind == "A":
            return self.project_names(self.compile_negated(node.body),
                                      node.names)
        if isinstance(node, Connective) and node.op in ("=>", "<=>"):
            op = "&~" if node.op == "=>" else "^"
            return self.merge(op, self.compile(node.left),
                              self.compile(node.right))
        return self.negate(self.compile(node))


# ---------------------------------------------------------------------------
# public entry points


def compile_formula(env: Environment, text: str, *,
                    trace: list | None = None):
    """Compile text to (automaton, free variable tuple, numeration system)."""
    try:  # the parser and the compiler recurse once per level of nesting
        tag, ast = parse_formula(text)
        system = env.system_for(tag)
        free = tuple(sorted(free_variables(ast)))
        compiler = _Compiler(env, system, trace)
        node = compiler.compile(ast)
    except RecursionError:
        raise LogicError("formula nests too deeply") from None
    aut = node.aut
    if node.names != free:  # a variable whose coefficients cancel, as in x=x
        aut = compiler.widen(node, free).intersect(compiler.canon(len(free)))
    return aut, free, system


def eval_sentence(env: Environment, text: str, *,
                  trace: list | None = None) -> bool:
    """Truth value of a formula with no free variables."""
    aut, free, _ = compile_formula(env, text, trace=trace)
    if free:
        raise LogicError("eval needs a sentence; free variables: "
                         + ", ".join(free))
    return aut.decide()


def def_predicate(env: Environment, name: str, text: str, *,
                  trace: list | None = None) -> StoredPredicate:
    """Compile and store a named relation; returns the stored entry."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise LogicError(f"bad predicate name {name!r}")
    aut, free, system = compile_formula(env, text, trace=trace)
    # by the _Node invariant the machine accepts canonical tuples only
    pred = StoredPredicate(name, system.name, aut, text, canon_of=system)
    return env.add_predicate(pred)
