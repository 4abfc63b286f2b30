"""Batch command sessions: the ost/def/eval/reg/combine/basis surface.

A script is a sequence of commands, each ended by ``:`` (normal), ``;``
(quiet) or ``::`` (verbose); ``#`` starts a comment.  Commands may span
lines, and quoted strings protect every special character.

A session owns a directory.  Every named artifact (system, predicate,
regex, combined word automaton) is persisted as ``<name>.aut`` in the text
format plus a metadata line in ``meta.jsonl``, whose ``command`` field
holds the command that wrote it: those commands are the journal.
``Session.load`` restores the environment from the stored automata byte
for byte; ``Session.replay`` re-executes the journal from scratch instead,
which must produce the same machines.

``info``, ``enum``, ``export-dot`` and ``basis`` only read: they are not
journaled and store nothing.  ``enum <name> <count>`` prints the first
count values of a word or of a 2-track function at n = 0, 1, ..., and
otherwise the first count accepted tuples, ordered by representation
length and then numerically, so a shorter list is a prefix of a longer
one.  ``basis <set> <cap>`` finds the least h <= cap
for which every natural number, or every one but finitely many, is a sum of
exactly h members of the stored unary relation ``<set>``, by compiling the
complement of the h-fold sum as a formula.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .automata import Automaton, NoOutput
from .logic import (Environment, LogicError, StoredPredicate, compile_formula,
                    def_predicate, eval_sentence)
from .numeration import NumerationSystem
from .quadratic import period_rotate
from .regexlang import regex_compile
from .relations import fibonacci_word, shift_relation


class SessionError(ValueError):
    """A command failed; the message carries the offending command."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def split_commands(text: str) -> list[tuple[str, str]]:
    """Split a script into (command, terminator) pairs.

    Terminators are ``:``/``;``/``::`` outside quotes; ``#`` comments run
    to end of line.  Text after the last terminator must be blank.
    """
    out = []
    buf = []
    i, n = 0, len(text)
    in_quote = False
    while i < n:
        ch = text[i]
        if in_quote:
            buf.append(ch)
            if ch == '"':
                in_quote = False
            i += 1
            continue
        if ch == '"':
            in_quote = True
            buf.append(ch)
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == ":" and i + 1 < n and text[i + 1] == ":":
            out.append(("".join(buf).strip(), "::"))
            buf = []
            i += 2
            continue
        if ch in ":;":
            out.append(("".join(buf).strip(), ch))
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    if in_quote:
        raise SessionError("unterminated quote in script")
    tail = "".join(buf).strip()
    if tail:
        raise SessionError(f"command without terminator: {tail[:60]!r}")
    return [(cmd, term) for cmd, term in out if cmd]


_ARG_RE = re.compile(r"""
    \s*(?:
        (?P<quoted>"[^"]*")
      | (?P<braced>\{[^}]*\})
      | (?P<bracket>\[[^\]]*\])
      | (?P<bare>[^\s"{\[]+)
    )""", re.VERBOSE)


def _split_args(body: str) -> list[str]:
    """Command arguments: bare words, "quoted", {sets}, [lists]."""
    args, pos = [], 0
    while pos < len(body):
        m = _ARG_RE.match(body, pos)
        if m is None:
            if body[pos:].strip():
                raise SessionError(f"cannot parse arguments near {body[pos:pos+20]!r}")
            break
        args.append(m.group(m.lastgroup))
        pos = m.end()
    return args


def _bracket_ints(arg: str, what: str) -> list[int]:
    if not (arg.startswith("[") and arg.endswith("]")):
        raise SessionError(f"{what} must be a bracketed list, got {arg!r}")
    inner = arg[1:-1].replace(",", " ").split()
    try:
        return [int(x) for x in inner]
    except ValueError:
        raise SessionError(f"{what} must contain integers: {arg!r}") from None


def _alphabet_set(arg: str) -> set[int]:
    inner = arg[1:-1].replace(",", " ").split()
    try:
        return {int(x) for x in inner}
    except ValueError:
        raise SessionError(f"alphabet must contain integers: {arg!r}") from None


def _text_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _unquote(arg: str, what: str) -> str:
    if not (arg.startswith('"') and arg.endswith('"') and len(arg) >= 2):
        raise SessionError(f"{what} must be quoted, got {arg[:40]!r}")
    return arg[1:-1]


@dataclass
class Session:
    """An environment bound to a directory, fed by script commands."""

    directory: Path
    out: callable = print
    env: Environment = field(default_factory=Environment)
    journal: list[str] = field(default_factory=list)
    persist: bool = True
    _command: str = field(default="", init=False, repr=False)

    def __post_init__(self):
        self.directory = Path(self.directory)
        if self.persist:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._preregister()

    def _preregister(self):
        """Built-ins available without definition: msd_fib and the word F.

        msd_fib starts as the ambient default system, so scripts that never
        issue an ost command still resolve untagged definitions; the first
        ost replaces the default.
        """
        fib = NumerationSystem("msd_fib", (1,))
        self.env.add_system(fib)
        self.env.add_predicate(StoredPredicate(
            "F", "msd_fib", fibonacci_word(fib), "builtin", kind="word"))

    # -- persistence -------------------------------------------------------

    def _meta_path(self) -> Path:
        return self.directory / "meta.jsonl"

    _QUERY_VERBS = frozenset({"info", "enum", "export-dot", "basis"})

    def _store(self, kind: str, name: str, system: str, source: str,
               aut: Automaton | None, extra: dict | None = None):
        meta = {"kind": kind, "name": name, "system": system,
                "source": source, "command": self._command,
                "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
        if aut is not None:
            meta["states"] = aut.live_states
        if extra:
            meta.update(extra)
        if not self.persist:
            return
        # a new machine goes to a side file, the meta line is appended, and
        # only then does the side file replace <name>.aut; if the append or
        # the replace fails, the meta file is cut back to its old length,
        # so the directory still loads and replays the previous machine
        meta_path, tmp = self._meta_path(), None
        if aut is not None:
            text = aut.to_text(system)
            meta["sha"] = _text_sha(text)
            path = self.directory / f"{name}.aut"
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(text, encoding="utf-8")
        size = meta_path.stat().st_size if meta_path.exists() else 0
        try:
            with open(meta_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(meta) + "\n")
            if tmp is not None:
                os.replace(tmp, path)
        except BaseException:
            if meta_path.exists():
                os.truncate(meta_path, size)
            if tmp is not None:
                tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, directory, out=print) -> "Session":
        """Restore a session from its stored automata (no recompilation).

        Each ``.aut`` file must hash to the ``sha`` its newest meta line
        records; a name defined twice has one file, which only the last
        line describes.  Meta lines written without a ``sha`` load as is,
        and those without a ``command`` add nothing to the journal.
        """
        sess = cls(directory, out=out)
        meta_path = sess._meta_path()
        if meta_path.exists():
            metas = []
            for n, line in enumerate(meta_path.read_text(
                    encoding="utf-8").splitlines(), 1):
                try:
                    meta = json.loads(line)
                    meta["kind"], meta["name"]  # every line needs both,
                    if meta["kind"] in ("system", "relation", "word"):  # and these one more
                        meta["period" if meta["kind"] == "system" else "source"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise SessionError(f"load {meta_path}: line {n}: "
                                       f"{type(exc).__name__}: {exc}") from exc
                metas.append(meta)
            newest = {meta["name"]: i for i, meta in enumerate(metas)
                      if meta["kind"] in ("relation", "word")}
            for i, meta in enumerate(metas):
                kind, name = meta["kind"], meta["name"]
                if kind == "system":
                    period = tuple(meta["period"])
                    sess._check_redefinition(
                        name, period, f"load {meta_path}: line {i + 1}: ")
                    sess.env.add_system(NumerationSystem(name, period))
                elif kind in ("relation", "word"):
                    path = sess.directory / f"{name}.aut"
                    try:
                        text = path.read_text(encoding="utf-8")
                        system_name, aut = Automaton.from_text(text)
                        if newest[name] == i and "sha" in meta \
                                and _text_sha(text) != meta["sha"]:
                            raise ValueError("contents differ from the sha "
                                             "recorded in meta.jsonl")
                    except (OSError, ValueError) as exc:
                        raise SessionError(f"load {path}: {exc}") from exc
                    # a formula def accepts canonical tuples only, as in
                    # def_predicate; _cmd_def tells it from a regex def
                    formula = meta.get("command", "").startswith("def ") \
                        and not meta["source"].startswith("{")
                    canon_of = sess.env.systems.get(system_name) if formula else None
                    sess.env.add_predicate(StoredPredicate(
                        name, system_name, aut, meta["source"], kind=kind,
                        canon_of=canon_of))
            sess.journal = [meta["command"] for meta in metas
                            if "command" in meta]
        return sess

    @classmethod
    def replay(cls, directory, out=None) -> "Session":
        """Re-execute the journal from scratch in a throwaway session; the
        stored machines are not read."""
        lines = (Path(directory) / "meta.jsonl").read_text(encoding="utf-8")
        journal = [meta["command"] for meta in map(json.loads, lines.splitlines())
                   if "command" in meta]
        sess = cls(Path(directory) / "_replay", out=out or (lambda s: None),
                   persist=False)
        sess.run_script("\n".join(journal))
        return sess

    # -- execution ---------------------------------------------------------

    def run_script(self, text: str) -> int:
        """Execute every command in the script; returns the command count."""
        count = 0
        for command, terminator in split_commands(text):
            self.execute(command, terminator)
            count += 1
        return count

    def execute(self, command: str, terminator: str = ":"):
        quiet = terminator == ";"
        verbose = terminator == "::"
        args = _split_args(command)
        if not args:
            return
        verb, rest = args[0], args[1:]
        handler = getattr(self, f"_cmd_{verb.replace('-', '_')}", None)
        if handler is None:
            raise SessionError(f"unknown command {verb!r}")
        # the journal line _store writes; embedded newlines are plain
        # whitespace to the formula tokenizer, so flattening is lossless
        self._command = " ".join(command.split()) + terminator
        t0 = time.perf_counter()
        try:
            result = handler(rest, verbose=verbose)
        except (LogicError, ValueError) as exc:
            raise SessionError(f"{verb}: {exc}") from exc
        elapsed = time.perf_counter() - t0
        if verb not in self._QUERY_VERBS:
            self.journal.append(self._command)
        if result is not None and not quiet:
            line = result if not verbose else f"{result}  ({elapsed*1000:.0f} ms)"
            self.out(line)
        return result

    def _check_redefinition(self, name: str, period: tuple, where: str = ""):
        """Refuse a new period for a system in use: predicates name their
        system, not its period.  `where` prefixes the error."""
        old = self.env.systems.get(name)
        users = sorted(p.name for p in self.env.predicates.values()
                       if p.system_name == name)
        if old is not None and old.period != period and users:
            was, now = (" ".join(map(str, p)) for p in (old.period, period))
            raise SessionError(
                f"{where}{name} has period [{was}] and is used by "
                f"{', '.join('$' + u for u in users)}; "
                f"cannot redefine it as [{now}]")

    def _report(self, trace: list | None):
        """Print a ``::`` command's compiler trace and its largest step."""
        if trace:
            for label, states in trace:
                self.out(f"  {label}: {states} states")
            self.out(f"  largest intermediate: "
                     f"{max(states for _, states in trace)} states")

    # -- commands ----------------------------------------------------------

    def _cmd_ost(self, args, verbose=False):
        if len(args) != 3:
            raise SessionError("usage: ost <name> [0] [period]")
        name = args[0]
        if not _NAME_RE.match(name):
            raise SessionError(f"bad system name {name!r}")
        initial = _bracket_ints(args[1], "initial part")
        period = _bracket_ints(args[2], "period")
        if initial != [0]:
            raise SessionError("only a [0] initial part is supported")
        if not period or any(a < 1 for a in period):
            raise SessionError("period entries must be >= 1")
        rotated = period_rotate(period)
        self._check_redefinition(f"msd_{name}", rotated)
        system = NumerationSystem(f"msd_{name}", rotated)
        self.env.add_system(system)
        self._store("system", system.name, system.name, "ost", None,
                    {"period": list(rotated)})
        qs = ", ".join(str(system.q(i)) for i in range(7))
        note = " (rotated)" if rotated != tuple(period) else ""
        return (f"{system.name}: gamma = {system.gamma}{note}, "
                f"q = {qs}, ...")

    def _cmd_shift(self, args, verbose=False):
        if not 1 <= len(args) <= 2:
            raise SessionError("usage: shift <name> [<system>]")
        name = args[0]
        if not _NAME_RE.match(name):
            raise SessionError(f"bad predicate name {name!r}")
        system = self.env.system_for(args[1] if len(args) == 2 else None)
        aut = shift_relation(system)
        self.env.add_predicate(StoredPredicate(
            name, system.name, aut, f"shift {system.name}"))
        self._store("relation", name, system.name, f"shift {system.name}", aut)
        return f"{name}: {aut.live_states} states"

    def _cmd_def(self, args, verbose=False):
        if len(args) >= 3 and args[1].startswith("{"):
            return self._define_regex(args, verbose)
        if len(args) != 2:
            raise SessionError('usage: def <name> "<formula>"')
        name = args[0]
        source = _unquote(args[1], "formula")
        trace = [] if verbose else None
        pred = def_predicate(self.env, name, source, trace=trace)
        self._report(trace)
        self._store("relation", name, pred.system_name, source,
                    pred.automaton)
        return f"{name}: {pred.state_count} states"

    def _cmd_reg(self, args, verbose=False):
        return self._define_regex(args, verbose)

    def _define_regex(self, args, verbose):
        if len(args) < 3:
            raise SessionError('usage: reg <name> {alphabet}... "<pattern>"')
        name = args[0]
        if not _NAME_RE.match(name):
            raise SessionError(f"bad predicate name {name!r}")
        alphabets = args[1:-1]
        pattern = _unquote(args[-1], "pattern")
        system = self.env.system_for(None)
        want = set(range(system.dmax + 1))
        for alph in alphabets:
            if not alph.startswith("{"):
                raise SessionError(f"alphabet must be braced, got {alph!r}")
            got = _alphabet_set(alph)
            if got != want:
                raise SessionError(
                    f"alphabet {sorted(got)} does not match the digits "
                    f"0..{system.dmax} of {system.name}")
        aut = regex_compile(system, len(alphabets), pattern)
        source = " ".join(args[1:])
        self.env.add_predicate(StoredPredicate(name, system.name, aut, source))
        self._store("relation", name, system.name, source, aut)
        return f"{name}: {aut.live_states} states"

    def _cmd_eval(self, args, verbose=False):
        if len(args) != 2:
            raise SessionError('usage: eval <name> "<formula>"')
        name, source = args[0], _unquote(args[1], "formula")
        trace = [] if verbose else None
        value = eval_sentence(self.env, source, trace=trace)
        self._report(trace)
        self._store("eval", name, self.env.default_system or "", source,
                    None, {"value": bool(value)})
        return f"{name}: {'TRUE' if value else 'FALSE'}"

    def _cmd_combine(self, args, verbose=False):
        if len(args) < 2:
            raise SessionError("usage: combine <name> <pred>=<value> ...")
        name = args[0]
        if not _NAME_RE.match(name):
            raise SessionError(f"bad predicate name {name!r}")
        pairs = []
        for item in args[1:]:
            if "=" not in item:
                raise SessionError(f"combine arguments look like pred=value, "
                                   f"got {item!r}")
            pname, _, val = item.partition("=")
            pred = self.env.predicate(pname)
            if pred.kind != "relation":
                raise SessionError(f"${pname} is not a relation")
            if pred.automaton.arity != 1:
                raise SessionError(f"combine needs unary predicates, "
                                   f"${pname} has arity {pred.automaton.arity}")
            try:
                pairs.append((pred, int(val)))
            except ValueError:
                raise SessionError(f"bad output value {val!r}") from None
        system_names = {pred.system_name for pred, _ in pairs}
        if len(system_names) != 1:
            raise SessionError("combine arguments span multiple systems")
        system = self.env.systems[system_names.pop()]
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                both = pairs[i][0].automaton.intersect(pairs[j][0].automaton)
                if not both.is_empty():
                    witness = both.enumerate_values(system, 1)
                    raise SessionError(
                        f"combine inputs overlap: ${pairs[i][0].name} and "
                        f"${pairs[j][0].name} share input {witness[0][0]}")
        aut = _combine_outputs([p.automaton for p, _ in pairs],
                               [v for _, v in pairs])
        source = "combine " + " ".join(f"{p.name}={v}" for p, v in pairs)
        self.env.add_predicate(StoredPredicate(
            name, system.name, aut, source, kind="word"))
        self._store("word", name, system.name, source, aut)
        return f"{name}: {aut.live_states} states"

    def _cmd_info(self, args, verbose=False):
        if len(args) != 1:
            raise SessionError("usage: info <name>")
        pred = self.env.predicate(args[0])
        return (f"{pred.name}: {pred.kind} over {pred.system_name}, "
                f"{pred.state_count} states, arity {pred.automaton.arity}")

    def _cmd_export_dot(self, args, verbose=False):
        if not 1 <= len(args) <= 2:
            raise SessionError("usage: export-dot <name> [<file>]")
        pred = self.env.predicate(args[0])
        path = Path(args[1]) if len(args) == 2 else (
            self.directory / f"{pred.name}.dot")
        path.write_text(pred.automaton.to_dot(pred.name), encoding="utf-8")
        return f"wrote {path}"

    def _cmd_enum(self, args, verbose=False):
        if len(args) != 2:
            raise SessionError("usage: enum <name> <count>")
        pred = self.env.predicate(args[0])
        try:
            count = int(args[1])
        except ValueError:
            raise SessionError(f"count must be an integer, got {args[1]!r}") from None
        if count < 0:
            raise SessionError("count must be >= 0")
        system = self.env.systems[pred.system_name]
        if pred.kind == "word":
            values = [word_value(pred.automaton, system, n)
                      for n in range(count)]
            return ", ".join(str(v) for v in values)
        aut = pred.automaton
        if aut.arity == 2:
            # a relation that is not functional raises, naming the n
            values = []
            for n in range(count):
                try:
                    values.append(str(aut.function_value(system, n)))
                except NoOutput:
                    values.append("-")
            return ", ".join(values)
        tuples = aut.enumerate_values(system, count)
        if aut.arity == 1:
            return ", ".join(str(t[0]) for t in tuples)
        return ", ".join(str(t) for t in tuples)

    def _cmd_basis(self, args, verbose=False):
        if len(args) != 2:
            raise SessionError("usage: basis <set> <cap>")
        name = args[0]
        pred = self.env.predicate(name)
        if pred.kind != "relation" or pred.automaton.arity != 1:
            raise SessionError(f"${name} is not a unary relation")
        try:
            cap = int(args[1])
        except ValueError:
            raise SessionError(f"cap must be an integer, got {args[1]!r}") from None
        if cap < 1:
            raise SessionError("cap must be >= 1")
        # level h-1 is reused as a predicate of a private environment, so
        # the session itself gains nothing
        env = Environment(dict(self.env.systems), dict(self.env.predicates),
                          pred.system_name)
        sums = f"{name}_sums"
        formula = f"${name}(x)"
        for h in range(1, cap + 1):
            def_predicate(env, sums, formula)
            missed, _, system = compile_formula(env, f"~${sums}(x)")
            if missed.is_empty():
                return f"{name}: order {h} (basis)"
            if missed.is_value_finite():
                # a finite language: enumeration ends when it runs out
                values = missed.enumerate_values(system, sys.maxsize)
                return (f"{name}: order {h} (asymptotic-basis, except "
                        f"{[t[0] for t in values]})")
            formula = f"Eu,v ${sums}(u) & ${name}(v) & x=u+v"
        return f"{name}: no basis order up to {cap}"


def _combine_outputs(automata: list[Automaton], values: list[int]) -> Automaton:
    """DFAO whose output is values[i] on inputs accepted by automata[i], 0 off.

    The inputs were checked pairwise disjoint; a product walk over their
    successor tables assigns each product state its unique output.
    """
    dmax = automata[0].dmax
    nletters = dmax + 1
    tables = [a.successors() for a in automata]
    # one extra entry for the sink, state id n_states, which accepts nothing
    finals = [a.accepting.tolist() + [0] for a in automata]
    start = tuple(a.initial for a in automata)
    index = {start: 0}
    worklist = [start]
    transitions = []
    outputs = []
    accepting = []
    while worklist:
        state = worklist.pop()
        sid = index[state]
        hits = [i for i, (f, s) in enumerate(zip(finals, state)) if f[s]]
        while len(outputs) <= sid:
            outputs.append(0)
            accepting.append(False)
        outputs[sid] = values[hits[0]] if hits else 0
        accepting[sid] = bool(hits)
        for letter in range(nletters):
            nxt = tuple(t[s * nletters + letter] for t, s in zip(tables, state))
            if nxt not in index:
                index[nxt] = len(index)
                worklist.append(nxt)
            transitions.append((sid, (letter,), index[nxt]))
    return Automaton.from_transitions(
        1, dmax, len(index), 0,
        [i for i, f in enumerate(accepting) if f],
        transitions, outputs=outputs)


def word_value(aut: Automaton, system: NumerationSystem, n: int) -> int:
    """Output of a word automaton on the representation of n."""
    if aut.outputs is None:
        raise ValueError("not a word automaton")
    state = aut.run_values((n,), system)
    if state < 0:
        raise ValueError(f"word automaton is not total on input {n}")
    return int(aut.outputs[state])
