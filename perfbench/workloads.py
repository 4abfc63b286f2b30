"""Workload definitions, inputs and independent reference answers.

A workload knows how to set itself up, how to run one pass over its fixed
script of requests, and how to check every answer.  The expected values
live here, written by hand or computed with exact integer arithmetic, so
that no change under ``src/obd`` can alter what counts as correct.

compile-small and compile-large have fixed inputs (packaged scripts); the
seed only matters to ``query``, whose request stream is drawn from it.
"""

from __future__ import annotations

import random
import shutil
import time
from math import isqrt
from pathlib import Path

# word_value is looked up on the module at each call, so that the tracer's
# wrapper (tracing.py) sees the calls
from obd import session as obd_session
from obd.session import Session, SessionError, split_commands

SCRIPT_DIR = Path(obd_session.__file__).parent / "scripts"

# -- exact-arithmetic references --------------------------------------------


def floor_phi(n: int) -> int:
    """floor(n * (1 + sqrt 5) / 2) for n >= 0."""
    return (n + isqrt(5 * n * n)) // 2


def fib_word(n: int) -> int:
    """n-th letter of the infinite Fibonacci word 0100101001001..."""
    return 2 - (floor_phi(n + 2) - floor_phi(n + 1))


def a003151(n: int) -> int:
    return isqrt(2 * n * n) + n


def beatty_s6(n: int) -> int:
    """floor(n (sqrt 21 - 1) / 2 + (sqrt 21 + 3) / 4)
    = floor(((2n + 1) sqrt 21 - 2n + 3) / 4)."""
    return (isqrt(21 * (2 * n + 1) ** 2) - 2 * n + 3) // 4


# the sequences each script defines, as functions of n
ORACLES = {
    "eta": lambda n: (floor_phi(2 * n) + 1) // 2,  # floor(n phi + 1/2)
    "a": lambda n: floor_phi(3 * n) + 2 * n,  # floor(n phi^4)
    "b": lambda n: floor_phi(2 * n) + n,  # floor(n phi^3)
    "c": floor_phi,
    "leswap": lambda n: 2 * ((n + floor_phi(n)) // 2),
    "ueswap": lambda n: 2 * ((n + floor_phi(n) + 1) // 2),
    "a097508": lambda n: isqrt(2 * n * n) - n,
    "a003151": a003151,
    "a001951": lambda n: isqrt(2 * n * n),
    "a080754": lambda n: a003151(n) + 1 if n > 0 else 0,
    "beatty": beatty_s6,
}
SCRIPT_ORACLES = {"s7": ("eta",), "s9": ("a", "b", "c"),
                  "s10": ("leswap", "ueswap"),
                  "s12": ("a097508", "a001951", "a003151", "a080754"),
                  "s6": ("beatty",)}
# n checked against each oracle after every compile pass: all small n and
# one n of each length from 4 to 41 digits
ORACLE_NS = tuple(range(1, 300)) + tuple(10 ** d + d for d in range(3, 41))

# first 17 values of the s12 sequences, as printed in the source table
TABLE_ROWS = {
    "a097508": "0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6",
    "a001951": "0, 1, 2, 4, 5, 7, 8, 9, 11, 12, 14, 15, 16, 18, 19, 21, 22",
    "a003151": "0, 2, 4, 7, 9, 12, 14, 16, 19, 21, 24, 26, 28, 31, 33, 36, 38",
    "a276862": "2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 3",
    "a097509": "3, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 3",
    "a080754": "0, 3, 5, 8, 10, 13, 15, 17, 20, 22, 25, 27, 29, 32, 34, 37, 39",
    "b": "2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 3, 2",
}


class Checks:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def _script(section: str, upto: str | None = None) -> list[tuple[str, str]]:
    """Commands of a packaged script, optionally cut after the one that
    defines ``upto``."""
    commands = split_commands((SCRIPT_DIR / f"{section}.obd").read_text(
        encoding="utf-8"))
    if upto is None:
        return commands
    for i, (command, _) in enumerate(commands):
        words = command.split()
        if len(words) > 1 and words[1] == upto:
            return commands[:i + 1]
    raise ValueError(f"{section} defines no {upto!r}")


class _Recorder:
    """Session output sink: remembers the last line printed per name."""

    def __init__(self):
        self.printed: dict[str, str] = {}

    def __call__(self, line: str):
        head, _, tail = line.partition(": ")
        if tail:
            self.printed[head.strip()] = tail.strip()


# -- compile workloads -------------------------------------------------------


class Section:
    """One packaged script and the hand-written facts about its results."""

    def __init__(self, name, commands, states=None, enums=None,
                 oracles=()):
        self.name = name
        self.commands = commands
        self.states = dict(states or {})
        self.enums = dict(enums or {})
        self.oracles = oracles


class CompileWorkload:
    """Runs packaged scripts, each in a fresh Session on a fresh directory.

    One pass is the whole command list; every command is one request, and
    its kind is the command's first word.
    Checks: every command succeeds, every eval prints TRUE, named
    predicates have the hand-written state counts, enum rows match the
    source table, and the defined sequences agree with exact arithmetic:
    (n, f(n)) is accepted and (n, f(n)+1) is not, for every n in ORACLE_NS.
    """

    def __init__(self, sections, perturb=False):
        self.sections = sections
        if perturb:
            states = sections[0].states
            states[next(iter(states))] += 1
        self.pass_index = 0

    def setup(self, workdir: Path, tracer=None):
        # a session with the built-ins loaded is the state a user starts from
        Session(workdir / "setup", out=_Recorder(), persist=False)

    def run_pass(self, workdir: Path, latencies: list, tracer=None,
                 clock=time.perf_counter):
        """One timed pass; returns its time and what check_pass needs."""
        self.pass_index += 1
        base = workdir / f"pass{self.pass_index}"
        outcome = []
        t_pass = clock()
        for section in self.sections:
            sink = _Recorder()
            sess = Session(base / section.name, out=sink)
            errors = []
            for command, terminator in section.commands:
                t0 = clock()
                try:
                    sess.execute(command, terminator)
                except SessionError as exc:
                    errors.append(str(exc))
                latencies.append((t0, clock() - t0, command.split()[0]))
            outcome.append((section, sess, sink, errors))
        return clock() - t_pass, (base, outcome)

    def check_pass(self, outcome, checks: Checks):
        base, sections = outcome
        for section, sess, sink, errors in sections:
            where = section.name
            checks.check(not errors, f"{where}: {'; '.join(errors[:3])}")
            for command, _ in section.commands:
                words = command.split()
                if words[0] == "eval":
                    got = sink.printed.get(words[1])
                    checks.check(got == "TRUE", f"{where} eval {words[1]}: {got}")
            for name, want in section.states.items():
                pred = sess.env.predicates.get(name)
                got = pred.state_count if pred is not None else None
                checks.check(got == want, f"{where} {name}: {got} states, want {want}")
            for name, want in section.enums.items():
                try:
                    got = sess.execute(f"enum {name} 17", ";")
                except SessionError as exc:
                    got = f"error: {exc}"
                checks.check(got == want, f"{where} enum {name}: {got!r}")
            for name in section.oracles:
                self._check_oracle(sess, name, checks, where)
        shutil.rmtree(base, ignore_errors=True)

    @staticmethod
    def _check_oracle(sess, name, checks: Checks, where: str):
        pred = sess.env.predicates.get(name)
        if pred is None:
            checks.check(False, f"{where}: {name} is not defined")
            return
        aut, system = pred.automaton, sess.env.systems[pred.system_name]
        fn = ORACLES[name]
        for n in ORACLE_NS:
            z = fn(n)
            ok = (aut.accepts_values((n, z), system)
                  and not aut.accepts_values((n, z + 1), system))
            checks.check(ok, f"{where} {name}({n}) != {z}")


# -- query workload ----------------------------------------------------------

MAX_DIGITS = 60
BLOCK = 1000  # requests per pass
KINDS = ("member", "function", "word")


class QueryWorkload:
    """Read-only requests against predicates compiled and stored in set-up.

    Set-up runs the s10 and s12 scripts into the work directory and reopens
    both with ``Session.load``.  A pass answers the next BLOCK requests of
    the seeded stream; every request is one latency sample.  Set-up's
    compiling raises the process's peak memory, which peak_rss_mb reports
    (README).
    """

    def __init__(self, seed: int, s10=None, block: int = BLOCK,
                 perturb=False):
        self.rng = random.Random(seed)
        self.s10 = s10 if s10 is not None else _script("s10")
        self.block = block
        self.perturb = perturb

    def setup(self, workdir: Path, tracer=None):
        for section, commands in (("s10", self.s10), ("s12", _script("s12"))):
            sess = Session(workdir / section, out=_Recorder())
            for command, terminator in commands:
                sess.execute(command, terminator)
        if tracer is not None:
            tracer.install()
        fib = Session.load(workdir / "s10", out=_Recorder())
        s2 = Session.load(workdir / "s12", out=_Recorder())
        if tracer is not None:
            tracer.uninstall()
        self.targets = {}
        for sess, names in ((fib, ("leswap", "ueswap")),
                            (s2, ("a003151", "a001951", "a080754"))):
            for name in names:
                pred = sess.env.predicate(name)
                self.targets[name] = (pred.automaton,
                                      sess.env.systems[pred.system_name])
        word = fib.env.predicate("F")
        self.word = (word.automaton, fib.env.systems[word.system_name])
        self.names = sorted(self.targets)

    def _draw_n(self) -> int:
        digits = self.rng.randint(1, MAX_DIGITS)
        return self.rng.randrange(10 ** (digits - 1), 10 ** digits)

    def requests(self):
        """The next BLOCK requests with their expected answers.

        Kinds: membership asks whether (n, f(n)) and (n, f(n)+1) are
        accepted, function asks the synchroniser for f(n), word reads F[n]
        off the Fibonacci word automaton.  No usage record exists to take a
        mix from, so each kind gets an equal third of the stream; run.py
        prints the share of pass time each kind takes.
        """
        out = []
        for _ in range(self.block):
            kind = self.rng.choice(KINDS)
            n = self._draw_n()
            if kind == "word":
                want = fib_word(n)
                if self.perturb:
                    want = 1 - want
                out.append((kind, None, n, None, want))
                continue
            name = self.rng.choice(self.names)
            z = ORACLES[name](n)
            if kind == "member":
                out.append((kind, name, n, z, (True, False)))
            else:
                out.append((kind, name, n, None, z))
        return out

    def answer(self, kind, name, n, z):
        if kind == "word":
            aut, system = self.word
            return obd_session.word_value(aut, system, n)
        aut, system = self.targets[name]
        if kind == "function":
            return aut.function_value(system, n)
        return (aut.accepts_values((n, z), system),
                aut.accepts_values((n, z + 1), system))

    def run_pass(self, workdir: Path, latencies: list, tracer=None,
                 clock=time.perf_counter):
        batch = self.requests()
        answers = []
        t_pass = clock()
        for kind, name, n, z, _ in batch:
            t0 = clock()
            if tracer is not None:
                tracer.begin("query.request")
            try:
                got = self.answer(kind, name, n, z)
            except ValueError as exc:
                got = f"error: {exc}"
            if tracer is not None:
                tracer.end()
            latencies.append((t0, clock() - t0, kind))
            answers.append(got)
        return clock() - t_pass, (batch, answers)

    def check_pass(self, outcome, checks: Checks):
        for (kind, name, n, _, want), got in zip(*outcome):
            checks.check(got == want,
                         f"{kind} {name} n={n}: {got!r}, want {want!r}")


# -- the named workloads -----------------------------------------------------


def make(name: str, seed: int, tiny: bool = False, perturb: bool = False):
    """Build a workload; ``tiny`` gives the self-test's short versions."""
    if name == "compile-small":
        if tiny:
            sections = [Section("s7", _script("s7"), states={"iseta": 8},
                                oracles=SCRIPT_ORACLES["s7"])]
        else:
            sections = [Section(s, _script(s), oracles=SCRIPT_ORACLES.get(s, ()))
                        for s in ("s7", "s8", "s9", "s10")]
            sections.append(Section("s12", _script("s12"), enums=TABLE_ROWS,
                                    oracles=SCRIPT_ORACLES["s12"]))
        return CompileWorkload(sections, perturb=perturb)
    if name == "compile-large":
        # s6 up to def beatty; its final eval check2 is left out (README)
        if tiny:
            section = Section("s6", _script("s6", "shift13"),
                              states={"shift13": 16})
        else:
            section = Section("s6", _script("s6", "beatty"),
                              states={"beattyg": 32, "beatty": 59},
                              oracles=SCRIPT_ORACLES["s6"])
        return CompileWorkload([section], perturb=perturb)
    if name == "query":
        if tiny:
            return QueryWorkload(seed, s10=_script("s10", "ueswap"), block=50,
                                 perturb=perturb)
        return QueryWorkload(seed, perturb=perturb)
    raise ValueError(f"unknown workload {name!r}")
