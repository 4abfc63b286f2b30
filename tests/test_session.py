"""Session commands: basis against brute force, enum rows, crash-safe storage.

The additive-basis verdicts are checked against sums of exactly computed
terms (integer square roots only), so they are independent of every
automaton the command compiles.
"""
import itertools
import json
import re
from math import isqrt

import pytest

from obd.session import Session, SessionError

SCRIPT = r"""
reg shift {0,1} {0,1} "([0,0]|[0,1][1,1]*[1,0])*":
def phin "?msd_fib (s=0&n=0) | Ex $shift(n-1,x) & s=x+1":
def phi "?msd_fib En n>=1 & $phin(n,x)":
def phi2 "?msd_fib En,s n>=1 & $phin(n,s) & x=s+n":
def evens "?msd_fib En n>=1 & x=2*n":
ost s2 [0] [2]:
shift shift1;
def a097508 "?msd_s2 (n=0 & z=0) | (Eu,v n=u+1 & $shift1(u,v) & v=z+2*u)":
def sqrt2 "?msd_s2 En,u n>=1 & $a097508(n,u) & x=u+n":
ost s13 [0] [3 1]:
shift shift13;
def beattyg "?msd_s13 (n=0 & z=0) | (Eu,v n=u+1 & $shift13(u,v) & v=3*z+4*u)":
def beatty "?msd_s13 Eu $beattyg(6*n+3,u) & z=(u+2*n+3)/2":
def s6 "?msd_s13 En n>=1 & $beatty(n,x)":
"""

BOUND = 400

# the terms floor(n*alpha + beta), n >= 1, by integer square roots
TERMS = {
    "phi": lambda n: (n + isqrt(5 * n * n)) // 2,
    "phi2": lambda n: (3 * n + isqrt(5 * n * n)) // 2,
    "sqrt2": lambda n: isqrt(2 * n * n),
    "s6": lambda n: (isqrt(21 * (2 * n + 1) ** 2) + 3 - 2 * n) // 4,
}


def missed_sums(terms, h):
    """Numbers up to BOUND that are no sum of exactly h terms."""
    values = [t for t in terms if t <= BOUND]
    hit = {sum(c) for c in itertools.combinations_with_replacement(values, h)}
    return [x for x in range(BOUND + 1) if x not in hit]


def brute_force_verdict(name, cap):
    terms = [TERMS[name](n) for n in range(1, BOUND + 1)]
    for h in range(1, cap + 1):
        missed = missed_sums(terms, h)
        if not missed:
            return f"{name}: order {h} (basis)"
        # finitely many misses: none in the top half of the checked range
        if missed[-1] < BOUND // 2:
            return f"{name}: order {h} (asymptotic-basis, except {missed})"
    return f"{name}: no basis order up to {cap}"


@pytest.fixture(scope="module")
def sess():
    s = Session("unused", out=lambda line: None, persist=False)
    s.run_script(SCRIPT)
    return s


class TestBasis:
    @pytest.mark.parametrize("name,order", [
        ("phi", 2), ("sqrt2", 2), ("phi2", 3), ("s6", 2)])
    def test_matches_brute_force(self, sess, name, order):
        got = sess.execute(f"basis {name} 4", ";")
        assert got == brute_force_verdict(name, 4)
        assert got.startswith(f"{name}: order {order} (asymptotic-basis")

    def test_no_basis_when_odd_numbers_are_missed(self, sess):
        assert sess.execute("basis evens 3", ";") == \
            "evens: no basis order up to 3"

    def test_reads_only(self, sess):
        journal, names = list(sess.journal), set(sess.env.predicates)
        sess.execute("basis phi 2", ";")
        assert sess.journal == journal
        assert set(sess.env.predicates) == names

    @pytest.mark.parametrize("command,message", [
        ("basis nosuch 2", r"unknown predicate \$nosuch"),
        ("basis F 2", r"\$F is not a unary relation"),
        ("basis phin 2", r"\$phin is not a unary relation"),
        ("basis phi 0", "cap must be >= 1"),
        ("basis phi two", "cap must be an integer"),
        ("basis phi", "usage: basis <set> <cap>"),
    ])
    def test_bad_input(self, sess, command, message):
        with pytest.raises(SessionError, match="^basis: .*" + message):
            sess.execute(command, ";")


class TestEnum:
    @pytest.mark.parametrize("command,message", [
        ("enum phin -3", "count must be >= 0"),
        ("enum phin abc", "count must be an integer, got 'abc'"),
    ])
    def test_bad_count(self, sess, command, message):
        with pytest.raises(SessionError, match=f"^enum: {message}$"):
            sess.execute(command, ";")

    def test_rows_without_output_print_a_dash(self, sess):
        sess.execute('def halves "?msd_fib Ek n=2*k & z=k"', ";")
        assert sess.execute("enum halves 7", ";") == "0, -, 1, -, 2, -, 3"

    def test_longer_list_extends_shorter(self, sess):
        # tuples come by representation length, then numerically, so each
        # count prints a prefix of the next; the reference sorts a grid
        sess.execute('def w "?msd_fib (x=0 & y>=5 & z=y) | '
                     '(x=1 & z=0 & y<=5)"', ";")
        rows = [sess.execute(f"enum w {k}", ";") for k in range(1, 10)]
        for short, longer in zip(rows, rows[1:]):
            assert longer.startswith(short + ", ")
        fib = sess.env.systems["msd_fib"]
        grid = [(0, y, y) for y in range(5, 60)] + [(1, y, 0) for y in range(6)]
        grid.sort(key=lambda tup: (max(len(fib.encode(v)) for v in tup), tup))
        assert rows[-1] == ", ".join(map(str, grid[:9]))

    def test_relation_that_is_not_functional_names_n(self, sess):
        sess.execute('def twice "?msd_fib z=n | (n=3 & z=0)"', ";")
        with pytest.raises(SessionError,
                           match="^enum: relation is not functional at 3$"):
            sess.execute("enum twice 5", ";")


class TestStorage:
    @pytest.fixture()
    def stored(self, tmp_path):
        s = Session(tmp_path / "sess", out=lambda line: None)
        s.execute('def add "?msd_fib x+y=z"', ";")
        return tmp_path / "sess"

    def test_truncated_file(self, stored):
        path = stored / "add.aut"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-3]), encoding="utf-8")
        with pytest.raises(SessionError, match="add.aut"):
            Session.load(stored, out=lambda line: None)

    def test_target_out_of_range(self, stored):
        path = stored / "add.aut"
        lines = path.read_text(encoding="utf-8").splitlines()
        src, letter, _ = lines[-1].split()
        lines[-1] = f"{src} {letter} 999"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SessionError, match="add.aut.*out of range"):
            Session.load(stored, out=lambda line: None)

    def test_missing_file(self, stored):
        (stored / "add.aut").unlink()
        with pytest.raises(SessionError, match="add.aut"):
            Session.load(stored, out=lambda line: None)

    def test_round_trip(self, stored):
        sess = Session.load(stored, out=lambda line: None)
        fresh = Session("unused", out=lambda line: None, persist=False)
        fresh.execute('def add "?msd_fib x+y=z"', ";")
        assert sess.env.predicate("add").automaton.sha() == \
            fresh.env.predicate("add").automaton.sha()
        assert [p.name for p in stored.iterdir() if p.suffix == ".tmp"] == []

    def test_failed_write_keeps_the_old_machine(self, stored, monkeypatch):
        before = (stored / "add.aut").read_text(encoding="utf-8")
        sess = Session.load(stored, out=lambda line: None)

        def crash(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr("obd.session.os.replace", crash)
        with pytest.raises(OSError):
            sess.execute('def add "?msd_fib x+y+1=z"', ";")
        assert (stored / "add.aut").read_text(encoding="utf-8") == before

    @pytest.mark.parametrize("fail", ["append", "cut append", "replace"])
    def test_failed_redefinition_loads_and_replays_the_old_machine(
            self, stored, monkeypatch, fail):
        # the meta append fails before writing, or after half a line, or
        # the new file cannot replace the old one
        sess = Session.load(stored, out=lambda line: None)
        old = sess.env.predicate("add").automaton.sha()
        meta = (stored / "meta.jsonl").read_bytes()

        class CutFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        def failing_open(file, mode="r", *args, **kwargs):
            if mode == "a" and fail == "append":
                raise OSError("disk full")
            fh = open(file, mode, *args, **kwargs)
            return CutFile(fh) if mode == "a" else fh

        def failing_replace(src, dst):
            raise OSError("disk full")
        with monkeypatch.context() as m:
            if fail == "replace":
                m.setattr("obd.session.os.replace", failing_replace)
            else:
                m.setattr("obd.session.open", failing_open, raising=False)
            with pytest.raises(OSError, match="disk full"):
                sess.execute('def add "?msd_fib x+y+1=z"', ";")
        assert (stored / "meta.jsonl").read_bytes() == meta
        assert sorted(p.name for p in stored.iterdir()) == ["add.aut", "meta.jsonl"]
        loaded = Session.load(stored, out=lambda line: None)
        replayed = Session.replay(stored)
        assert loaded.journal == replayed.journal == ['def add "?msd_fib x+y=z";']
        for s in (loaded, replayed):
            assert s.env.predicate("add").automaton.sha() == old

    def test_edited_file_in_range(self, stored):
        # every id stays in range, so only the recorded hash tells
        path = stored / "add.aut"
        text = path.read_text(encoding="utf-8")
        assert "accepting 0 13 15\n" in text
        path.write_text(text.replace("accepting 0 13 15\n", "accepting 1\n"),
                        encoding="utf-8")
        with pytest.raises(SessionError, match="add.aut.*sha"):
            Session.load(stored, out=lambda line: None)

    def test_redefined_name_loads_the_newest(self, stored):
        sess = Session.load(stored, out=lambda line: None)
        sess.execute('def add "?msd_fib x+y+1=z"', ";")
        meta = (stored / "meta.jsonl").read_text(encoding="utf-8")
        assert meta.count('"name": "add"') == 2
        loaded = Session.load(stored, out=lambda line: None)
        add = loaded.env.predicate("add").automaton
        assert add.accepts_values((1, 1, 3), loaded.env.systems["msd_fib"])
        assert add.sha() == sess.env.predicate("add").automaton.sha()

    def test_cut_meta_line(self, stored):
        Session.load(stored, out=lambda line: None).execute(
            'def sub "?msd_fib x=y+z"', ";")
        meta_path = stored / "meta.jsonl"
        meta_path.write_bytes(meta_path.read_bytes()[:-20])
        with pytest.raises(SessionError,
                           match=r"meta\.jsonl: line 2: JSONDecodeError"):
            Session.load(stored, out=lambda line: None)

    @pytest.mark.parametrize("key", ["kind", "name"])
    def test_meta_line_without_kind_or_name(self, stored, key):
        meta_path = stored / "meta.jsonl"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta[key]
        meta_path.write_text(json.dumps(meta) + "\n", encoding="utf-8")
        with pytest.raises(SessionError,
                           match=f"meta\\.jsonl: line 1: KeyError: '{key}'"):
            Session.load(stored, out=lambda line: None)

    @pytest.mark.parametrize("command, key", [
        ('def add "?msd_fib x+y=z"', "source"),
        ("ost two [0] [2]", "period"),
    ])
    def test_meta_line_without_what_load_reads(self, tmp_path, command, key):
        Session(tmp_path / "sess", out=lambda line: None).execute(command, ";")
        meta_path = tmp_path / "sess" / "meta.jsonl"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta[key]
        meta_path.write_text(json.dumps(meta) + "\n", encoding="utf-8")
        with pytest.raises(SessionError,
                           match=f"^load .*meta\\.jsonl: line 1: KeyError: '{key}'"):
            Session.load(tmp_path / "sess", out=lambda line: None)

    def test_failed_last_write_leaves_load_and_replay_agreeing(
            self, tmp_path, monkeypatch):
        # the last file a def writes fails; whatever reached the disk,
        # loading the stored machines and replaying the journal agree
        def def_b(directory, fail_at=None):
            s = Session(directory, out=lambda line: None)
            s.execute('def a "?msd_fib x=1"', ";")
            writes = []

            def failing_open(file, mode="r", *args, **kwargs):
                if mode != "r":
                    writes.append(file)
                    if len(writes) == fail_at:
                        raise OSError("disk full")
                return open(file, mode, *args, **kwargs)
            with monkeypatch.context() as m:
                m.setattr("obd.session.open", failing_open, raising=False)
                if fail_at is None:
                    s.execute('def b "?msd_fib x=2"', ";")
                else:
                    with pytest.raises(OSError, match="disk full"):
                        s.execute('def b "?msd_fib x=2"', ";")
            return len(writes)

        last = def_b(tmp_path / "probe")
        assert last >= 1
        def_b(tmp_path / "sess", fail_at=last)
        loaded = Session.load(tmp_path / "sess", out=lambda line: None)
        replayed = Session.replay(tmp_path / "sess")

        def digests(sess):
            return {name: pred.automaton.sha()
                    for name, pred in sess.env.predicates.items()}
        assert "a" in digests(loaded)
        assert digests(loaded) == digests(replayed)
        assert loaded.journal == replayed.journal

    def test_replay_does_not_read_the_stored_machines(self, stored):
        (stored / "add.aut").unlink()
        replayed = Session.replay(stored)
        assert replayed.journal == ['def add "?msd_fib x+y=z";']
        assert "add" in replayed.env.predicates

    def test_meta_line_without_sha(self, stored):
        meta_path = stored / "meta.jsonl"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["sha"]
        meta_path.write_text(json.dumps(meta) + "\n", encoding="utf-8")
        sess = Session.load(stored, out=lambda line: None)
        add = sess.env.predicate("add").automaton
        assert add.accepts_values((1, 1, 2), sess.env.systems["msd_fib"])


class TestRedefinedSystem:
    """A predicate names its system, so the system must keep its period."""

    REDEFINE = ('ost x [0] [1 2]:\n'
                'def lt "?msd_x a<b":\n'
                'ost x [0] [2 2]:\n'
                'eval u "?msd_x Aa,b $lt(a,b) <=> a<b":\n')

    def test_other_period_is_refused_while_a_predicate_uses_it(self):
        s = Session("unused", out=lambda line: None, persist=False)
        with pytest.raises(SessionError, match=r"^ost: msd_x .*\$lt"):
            s.run_script(self.REDEFINE)
        # the old system and its predicate are untouched
        assert s.env.systems["msd_x"].period == (2, 1)
        assert s.execute('eval u "?msd_x Aa,b $lt(a,b) <=> a<b"', ";") == "u: TRUE"

    def test_same_period_is_allowed(self):
        s = Session("unused", out=lambda line: None, persist=False)
        s.run_script(self.REDEFINE.replace("[2 2]", "[1 2]"))
        assert s.execute('eval u "?msd_x Aa,b $lt(a,b) <=> a<b"', ";") == "u: TRUE"

    def test_unused_system_may_change_period(self):
        s = Session("unused", out=lambda line: None, persist=False)
        s.run_script("ost x [0] [1 2]:\nost x [0] [2 2]:\n")
        assert s.env.systems["msd_x"].period == (2, 2)

    def test_load_refuses_a_later_period_for_a_system_in_use(self, tmp_path):
        # a session directory written before ost refused the redefinition
        s = Session(tmp_path / "sess", out=lambda line: None)
        s.run_script('ost x [0] [1 2]:\ndef lt "?msd_x a<b":\n')
        meta = {"kind": "system", "name": "msd_x", "system": "msd_x",
                "source": "ost", "period": [2, 2]}
        with open(tmp_path / "sess" / "meta.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
        with pytest.raises(SessionError, match=r"^load .*meta\.jsonl: line 3: "
                           r"msd_x has period \[2 1\] .*\$lt"):
            Session.load(tmp_path / "sess", out=lambda line: None)

    def test_load_allows_the_same_period_again(self, tmp_path):
        s = Session(tmp_path / "sess", out=lambda line: None)
        s.run_script(self.REDEFINE.replace("[2 2]", "[1 2]"))
        loaded = Session.load(tmp_path / "sess", out=lambda line: None)
        assert loaded.env.systems["msd_x"].period == (2, 1)
        assert loaded.execute('eval u "?msd_x Aa,b $lt(a,b) <=> a<b"',
                              ";") == "u: TRUE"


@pytest.mark.parametrize("command", [
    'def p "?msd_fib Eu,v u+v=x & u<v"',
    'def q "?msd_fib x=(y+z)/2"',
    'eval t "?msd_fib Ax,y x<y | y<=x"',
])
def test_verbose_command_prints_one_projection_per_block(command):
    lines = []
    s = Session("unused", out=lines.append, persist=False)
    s.execute(command, "::")
    assert sum(line.startswith("  project: ") for line in lines) == 1
    peak = max(int(line.split()[-2]) for line in lines[:-2])
    assert lines[-2] == f"  largest intermediate: {peak} states"
    assert re.fullmatch(r"\w+: \w+( states)?  \(\d+ ms\)", lines[-1])


@pytest.mark.parametrize("formula", [
    "(" * 150 + "x=1" + ")" * 150,
    " & ".join(["x=1"] * 1500),
    "x=" + "y+(" * 400 + "y" + ")" * 400,
], ids=["150 parentheses", "1500 conjuncts", "400 nested sums"])
def test_too_deep_a_formula_is_a_session_error(formula):
    # parser and compiler recurse once per level; Python's stack is finite
    s = Session("unused", out=lambda line: None, persist=False)
    with pytest.raises(SessionError, match="^def: formula nests too deeply$"):
        s.execute(f'def x "{formula}"')
    assert s.execute('def x "x=1"', ";") is not None


def test_too_deep_a_pattern_is_a_session_error():
    # the regex parser recurses once per parenthesis level
    s = Session("unused", out=lambda line: None, persist=False)
    pattern = "(" * 400 + "0" + ")" * 400
    with pytest.raises(SessionError, match="^reg: pattern nests too deeply"):
        s.execute(f'reg r {{0,1}} "{pattern}"')
    assert s.execute('reg r {0,1} "(0|1)*"', ";") is not None
