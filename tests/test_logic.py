"""First-order DSL: parsing, compilation, and agreement with direct builders.

The headline checks compile the slope and Beatty synchronizers from the
scripts' formula text and compare them, state for state and value for value,
with the synchronizers of obd.beatty, whose digests test_relations pins.  Everything else pins parser errors and
the compiler's handling of terms, quantifiers, and word automata.
"""

import dataclasses
import itertools

import pytest

from obd import NumerationSystem, _kernels, relations
from obd.logic import (
    Environment,
    LogicError,
    StoredPredicate,
    compile_formula,
    def_predicate,
    eval_sentence,
    free_variables,
    parse_formula,
)
from obd.beatty import BeattySpec, beatty_sync, floor_gamma_sync
from obd.relations import canonical_recognizer, fibonacci_word, shift_relation
from conftest import equivalent


@pytest.fixture(scope="module")
def env(systems):
    e = Environment()
    for name in ("msd_s13", "msd_s2", "msd_sqrt7", "msd_fib"):
        e.add_system(systems[name])
    e.add_predicate(StoredPredicate(
        "shift13", "msd_s13", shift_relation(systems["msd_s13"]), "builtin"))
    e.add_predicate(StoredPredicate(
        "shift", "msd_fib", shift_relation(systems["msd_fib"]), "builtin"))
    e.add_predicate(StoredPredicate(
        "F", "msd_fib", fibonacci_word(systems["msd_fib"]), "builtin",
        kind="word"))
    return e


def fib_word(length):
    """Prefix of the fixed point of 0 -> 01, 1 -> 0."""
    w = [0]
    while len(w) < length:
        w = [d for bit in w for d in ((0, 1) if bit == 0 else (0,))]
    return w[:length]


class TestParsing:
    def test_tag_and_shape(self):
        tag, ast = parse_formula("?msd_s13 Eu u=n & n=0")
        assert tag == "msd_s13"
        assert ast.kind == "E" and ast.names == ("u",)
        # quantifier scope runs to the end of the formula
        assert ast.body.op == "&"

    def test_untagged(self):
        tag, ast = parse_formula("x=0")
        assert tag is None

    def test_quantifier_name_list(self):
        _, ast = parse_formula("Eu,v,w u=v & v=w")
        assert ast.names == ("u", "v", "w")

    def test_fused_quantifier_letter(self):
        # E/A fuse only when followed by a lowercase variable; a word
        # automaton name starting with E stays a name
        _, ast = parse_formula("Ex x=0")
        assert ast.kind == "E"

    def test_multiplication_needs_constant(self):
        with pytest.raises(LogicError, match="constant factor"):
            parse_formula("x*y = z")

    def test_constant_folding_in_products(self):
        _, ast = parse_formula("x = 2*3")
        assert ast.rhs.value == 6
        _, ast = parse_formula("x = 6/2")
        assert ast.rhs.value == 3

    def test_no_chained_comparisons(self):
        with pytest.raises(LogicError, match="do not chain"):
            parse_formula("x < y < z")

    def test_tag_must_lead(self):
        with pytest.raises(LogicError, match="prefix the whole formula"):
            parse_formula("x=0 & ?msd_fib y=0")

    def test_predicate_is_not_a_term(self):
        with pytest.raises(LogicError, match="not a term"):
            parse_formula("$p(x) = 1")

    def test_division_constant_only(self):
        with pytest.raises(LogicError, match="division"):
            parse_formula("x/y = z")
        with pytest.raises(LogicError, match="positive"):
            parse_formula("x/0 = z")

    def test_error_carries_position(self):
        with pytest.raises(LogicError, match=r"line 1 col 5") as info:
            parse_formula("x = )")
        assert info.value.pos == 4
        with pytest.raises(LogicError, match=r"line 2 col 3") as info:
            parse_formula("x = 1\n& #")
        assert info.value.pos == 8

    @pytest.mark.parametrize("text,message", [
        ("(x = 1", "line 1 col 7: expected ')', found 'end of input'"),
        ("(x + ) = 1", "line 1 col 6: expected a term, found ')'"),
        ("(x=1) + 2 = y", "line 1 col 3: expected ')', found '='"),
        ("(x = 1\n & y = ", "line 2 col 8: expected a term, found 'end of input'"),
    ])
    def test_group_reports_the_reading_that_got_further(self, text, message):
        # a parenthesis is read as a formula, then as a term; the error
        # raised is the one at the later offset, the term's on a tie
        with pytest.raises(LogicError) as info:
            parse_formula(text)
        assert str(info.value) == "syntax error at " + message

    def test_free_variables(self):
        _, ast = parse_formula("Eu u=n & $p(u,z) & F[t]=@1")
        assert free_variables(ast) == {"n", "z", "t"}


class TestCompiledSynchronizers:
    def test_slope_synchronizer_from_text(self, env, systems):
        s13 = systems["msd_s13"]
        pred = def_predicate(
            env, "beattyg",
            '?msd_s13 (n=0 & z=0) | (Eu,v n=u+1 & $shift13(u,v) & v=3*z+4*u)')
        assert pred.state_count == 32
        assert equivalent(pred.automaton, floor_gamma_sync(s13))

    def test_beatty_synchronizer_from_text(self, env, systems):
        s13 = systems["msd_s13"]
        def_predicate(
            env, "beattyg",
            '?msd_s13 (n=0 & z=0) | (Eu,v n=u+1 & $shift13(u,v) & v=3*z+4*u)')
        pred = def_predicate(
            env, "beatty", '?msd_s13 Eu $beattyg(6*n+3,u) & z=(u+2*n+3)/2')
        assert pred.state_count == 59
        spec = BeattySpec(2, 6, 2, 3, 3)
        direct = beatty_sync(s13, spec)
        # the compiled relation also carries the n=0 row; drop it to compare
        positive, _, _ = compile_formula(env, "?msd_s13 n>=1 & $beatty(n,z)")
        assert equivalent(positive, direct)
        for n in range(1, 200):
            z = spec.term(s13, n)
            assert pred.automaton.accepts_values((n, z), s13)
            assert not pred.automaton.accepts_values((n, z + 1), s13)

    def test_quantifier_duality(self, env, systems):
        s13 = systems["msd_s13"]
        some, free, _ = compile_formula(
            env, "?msd_s13 Ex $shift13(x,y) & x>=3")
        dual, free2, _ = compile_formula(
            env, "?msd_s13 ~Ax ~($shift13(x,y) & x>=3)")
        assert free == free2 == ("y",)
        assert equivalent(some, dual)

    def test_universal_sentence(self, env):
        assert eval_sentence(env, "?msd_fib An Em m=n+1")
        assert not eval_sentence(env, "?msd_fib En Am n>=m")


class TestAtomSemantics:
    @pytest.mark.parametrize("sysname", ["msd_fib", "msd_s13"])
    def test_linear_atom_grid(self, env, systems, sysname):
        sys_ = systems[sysname]
        aut, free, _ = compile_formula(env, f"?{sysname} x+2*y=z+3")
        assert free == ("x", "y", "z")
        for x, y, z in itertools.product(range(9), repeat=3):
            want = x + 2 * y == z + 3
            assert aut.accepts_values((x, y, z), sys_) == want

    @pytest.mark.parametrize("sysname", ["msd_fib", "msd_s2"])
    def test_inequality_atom_grid(self, env, systems, sysname):
        sys_ = systems[sysname]
        aut, _, _ = compile_formula(env, f"?{sysname} 2*x <= y+5")
        for x, y in itertools.product(range(25), repeat=2):
            assert aut.accepts_values((x, y), sys_) == (2 * x <= y + 5)

    def test_division_floor(self, env, systems):
        sys_ = systems["msd_s13"]
        aut, free, _ = compile_formula(env, "?msd_s13 z=(u+2*n+3)/2")
        assert free == ("n", "u", "z")
        for n, u in itertools.product(range(12), repeat=2):
            z = (u + 2 * n + 3) // 2
            assert aut.accepts_values((n, u, z), sys_)
            assert not aut.accepts_values((n, u, z + 1), sys_)

    def test_subtraction_is_transposed(self, env, systems):
        sys_ = systems["msd_fib"]
        aut, free, _ = compile_formula(env, "?msd_fib t-1=z")
        assert free == ("t", "z")
        assert not aut.accepts_values((0, 0), sys_)  # no z with 0-1 = z
        for t in range(1, 30):
            assert aut.accepts_values((t, t - 1), sys_)
            assert not aut.accepts_values((t, t), sys_)

    def test_subtraction_under_predicate(self, env, systems):
        sys_ = systems["msd_fib"]
        aut, _, _ = compile_formula(env, "?msd_fib Ex $shift(n-1,x) & s=x+1")
        # n=0 makes n-1 unsatisfiable, so no pair with first track 0
        assert not any(aut.accepts_values((0, s), sys_) for s in range(10))

    def test_xor_and_iff(self, env, systems):
        sys_ = systems["msd_s2"]
        aut, _, _ = compile_formula(env, "?msd_s2 (x=0 ^ y=0)")
        for x, y in itertools.product(range(4), repeat=2):
            assert aut.accepts_values((x, y), sys_) == ((x == 0) != (y == 0))
        iff, _, _ = compile_formula(env, "?msd_s2 (x=0 <=> y=0)")
        for x, y in itertools.product(range(4), repeat=2):
            assert iff.accepts_values((x, y), sys_) == ((x == 0) == (y == 0))

    def test_word_indexing(self, env, systems, monkeypatch):
        sys_ = systems["msd_fib"]
        word = fib_word(300)
        ones, _, _ = compile_formula(env, "?msd_fib F[n]=@1")
        for n in range(250):
            assert ones.accepts_values((n,), sys_) == (word[n] == 1)
        calls = []
        product = _kernels.pair_product

        def counted(*args):
            calls.append(1)
            return product(*args)
        monkeypatch.setattr(_kernels, "pair_product", counted)
        noteq, _, _ = compile_formula(env, "?msd_fib F[n]!=@0")
        assert equivalent(noteq, ones)
        # the complement within canon(1) is applied as it is: one product,
        # where intersecting it with canon(1) again took two
        assert len(calls) == 1
        canon = canonical_recognizer(sys_, 1)
        hit = env.predicate("F").automaton.output_equals(0)
        assert noteq.sha() == hit.complement_within(canon).intersect(canon).sha()

    def test_word_index_can_be_a_term(self, env, systems):
        sys_ = systems["msd_fib"]
        word = fib_word(300)
        aut, _, _ = compile_formula(env, "?msd_fib F[2*n+1]=@0")
        for n in range(100):
            assert aut.accepts_values((n,), sys_) == (word[2 * n + 1] == 0)


class TestEnvironmentErrors:
    def test_mixed_systems(self, env):
        with pytest.raises(LogicError, match="mixed systems"):
            compile_formula(env, "?msd_s2 $shift13(x,y)")

    def test_eval_rejects_free_variables(self, env):
        with pytest.raises(LogicError, match=r"free variables: x, y"):
            eval_sentence(env, "?msd_fib x=y")

    def test_unknown_predicate(self, env):
        with pytest.raises(LogicError, match=r"unknown predicate \$nosuch"):
            compile_formula(env, "?msd_fib $nosuch(x)")

    def test_unknown_system(self, env):
        with pytest.raises(LogicError, match="unknown numeration system"):
            compile_formula(env, "?msd_s99 x=0")

    def test_no_default_system(self):
        with pytest.raises(LogicError, match="no numeration system"):
            compile_formula(Environment(), "x=0")

    def test_word_used_as_relation(self, env):
        with pytest.raises(LogicError, match="word automaton"):
            compile_formula(env, "?msd_fib $F(x)")

    def test_relation_used_as_word(self, env, systems):
        env.add_predicate(StoredPredicate(
            "G", "msd_fib", shift_relation(systems["msd_fib"]), "builtin"))
        with pytest.raises(LogicError, match="not a word automaton"):
            compile_formula(env, "?msd_fib G[x]=@1")

    def test_bad_predicate_name(self, env):
        with pytest.raises(LogicError, match="bad predicate name"):
            def_predicate(env, "no spaces", "?msd_fib x=0")


class TestCompilationBehavior:
    @pytest.mark.parametrize("text", [
        "x=y" + "+0" * 1999,
        "x=y" + "-0" * 1999,
        "x" + "+0" * 1999 + "=y",
        "x=(1" + "+0" * 1999 + ")*y",
    ], ids=["plus", "minus", "left side", "constant factor"])
    def test_long_flat_sum(self, env, text):
        # 2000 terms at one level: no deeper than x=y, however long
        want = compile_formula(env, "?msd_fib x=y")[0].sha()
        assert compile_formula(env, "?msd_fib " + text)[0].sha() == want

    def test_deterministic_recompilation(self, systems):
        text = '?msd_s13 (n=0 & z=0) | (Eu,v n=u+1 & $shift13(u,v) & v=3*z+4*u)'
        blobs = []
        for _ in range(2):
            env = Environment()
            env.add_system(systems["msd_s13"])
            env.add_predicate(StoredPredicate(
                "shift13", "msd_s13", shift_relation(systems["msd_s13"]),
                "builtin"))
            aut, _, _ = compile_formula(env, text)
            blobs.append(aut.canonical_bytes())
        assert blobs[0] == blobs[1]

    def test_trace_hook(self, env):
        trace = []
        compile_formula(env, "?msd_s13 Ex $shift13(x,y) & x>=3",
                        trace=trace)
        assert trace and all(
            isinstance(label, str) and count >= 0 for label, count in trace)
        labels = [label for label, _ in trace]
        assert "$shift13" in labels
        assert "project" in labels

    def test_free_variable_order_is_sorted(self, env, systems):
        aut, free, system = compile_formula(env, "?msd_s2 b=0 & a=0 & c=0")
        assert free == ("a", "b", "c")
        assert aut.arity == 3
        assert system is systems["msd_s2"]

    def test_division_is_one_window_atom(self, monkeypatch):
        # s6's z=(u+2*n+3)/2 is z=w and the window -3 <= u+2*n-2*w <= -2
        # for a fresh w, which sorts first: one linear machine for the
        # division, not its two <= halves
        system = NumerationSystem("msd_s13", (3, 1))
        env = Environment()
        env.add_system(system)
        built = []
        machine = relations._linear_machine

        def recorded(system, coefficients, lo, hi):
            built.append((coefficients, lo, hi))
            return machine(system, coefficients, lo, hi)
        monkeypatch.setattr(relations, "_linear_machine", recorded)
        aut = def_predicate(env, "half", "?msd_s13 z=(u+2*n+3)/2").automaton
        assert built == [((-1, 1), 0, 0), ((-2, 2, 1), -3, -2)]
        for n, u in itertools.product(range(12), repeat=2):
            z = (u + 2 * n + 3) // 2
            assert aut.accepts_values((n, u, z), system)
            assert not aut.accepts_values((n, u, z + 1), system)

    def test_def_machines_skip_the_canon_product(self, systems, monkeypatch):
        fib = systems["msd_fib"]
        env = Environment()
        env.add_system(fib)
        lt = def_predicate(env, "lt", "?msd_fib x<y")
        assert lt.canon_of is fib
        # the same machine, but not known to be canonical, as after a load
        env.add_predicate(dataclasses.replace(lt, name="lt0", canon_of=None))
        calls = []
        product = _kernels.pair_product

        def counted(*args):
            calls.append(1)
            return product(*args)
        monkeypatch.setattr(_kernels, "pair_product", counted)

        def compiled(text):
            compile_formula(env, text)  # builds and caches what canon needs
            calls.clear()
            return compile_formula(env, text)[0].sha(), len(calls)
        # permuted, repeated and term arguments stay inside canon
        for args in ("y,x", "x,x", "x+1,y", "x,y"):
            skipped, with_product = compiled(f"$lt({args})"), compiled(f"$lt0({args})")
            assert skipped[0] == with_product[0]
            assert skipped[1] == with_product[1] - 1
        # a system redefined under the same name has another canon
        env.add_system(NumerationSystem("msd_fib", (1,)))
        assert compiled("$lt(x,y)")[1] == compiled("$lt0(x,y)")[1]
