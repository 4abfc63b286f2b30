"""The formula compiler's connectives, held to an older route and to arithmetic.

``_Compiler.merge`` builds each connective with at most one product against
the canonical-word recognizer canon(k).  Three checks keep it honest:

- the older route, kept below as ``old_merge`` (both operands widened and
  intersected with canon, then the plain formula per connective), gives the
  same canonical bytes on random atoms with different variable sets, with
  ``&``'s canon step taken always and never;
- compiled 2- and 3-variable formulas agree with exact Python arithmetic on
  every tuple below 40;
- every node that ``merge``, ``negate``, ``apply_relation`` and
  ``project_names`` return lies inside canon (the ``_Node`` invariant), both
  in the differential tests and while s7 and s9 compile.

``_Compiler.compile_negated`` pushes each negation inward instead of
complementing within canon; formulas with ``~~``, ``~A``, ``A...=>``,
``A...<=>`` and nested ``A`` give the same canonical bytes as the plain
route, which complements whatever it negates.
"""
import itertools
import random

import pytest

from obd import logic
from obd.logic import (Environment, _Compiler, compile_formula, def_predicate,
                       parse_formula)
from obd.repro import SCRIPT_DIR
from obd.session import Session

SYSTEMS = ("msd_fib", "msd_s2", "msd_s13")
CONNECTIVES = ("&", "|", "^", "=>", "<=>")
STEPS = ("merge", "negate", "apply_relation", "project_names")


@pytest.fixture()
def checked(monkeypatch):
    """Wrap the compiler's node-building steps with the invariant check.

    Returns the names of the steps that ran, in call order."""
    seen = []

    def wrap(step):
        def checked_step(self, *args, **kwargs):
            node = step(self, *args, **kwargs)
            outside = node.aut.andnot(self.canon(len(node.names)))
            assert outside.is_empty(), \
                f"{step.__name__} left canon(k) over {node.names}"
            seen.append(step.__name__)
            return node
        return checked_step

    for name in STEPS:
        monkeypatch.setattr(_Compiler, name, wrap(getattr(_Compiler, name)))
    return seen


@pytest.fixture(scope="module")
def env(systems):
    e = Environment()
    for name in SYSTEMS:
        e.add_system(systems[name])
    return e


def old_merge(compiler, op, a, b):
    """The reference route: intersect every widened operand with canon."""
    names = tuple(sorted(set(a.names) | set(b.names)))
    canon = compiler.canon(len(names))

    def lift_to(node):
        if node.names == names:
            return node.aut
        positions = [names.index(v) for v in node.names]
        return node.aut.lift(len(names), positions).intersect(canon)

    left, right = lift_to(a), lift_to(b)
    if op == "&":
        return left.intersect(right)
    if op == "|":
        return left.union(right)
    if op == "^":
        return left.xor(right)
    if op == "=>":
        return left.complement_within(canon).union(right)
    return left.xor(right).complement_within(canon)


def random_atom(rng, names):
    """A linear comparison over exactly `names`, constants on the right."""
    lhs, rhs = [], []
    for v in names:
        c = rng.choice((-2, -1, 1, 2))
        (lhs if c > 0 else rhs).append(f"{abs(c)}*{v}")
    rhs.append(str(rng.randint(0, 4)))
    op = rng.choice(("=", "!=", "<", "<=", ">="))
    return f"{'+'.join(lhs) or '0'} {op} {'+'.join(rhs)}"


# (left names, right names): neither side spans, one side spans, both span
VARIABLE_SETS = [
    pytest.param(("x",), ("y",), id="x|y"),
    pytest.param(("x", "y"), ("y", "z"), id="xy|yz"),
    pytest.param(("x",), ("x", "y"), id="x|xy"),
    pytest.param(("x", "z"), ("z",), id="xz|z"),
    pytest.param(("x", "y"), ("x", "y"), id="xy|xy"),
]


# ``&``'s canon step by size: 0 takes it in every ``&`` where neither side
# spans, 10**9 in none (random atoms make far smaller products)
STEP_THRESHOLDS = (0, 10 ** 9)


@pytest.mark.parametrize("sysname", SYSTEMS)
@pytest.mark.parametrize("left_names,right_names", VARIABLE_SETS)
def test_merge_matches_old_route(env, sysname, left_names, right_names,
                                 checked, monkeypatch):
    rng = random.Random(f"{sysname} {left_names} {right_names}")
    compiler = _Compiler(env, env.system_for(sysname))
    for _ in range(3):
        a = compiler.compile(parse_formula(random_atom(rng, left_names))[1])
        b = compiler.compile(parse_formula(random_atom(rng, right_names))[1])
        assert (a.names, b.names) == (left_names, right_names)
        for threshold in STEP_THRESHOLDS:
            monkeypatch.setattr(logic, "CANON_STEP_PRODUCT", threshold)
            for op in CONNECTIVES:
                new = compiler.merge(op, a, b).aut
                assert new.canonical_bytes() == \
                    old_merge(compiler, op, a, b).canonical_bytes(), \
                    (op, threshold)
    assert checked.count("merge") == \
        3 * len(STEP_THRESHOLDS) * len(CONNECTIVES)


TWO_VARIABLES = [
    pytest.param("x+1<y & x!=3", lambda x, y: x + 1 < y and x != 3,
                 id="and"),
    pytest.param("x<5 | 2*y<x", lambda x, y: x < 5 or 2 * y < x, id="or"),
    pytest.param("x=2*y ^ x>=7", lambda x, y: (x == 2 * y) != (x >= 7),
                 id="xor"),
    pytest.param("x<7 => y=x+2", lambda x, y: x >= 7 or y == x + 2,
                 id="implies"),
    pytest.param("x<=y <=> y<2*x", lambda x, y: (x <= y) == (y < 2 * x),
                 id="iff"),
    pytest.param("~(x<3 | y=x) & y<20",
                 lambda x, y: not (x < 3 or y == x) and y < 20, id="not"),
]

THREE_VARIABLES = [
    pytest.param("msd_fib", "(x<y & y<z) | (x+y=z ^ 2*z<x)",
                 lambda x, y, z: (x < y < z) or ((x + y == z) != (2 * z < x)),
                 id="and-or-xor"),
    pytest.param("msd_s2", "(x+y<9 => z=x) <=> (y<z | z=2*y)",
                 lambda x, y, z: (x + y >= 9 or z == x) == (y < z or z == 2 * y),
                 id="implies-iff"),
]


@pytest.mark.parametrize("sysname", SYSTEMS)
@pytest.mark.parametrize("text,truth", TWO_VARIABLES)
def test_two_variables_brute_force(env, sysname, text, truth):
    system = env.system_for(sysname)
    aut, free, _ = compile_formula(env, f"?{sysname} {text}")
    assert free == ("x", "y")
    for x, y in itertools.product(range(40), repeat=2):
        assert aut.accepts_values((x, y), system) == truth(x, y), (x, y)


@pytest.mark.parametrize("sysname,text,truth", THREE_VARIABLES)
def test_three_variables_brute_force(env, sysname, text, truth):
    system = env.system_for(sysname)
    aut, free, _ = compile_formula(env, f"?{sysname} {text}")
    assert free == ("x", "y", "z")
    for xyz in itertools.product(range(40), repeat=3):
        assert aut.accepts_values(xyz, system) == truth(*xyz), xyz


@pytest.mark.parametrize("section", ["s7", "s9"])
def test_invariant_while_scripts_compile(section, checked):
    sess = Session("unused", out=lambda line: None, persist=False)
    sess.run_script((SCRIPT_DIR / f"{section}.obd").read_text(encoding="utf-8"))
    assert set(checked) == set(STEPS)



# (formula, the labels its :: trace must list); "&~" is the negated
# implication, built only by compile_negated
NEGATIONS = [
    pytest.param("~~(x<y | y=2*x)", {"|"}, id="not-not"),
    pytest.param("~(x<y => $p(x,z))", {"&~"}, id="not-implies"),
    pytest.param("~(x<y <=> $p(x,z))", {"^"}, id="not-iff"),
    pytest.param("~Ax (x<y => $p(x,z))", {"&~", "project"}, id="not-all"),
    pytest.param("Ax $p(x,y) => x<y", {"&~", "project", "~"},
                 id="all-implies-spanning"),
    # s9's ainv shape: the left side of => lacks m, so it does not span
    pytest.param("Ax (x<z & x>0) => ~$p(m,x)", {"&~", "project", "~"},
                 id="all-implies-narrow"),
    pytest.param("Ax x<z <=> $p(x,y)", {"^", "project", "~"}, id="all-iff"),
    pytest.param("Ax Ay (x<y & y<z) => $p(x,y)", {"&~", "project", "~"},
                 id="nested-all"),
    pytest.param("Ax ~Ay ~(x<y => $p(y,z))", {"=>", "project", "~"},
                 id="all-not-all-not"),
    pytest.param("Az Ax (x<z & x>0) => ~$p(z,x)", {"&~", "project", "~"},
                 id="sentence"),
]


@pytest.mark.parametrize("sysname", ["msd_fib", "msd_s2"])
@pytest.mark.parametrize("text,labels", NEGATIONS)
def test_negations_match_complement_route(systems, sysname, text, labels,
                                          checked, monkeypatch):
    env = Environment()
    env.add_system(systems[sysname])
    def_predicate(env, "p", f"?{sysname} a+1<2*b")
    trace = []
    pushed, free, _ = compile_formula(env, f"?{sysname} {text}", trace=trace)
    assert {label for label, _ in trace} >= labels
    if "~" not in labels:
        assert "~" not in {label for label, _ in trace}
    monkeypatch.setattr(_Compiler, "compile_negated",
                        lambda self, node: self.negate(self.compile(node)))
    plain, plain_free, _ = compile_formula(env, f"?{sysname} {text}")
    assert free == plain_free
    assert pushed.sha() == plain.sha()
