"""The packaged scripts s6-s12: every reproduction check passes, and every
machine a script defines is byte-identical to the pinned one.

The pins are ``Automaton.sha()`` of each stored predicate (its canonical
text), read back from the session directory the script wrote.  A kernel
or compiler change that alters any machine the scripts build fails here
by name, even when the machine still passes its checks.  The same runs
count the products each section builds.
"""
from math import isqrt

import numpy as np
import pytest

from obd import _kernels
from obd.automata import Automaton, nletters
from obd.logic import Environment
from obd.relations import canonical_recognizer
from obd.repro import FAST_SECTIONS, SCRIPT_DIR, SLOW_SECTIONS, _run_check, run_section
from obd.session import Session, split_commands
from conftest import assert_rows_invariant

PINNED = {
    "s6": {
        "F": "11fbf1a7bac23adbe4c5fd99fdd87f66cdf8f5fcabfa107e7066bab5ff8a6e24",
        "beatty": "c844a48b718d385cdb745311eeff985b349645f44f14bfaac76756b1b1b1dcbe",
        "beattyg": "35cd62b303161dbfc25ce792923e6dde44c8ea28f6eccac4e05061017c1dfe67",
        "shift13": "de431d08bb1afb62db8737efde43ef3a05056bdf12ddf91101dc3418889b0ac1",
    },
    "s7": {
        "F": "11fbf1a7bac23adbe4c5fd99fdd87f66cdf8f5fcabfa107e7066bab5ff8a6e24",
        "eta": "4c2e082ec5b83dd8311cff92e24c6ee7858dd5b24b5be607a508c71ef5c250e1",
        "iseta": "4f7844a9c0a61a7149bd2667a7d0e8bcf9a11ddcba91ff161fddee82c2d290c7",
        "phin": "c379944fcd1430eaba693461c070bd3076a8670dce62f0310f57493945a09462",
        "shift": "c1824c329f76c905b4ab740536b94b895a9b3ab415f1c632e2b0825ca7784e5c",
    },
    "s8": {
        "F": "11fbf1a7bac23adbe4c5fd99fdd87f66cdf8f5fcabfa107e7066bab5ff8a6e24",
        "a189377": "ba72157bc1c7da91e311cc973a32a3576536b6ff22496d4a26b1895034879395",
        "a189378": "0463469608664be34aaa252100041c917bb9c0bd181b1e6e4a40c268e4707588",
        "a189379": "4a8028d40dbba36ee57e2b14bcba5fe3b70744113ebf25a74debc77ad323f9b8",
        "fib_one": "1ee30afadad00d65f830c2420d73fb000407476cd5a0669b280af4c23b72e46b",
        "fibrs": "10d4631e569a62d9f50e0885937341a5fd9164a7a34c6adc8eb6b6b7785aa1ca",
        "fibrt": "a78c69ccfaad4ef72e7266e7e29b4af584cedf6bd0d3abbbdc968f8b1410f083",
        "fibsr": "cfc4fcbdb4b128dc70d2e8611247358a96d42e318edc87faf79a2e2c6a8decec",
        "fibst": "3815bffb2b454e930607153d90fe6ec4ced4d83a4c0a904f63447cd430063703",
        "fibtr": "3ca8f7fa716957abf7815b05ff2b857192efbf965b9a13e9c3100fc7423a0d76",
        "fibts": "0c1d4dc23632634a3a364652bd5ef5fb426bd9e587fad4e130d3688154ed849f",
        "phin": "c379944fcd1430eaba693461c070bd3076a8670dce62f0310f57493945a09462",
        "reble1": "551480d2fdbd4bdd8f09d4f6a7207861da4d4b90d5d155a6826f4069f8ace595",
        "reble2": "c93e38390046a61c22b155c32321466b715356056b7e8991a76b28233ce63bdc",
        "reble3": "6953b4aaa3565927a6c9710c0bcd65ae4dc49b24a886fc4cc90f8b60f8f4b535",
        "shift": "c1824c329f76c905b4ab740536b94b895a9b3ab415f1c632e2b0825ca7784e5c",
        "three0": "ba608e56965bfbd0e80df612d939fb5f892ea8bf3a327f7635849e9359e710e7",
        "three1": "6953b4aaa3565927a6c9710c0bcd65ae4dc49b24a886fc4cc90f8b60f8f4b535",
    },
    "s9": {
        "F": "11fbf1a7bac23adbe4c5fd99fdd87f66cdf8f5fcabfa107e7066bab5ff8a6e24",
        "a": "54c56e09c15338af04dde01f986ec8f41038b2818297a53f213723c283e1196f",
        "ai": "40968c578289ea6a9df364489a1b99a7c3307c0e2c402552b0a92a8e1bc77ff1",
        "ainv": "40968c578289ea6a9df364489a1b99a7c3307c0e2c402552b0a92a8e1bc77ff1",
        "b": "9c6e65201bf26ea9cfbe2399634eac2a46e151ad8dfa1658c8be04f70f7fc290",
        "bi": "0c3aa4b92c7f3d6931f96a7d9df0bb1a67a50ad4e97e5ffd9db4828324bceaff",
        "binv": "0c3aa4b92c7f3d6931f96a7d9df0bb1a67a50ad4e97e5ffd9db4828324bceaff",
        "c": "c379944fcd1430eaba693461c070bd3076a8670dce62f0310f57493945a09462",
        "ctw": "3c899fdb03ef4020ad3164c8c283b5817c8864d53b7080c3da956db426dfe375",
        "ctwid": "3bee127df3a95657bd0295aafb2455d5a658b03f692aab3978530b22ed2f6425",
        "diff": "06666689553c07f76a62e9d0a728e12053e229980097e9730396555e162d8074",
        "diff0": "308f948d4373ad4fa801ab040f91e193d7a8bc046d21868277c43dd60ab36083",
        "diff1": "d30c6aacf2026c10b8c9430f03bab9319111ebc14aaf3825a201df0be816c77f",
        "diff2": "507eae5089ceba77b475d47ef444d55aae447c7c26e0729c27439484796361d5",
        "has11": "fe38d4c0b3009e91e3c1b998fcc6e57bcfbdd4cae5716f8d19a72a42b0734d2f",
        "phin": "c379944fcd1430eaba693461c070bd3076a8670dce62f0310f57493945a09462",
        "shift": "c1824c329f76c905b4ab740536b94b895a9b3ab415f1c632e2b0825ca7784e5c",
    },
    "s10": {
        "F": "11fbf1a7bac23adbe4c5fd99fdd87f66cdf8f5fcabfa107e7066bab5ff8a6e24",
        "chk1": "a7d0717fcd87e642088ec7e5deeeeab91334e06e1e8645e5f462a9bb2dbed8d0",
        "chk2": "a7d0717fcd87e642088ec7e5deeeeab91334e06e1e8645e5f462a9bb2dbed8d0",
        "even": "1924113f52528f05cd6d83ba57ada6e99b1578e594f92ed132318b6f96d0c827",
        "half": "04362168d3a0c66aee9e369436219599cc1a64eb0b619328bd9351146301c213",
        "index": "93b2538fdf2759485c971a72cc5a60d0d195e5bc14b48a1ce64b7899941c445a",
        "leastindex": "b3d2f2a6ae32f97474fbedb3f3a5e0147797f7458d1adbfd2420073beca6ac24",
        "leswap": "6168882e91bfed54760fc767bb40636599e1963ba46a5c619154bba97ca957d7",
        "loswap": "76331771e7c77e8f7a64c538a89bac72b2dc3af0483c7d95b81f6611f36e303b",
        "odd": "ff79684450c90d914a37210e9d7652f67b7a762b9fd3a29f5f3b8a33f9c81224",
        "phi2n": "0c1d4dc23632634a3a364652bd5ef5fb426bd9e587fad4e130d3688154ed849f",
        "phi3n": "9c6e65201bf26ea9cfbe2399634eac2a46e151ad8dfa1658c8be04f70f7fc290",
        "phin": "c379944fcd1430eaba693461c070bd3076a8670dce62f0310f57493945a09462",
        "shift": "c1824c329f76c905b4ab740536b94b895a9b3ab415f1c632e2b0825ca7784e5c",
        "swap": "6168882e91bfed54760fc767bb40636599e1963ba46a5c619154bba97ca957d7",
        "ueswap": "ad00d68889a7cc77126822668ce368fb2cf32168d8a1a77661a44dd250881714",
        "uoswap": "7f0f004c01fc14334af3904bd960dc9ed4419769707912aebcb98e9f1e1850fb",
        "uphalf": "7009a84f92f1a69ef1d3f07dfc91323a102f9e82ba51f5be116e9040012362be",
    },
    "s12": {
        "F": "11fbf1a7bac23adbe4c5fd99fdd87f66cdf8f5fcabfa107e7066bab5ff8a6e24",
        "a001951": "54ad2a3dcd64d218be11acf00209a3732272dd14129be2427d6d1cd47243a5d4",
        "a003151": "92feb597c140686b4b6d91d6686724989ddc37ba01e8038a29e39337c1754d35",
        "a080754": "57b6434fd4c083ab196854744018d23618b433d0f4f64e39f38843ad9be22385",
        "a097508": "8d2aaffdb3e1d063104140f0134bfb1bd6772058b7115728c16031ab22b26989",
        "a097509": "a770978e45ebca7863ed7cad7f8a7b00ed24095739f997e7f00b211e2bdc622d",
        "a276862": "c9e4f769a95fadeebeaa6387d1b922f8ed9078878afd9d6f3bbd3c75c5d599c8",
        "b": "4c07bddd09799fc83fa00ac8594b42d989dab51e57a7071029c5680f944f2403",
        "shift1": "d110dde0b4443b4a9eb2bf90b7c7bd1ec85a88358c99fcd7381f49f4f56931a5",
        "three_times": "77e134f54098225634b49dec911fc85f8dc8d4244ac31e45a0fd9503b72a2947",
    },
}


# Upper bounds on what one run of a section builds with
# ``_kernels.pair_product``, its checks included: (calls, product states
# before minimisation, states of the largest product).  The five
# compile-small sections make 288 calls over 13 699 states (295 over
# 14 027 when every connective built canon(k), its branch reading it or
# not, where s7 made 15 over 375, s8 65 over 1 616, s9 65 over 3 599,
# s10 90 over 7 404 and s12 60 over 1 033; 300 when each floor division
# ``t/c`` was the intersection of two ``<=`` atoms, where s7 made 16 over
# 398 states, s8 67 over 1 697 and s10 92 over 7 530; 391 when every
# ``&`` where neither side spans met canon(k) first, however small its
# product, 467
# when ~ and A complemented twice where pushing the negation inward
# complements once or not at all and canon(k) was rebuilt from k lifted
# copies of canon(1), 590 when every applied def machine was intersected
# again with the canonical-word recognizer it already lies inside, 674
# when the linear atoms intersected the union of their per-residue pieces
# with it, 841 when every connective also intersected both widened
# operands with it).  Before ``&`` took its canon step by size, s7-s12
# made (23, 493), (81, 1 916), (82, 4 002), (119, 9 169) and (86, 1 409).
# s6 makes 23 calls over 13 246 states (25 over 13 731 with the two
# ``<=`` atoms per division, 28 over 13 769 with the canon
# step in every such ``&``, 36 over 14 178 with the double complements,
# 46 over 16 646 when each linear atom over its period-2 system unioned
# two per-residue pieces).  Its largest product, in ``check2``, is the
# one the ``&`` canon step holds at 7 274 states (10 060 without it);
# skipping the step on s9's small products raised its largest from 360
# to 370.
# A compiler or atom builder change that adds products back, or drops
# that step where it pays, fails here by name, with no timing involved.
PRODUCTS = {
    "s6": (23, 13246, 7274),
    "s7": (14, 367, 148),
    "s8": (63, 1592, 145),
    "s9": (64, 3583, 370),
    "s10": (89, 7148, 807),
    "s12": (58, 1009, 92),
}


def failed_checks(section, tmp_path):
    return [f"{r.label}: {r.detail}" for r in run_section(section, tmp_path)
            if not r.ok]


def stored_digests(section, tmp_path):
    sess = Session.load(tmp_path / section, out=lambda line: None)
    return {name: pred.automaton.sha() for name, pred in sess.env.predicates.items()}


@pytest.mark.parametrize("section", FAST_SECTIONS)
def test_section(section, tmp_path, monkeypatch):
    built = []
    product = _kernels.pair_product

    def counted(*args):
        out = product(*args)
        built.append(len(out[1]))  # one row per product state
        return out
    monkeypatch.setattr(_kernels, "pair_product", counted)
    inside = []  # def machines, which calls apply without the canon product
    add = Environment.add_predicate

    def recorded(env, pred):
        if pred.canon_of is not None:
            inside.append(pred)
        return add(env, pred)
    monkeypatch.setattr(Environment, "add_predicate", recorded)
    assert failed_checks(section, tmp_path) == []
    calls, states, largest = PRODUCTS[section]
    assert len(built) <= calls
    assert sum(built) <= states
    assert max(built) <= largest
    assert stored_digests(section, tmp_path) == PINNED[section]
    assert inside
    for pred in inside:
        canon = canonical_recognizer(pred.canon_of, pred.automaton.arity)
        assert pred.automaton.andnot(canon).is_empty(), pred.name


def assert_no_arrays(aut):
    """Every field of `aut` is a plain Python value, no numpy array."""
    assert not any(isinstance(getattr(aut, name), np.ndarray)
                   for name in Automaton.__slots__)


@pytest.mark.parametrize("section,upto", [("s6", "beatty"), ("s7", None), ("s8", None),
                                          ("s9", None), ("s10", None), ("s12", None)])
def test_canonical_hand_over(section, upto, monkeypatch):
    """Over the packaged fast scripts (s6 up to ``def beatty``), every
    machine ``Automaton._canonical`` receives starts in state 0 and has
    tuple rows in strictly increasing letter order with targets in range,
    and every machine it returns meets the rows invariant; no field of
    either is a numpy array."""
    canonical = Automaton._canonical
    given = []

    def checked(aut):
        nl, n = nletters(aut.arity, aut.dmax), aut.n_states
        assert aut.initial == 0 and len(aut.rows) == len(aut.succ) == n
        for row, out in zip(aut.rows, aut.succ):
            assert type(row) is tuple and len(row) == len(out)
            assert list(row) == sorted(set(row)) and all(0 <= c < nl for c in row)
            assert all(0 <= t < n for t in out)
        assert_no_arrays(aut)
        got = canonical(aut)
        assert_rows_invariant(got.rows, got.succ, got.accepting)
        assert_no_arrays(got)
        given.append(n)
        return got
    monkeypatch.setattr(Automaton, "_canonical", checked)
    commands = split_commands((SCRIPT_DIR / f"{section}.obd").read_text(encoding="utf-8"))
    if upto is not None:
        commands = commands[:1 + [c.split()[:2] for c, _ in commands].index(["def", upto])]
    sess = Session("unused", out=lambda line: None, persist=False)
    for command, terminator in commands:
        sess.execute(command, terminator)
    assert given


def test_output_checks_leave_the_word_automaton():
    """``output_equals``, and through it repro's outputs_within check,
    hand ``_canonical`` copies of the target rows, which it renumbers in
    place: s9's combined word automaton keeps its rows and target rows."""
    sess = Session("unused", out=lambda line: None, persist=False)
    sess.run_script((SCRIPT_DIR / "s9.obd").read_text(encoding="utf-8"))
    aut = sess.env.predicate("diff").automaton
    rows, succ = list(aut.rows), [list(out) for out in aut.succ]
    assert _run_check(sess, {}, ("outputs_within", "diff", {0, 1, 2}))[0]
    for value in sorted(set(aut.outputs)):
        aut.output_equals(value)
    assert aut.rows == rows and aut.succ == succ


@pytest.mark.parametrize("section", ["s9", "s12"])
def test_replay_matches_load(section, tmp_path):
    # replaying the journal rebuilds every stored machine byte for byte,
    # the word automata s9 combines included, and writes nothing
    run_section(section, tmp_path, out=lambda line: None)
    replayed = Session.replay(tmp_path / section)
    assert not (tmp_path / section / "_replay").exists()
    assert {name: pred.automaton.sha() for name, pred in
            replayed.env.predicates.items()} == stored_digests(section, tmp_path)


# s11's a276873 as packaged quantifies m, n, x and y together: one subset
# construction over a 5-track conjunction, about 30 s and 155 MB for the
# whole script, so the section stays slow for its time only.  The same
# sentence with each variable quantified next to its last use builds in
# seconds; its machines are pinned here by the first 16 hex digits of sha().
S11_SCOPED = {
    "beatty7": "5d0db0da986ebd32",
    "beat7": "ab76cbddac71c2ee",
    "a276873": "b56cb1f1847d7334",
}


def test_s11_scoped_by_hand():
    sess = Session("unused", out=lambda line: None, persist=False)
    text = (SCRIPT_DIR / "s11.obd").read_text(encoding="utf-8")
    sess.run_script(text[:text.index("def a276873")])
    sess.execute('def a276873 "?msd_sqrt7 ~Em,n (m>=1 & n>=1) & '
                 'Ex $beat7(m,x) & Ey $beat7(n,y) & z+x=y"', ";")
    preds = sess.env.predicates
    assert {name: preds[name].automaton.sha()[:16] for name in S11_SCOPED} \
        == S11_SCOPED
    aut = preds["a276873"].automaton
    assert aut.live_states == 6961
    # z = floor(n*sqrt 7) - floor(m*sqrt 7) for 1 <= m <= n, in integers
    terms = [isqrt(7 * n * n) for n in range(1, 2000)]
    gaps = {b - a for i, a in enumerate(terms) for b in terms[i:i + 400]}
    system = sess.env.systems["msd_sqrt7"]
    assert {z for z in range(400) if aut.accepts_values((z,), system)} == \
        set(range(400)) - gaps


# The packaged text of s11 checks the exact state counts of beatty7, beat7
# and a276873.
@pytest.mark.slow
@pytest.mark.parametrize("section", SLOW_SECTIONS)
def test_slow_section(section, tmp_path):
    assert failed_checks(section, tmp_path) == []
