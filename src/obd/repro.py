"""Reproduction driver: run the packaged scripts and check every claim.

Each section runs in a private session fed from ``scripts/<section>.obd``,
then a list of checks is evaluated: expected state counts, TRUE verdicts,
fixture rows (committed verbatim), exact-arithmetic oracles for the
function synchronizers, and output-alphabet constraints for combined word
automata.  ``reproduce`` prints one line per check and can write a
JUnit-style XML report.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

from .relations import canonical_recognizer
from .session import Session

SCRIPT_DIR = Path(__file__).parent / "scripts"

FAST_SECTIONS = ("s6", "s7", "s8", "s9", "s10", "s12")
SLOW_SECTIONS = ("s11",)


# -- exact-arithmetic oracles (integer square roots only) -------------------

def _floor_phi(n: int) -> int:
    """floor(n * (1+sqrt(5))/2) for n >= 0."""
    return (n + isqrt(5 * n * n)) // 2


def _beatty_s6(n: int) -> int:
    """floor(n*(sqrt(21)-1)/2 + (sqrt(21)+3)/4)."""
    return (isqrt(21 * (2 * n + 1) ** 2) + 3 - 2 * n) // 4


def _eta(n: int) -> int:
    """floor(n*phi + 1/2)."""
    return (_floor_phi(2 * n) + 1) // 2


def _hll_a(n: int) -> int:
    return _floor_phi(3 * n) + 2 * n  # floor(n*phi^4)


def _hll_b(n: int) -> int:
    return _floor_phi(2 * n) + n  # floor(n*phi^3)


def _leswap(n: int) -> int:
    return 2 * ((n + _floor_phi(n)) // 2)


def _ueswap(n: int) -> int:
    return 2 * ((n + _floor_phi(n) + 1) // 2)


def _a097508(n: int) -> int:
    return isqrt(2 * n * n) - n


def _a001951(n: int) -> int:
    return isqrt(2 * n * n)


def _a003151(n: int) -> int:
    return isqrt(2 * n * n) + n


def _a080754(n: int) -> int:
    return _a003151(n) + 1 if n > 0 else 0


ORACLE_SPAN = 10_000

# fixture rows committed verbatim from the source table (n = 0..16)
TABLE_ROWS = {
    "a097508": "0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6",
    "a001951": "0, 1, 2, 4, 5, 7, 8, 9, 11, 12, 14, 15, 16, 18, 19, 21, 22",
    "a003151": "0, 2, 4, 7, 9, 12, 14, 16, 19, 21, 24, 26, 28, 31, 33, 36, 38",
    "a276862": "2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 3",
    "a097509": "3, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 3",
    "a080754": "0, 3, 5, 8, 10, 13, 15, 17, 20, 22, 25, 27, 29, 32, 34, 37, 39",
    "b": "2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 3, 2, 3, 2",
}

# per-section checks, evaluated after the script has run
CHECKS = {
    "s6": [
        ("states", "beattyg", 32),
        ("states", "beatty", 59),
        ("true", "check2"),
        ("oracle2", "beatty", _beatty_s6),
    ],
    "s7": [
        ("true", "test"),
        ("oracle2", "eta", _eta),
    ],
    "s8": [
        ("true", "fibword"),
        ("true", "rebleconj1"),
        ("true", "rebleconj2"),
        ("true", "rebleconj3"),
    ],
    "s9": [
        ("true", "no_inter"),
        ("true", "check4"),
        ("true", "check5"),
        ("oracle2", "a", _hll_a),
        ("oracle2", "b", _hll_b),
        ("oracle2", "c", _floor_phi),
        ("outputs_within", "diff", {0, 1, 2}),
    ],
    "s10": [
        ("true", "chk1true"),
        ("true", "chk2true"),
        ("true", "checkeven"),
        ("true", "checkodd"),
        ("true", "kimber"),
        ("true", "uo_step"),
        ("true", "lo_step"),
        ("true", "ue_total"),
        ("true", "lo_total"),
        ("oracle2", "leswap", _leswap),
        ("oracle2", "ueswap", _ueswap),
    ],
    "s11": [
        ("states", "beatty7", 65),
        ("states", "beat7", 96),
        ("states", "a276873", 6961),
        ("rejects", "a276873", (0,)),
    ],
    "s12": [
        ("true", "dek"),
        ("true", "check_equality"),
        ("true", "check1"),
        ("true", "check2"),
        ("true", "check3"),
        ("oracle2", "a097508", _a097508),
        ("oracle2", "a001951", _a001951),
        ("oracle2", "a003151", _a003151),
        ("oracle2", "a080754", _a080754),
    ] + [("enum", name, 17, row) for name, row in TABLE_ROWS.items()],
}


@dataclass
class CheckResult:
    section: str
    label: str
    ok: bool
    detail: str
    elapsed: float


def _run_check(sess: Session, printed: dict, check) -> tuple[bool, str]:
    kind, name = check[0], check[1]
    if kind == "states":
        got = sess.env.predicate(name).state_count
        return got == check[2], f"{got} states (want {check[2]})"
    if kind == "true":
        got = printed.get(name)
        return got == "TRUE", f"{name}: {got}"
    if kind == "enum":
        got = sess.execute(f"enum {name} {check[2]}", ";")
        return got == check[3], f"{got!r} (want {check[3]!r})"
    if kind == "rejects":
        pred = sess.env.predicate(name)
        system = sess.env.systems[pred.system_name]
        hit = pred.automaton.accepts_values(check[2], system)
        return not hit, f"{name} accepts {check[2]}: {hit}"
    if kind == "outputs_within":
        pred = sess.env.predicate(name)
        system = sess.env.systems[pred.system_name]
        canon = canonical_recognizer(system, 1)
        stray = []
        for value in sorted(set(int(v) for v in pred.automaton.outputs)):
            if value in check[2]:
                continue
            if not pred.automaton.output_equals(value).intersect(canon).is_empty():
                stray.append(value)
        return not stray, f"outputs off the canonical inputs: {stray or check[2]}"
    if kind == "oracle2":
        pred = sess.env.predicate(name)
        system = sess.env.systems[pred.system_name]
        fn = check[2]
        for n in range(1, ORACLE_SPAN):
            want = fn(n)
            if not pred.automaton.accepts_values((n, want), system):
                return False, f"{name}({n}) != {want}"
            if pred.automaton.accepts_values((n, want + 1), system):
                return False, f"{name}({n}) also matches {want + 1}"
        return True, f"agrees with exact arithmetic for n < {ORACLE_SPAN}"
    raise ValueError(f"unknown check kind {kind!r}")


def run_section(section: str, base_dir: Path, out=print) -> list[CheckResult]:
    script = SCRIPT_DIR / f"{section}.obd"
    printed: dict[str, str] = {}
    lines: list[str] = []

    def sink(line: str):
        lines.append(line)
        head, _, tail = line.partition(": ")
        if tail:
            printed[head.strip()] = tail.split("  (")[0].strip()

    sess = Session(Path(base_dir) / section, out=sink)
    t0 = time.perf_counter()
    sess.run_script(script.read_text(encoding="utf-8"))
    build = time.perf_counter() - t0

    results = [CheckResult(section, "script", True,
                           f"{len(sess.journal)} commands", build)]
    for check in CHECKS[section]:
        t0 = time.perf_counter()
        try:
            ok, detail = _run_check(sess, printed, check)
        except Exception as exc:  # a missing predicate is a finding, not a crash
            ok, detail = False, f"error: {exc}"
        results.append(CheckResult(section, f"{check[0]} {check[1]}", ok,
                                   detail, time.perf_counter() - t0))
    return results


def _write_junit(path: str, results: list[CheckResult]):
    import xml.etree.ElementTree as ET
    suites = ET.Element("testsuites")
    by_section: dict[str, list[CheckResult]] = {}
    for r in results:
        by_section.setdefault(r.section, []).append(r)
    for section, rows in by_section.items():
        suite = ET.SubElement(
            suites, "testsuite", name=section, tests=str(len(rows)),
            failures=str(sum(not r.ok for r in rows)),
            time=f"{sum(r.elapsed for r in rows):.3f}")
        for r in rows:
            case = ET.SubElement(suite, "testcase", classname=section,
                                 name=r.label, time=f"{r.elapsed:.3f}")
            if not r.ok:
                ET.SubElement(case, "failure", message=r.detail)
    ET.ElementTree(suites).write(path, encoding="unicode",
                                 xml_declaration=True)


def reproduce(section: str = "all", slow: bool = False, report: str | None = None,
              out=print) -> bool:
    if section == "all":
        sections = list(FAST_SECTIONS) + (list(SLOW_SECTIONS) if slow else [])
    else:
        if section not in FAST_SECTIONS + SLOW_SECTIONS:
            raise ValueError(f"unknown section {section!r}")
        sections = [section]
    results: list[CheckResult] = []
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="obd-repro-") as base:
        for name in sections:
            rows = run_section(name, base, out=out)
            results.extend(rows)
            ok = all(r.ok for r in rows)
            all_ok = all_ok and ok
            for r in rows:
                mark = "ok" if r.ok else "FAIL"
                out(f"  {name} {r.label}: {mark} ({r.detail}, {r.elapsed:.1f}s)")
            out(f"SECTION {name}: {'PASS' if ok else 'FAIL'} "
                f"({len(rows)} checks, {sum(r.elapsed for r in rows):.1f}s)")
    if report:
        _write_junit(report, results)
        out(f"report written to {report}")
    return all_ok
