"""The ``obd`` command line: exit codes, and what read-only commands leave.

Exit codes are 0 on success, 1 for a formula or script error and 2 for a
system error (a missing file or session directory).
"""
import builtins
import tempfile
import xml.etree.ElementTree as ET

import pytest

from obd.cli import main
from obd.repro import reproduce

SCRIPT = 'def add "?msd_fib x+y=z":\n'
TWO_DEFS = SCRIPT + 'def sub "?msd_fib x=y+z":\n'


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_run_stores_the_machine(tmp_path):
    (tmp_path / "ok.obd").write_text(SCRIPT, encoding="utf-8")
    assert main(["run", "ok.obd", "--dir", "sess"]) == 0
    assert (tmp_path / "sess" / "add.aut").is_file()
    assert main(["info", "add", "--dir", "sess"]) == 0
    assert main(["enum", "add", "-3", "--dir", "sess"]) == 1


def test_bad_formula_exits_1(tmp_path, capsys):
    (tmp_path / "bad.obd").write_text('def bad "?msd_fib x+=z":\n',
                                      encoding="utf-8")
    assert main(["run", "bad.obd", "--dir", "sess"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_script_exits_2(tmp_path, capsys):
    assert main(["run", "nosuch.obd"]) == 2
    assert capsys.readouterr().err.startswith("system error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["info", "phin"],
    ["enum", "phin", "3"],
    ["export-dot", "phin"],
])
def test_read_only_command_on_missing_directory(tmp_path, capsys, argv):
    assert main(argv + ["--dir", "missingdir"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("system error: ") and "missingdir" in err
    assert not (tmp_path / "missingdir").exists()


def test_cut_meta_line_exits_1(tmp_path, capsys):
    (tmp_path / "two.obd").write_text(TWO_DEFS, encoding="utf-8")
    assert main(["run", "two.obd", "--dir", "sess"]) == 0
    meta = tmp_path / "sess" / "meta.jsonl"
    meta.write_bytes(meta.read_bytes()[:-20])
    capsys.readouterr()
    assert main(["info", "add", "--dir", "sess"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: load ") and "line 2" in err
    assert "Traceback" not in err


def test_meta_line_without_source_exits_1(tmp_path, capsys):
    (tmp_path / "ok.obd").write_text(SCRIPT, encoding="utf-8")
    assert main(["run", "ok.obd", "--dir", "sess"]) == 0
    meta = tmp_path / "sess" / "meta.jsonl"
    meta.write_text(meta.read_text(encoding="utf-8").replace('"source"', '"src"'),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["info", "add", "--dir", "sess"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: load ") and "line 1: KeyError: 'source'" in err
    assert "Traceback" not in err


def test_repl_keeps_reading_after_a_system_error(tmp_path, capsys,
                                                 monkeypatch):
    (tmp_path / "ok.obd").write_text(SCRIPT, encoding="utf-8")
    assert main(["run", "ok.obd", "--dir", "sess"]) == 0
    lines = iter(["export-dot add missing/x.dot;", "info add:"])

    def feed(prompt=""):
        try:
            return next(lines)
        except StopIteration:
            raise EOFError from None
    monkeypatch.setattr(builtins, "input", feed)
    capsys.readouterr()
    assert main(["repl", "sess"]) == 0
    out = capsys.readouterr().out
    assert "system error: " in out and "missing" in out
    assert "add: relation over msd_fib" in out


def test_redefined_system_in_use_exits_1(tmp_path, capsys):
    (tmp_path / "redef.obd").write_text(
        'ost x [0] [1 2]:\ndef lt "?msd_x a<b":\nost x [0] [2 2]:\n',
        encoding="utf-8")
    assert main(["run", "redef.obd", "--dir", "sess"]) == 1
    assert capsys.readouterr().err.startswith("error: ost: msd_x ")


def test_unknown_section_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["reproduce", "s99"])
    assert exit_info.value.code == 2
    assert "invalid choice: 's99'" in capsys.readouterr().err


def test_reproduce_writes_a_junit_report(tmp_path, capsys):
    assert main(["reproduce", "s7", "--report", "s7.xml"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in out
            if line.startswith("SECTION")] == ["SECTION s7: PASS"]
    suites = ET.parse(tmp_path / "s7.xml").getroot().findall("testsuite")
    assert [(s.get("name"), s.get("tests"), s.get("failures"))
            for s in suites] == [("s7", "3", "0")]


def test_reproduce_removes_its_sessions(tmp_path, monkeypatch):
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    assert reproduce("s7", out=lambda line: None)
    assert list(root.iterdir()) == []
