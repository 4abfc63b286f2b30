"""Command line entry point.

Exit codes: 0 success, 1 formula/script error, 2 system error (missing
files, bad invocation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .logic import LogicError
from .repro import FAST_SECTIONS, SLOW_SECTIONS, reproduce
from .session import Session, SessionError


def _open_session(directory: str) -> Session:
    """Load an existing session for a read-only command, creating nothing."""
    path = Path(directory)
    if not path.is_dir():
        raise FileNotFoundError(f"no session directory {directory!r}")
    return Session.load(path)


def cmd_run(args) -> int:
    script = Path(args.script)
    text = script.read_text(encoding="utf-8")
    directory = Path(args.dir) if args.dir else script.with_suffix(".session")
    sess = Session(directory)
    sess.run_script(text)
    return 0


def cmd_repl(args) -> int:
    sess = Session.load(Path(args.dir))
    print(f"session {sess.directory} "
          f"({len(sess.env.predicates)} predicates); "
          "end commands with :, ; or ::, Ctrl-D quits")
    buffer = ""
    while True:
        try:
            line = input("... " if buffer else "obd> ")
        except EOFError:
            print()
            return 0
        buffer += line + "\n"
        stripped = buffer.strip()
        if not stripped or stripped.startswith("#"):
            buffer = ""
            continue
        if not stripped.endswith((":", ";")):
            continue
        try:
            sess.run_script(buffer)
        except (SessionError, LogicError) as exc:
            print(f"error: {exc}")
        except OSError as exc:
            print(f"system error: {exc}")
        buffer = ""


def cmd_info(args) -> int:
    sess = _open_session(args.dir)
    print(sess.execute(f"info {args.name}", ";") or "")
    return 0


def cmd_enum(args) -> int:
    sess = _open_session(args.dir)
    print(sess.execute(f"enum {args.name} {args.count}", ";") or "")
    return 0


def cmd_export_dot(args) -> int:
    sess = _open_session(args.dir)
    target = f" {args.out}" if args.out else ""
    print(sess.execute(f"export-dot {args.name}{target}", ";") or "")
    return 0


def cmd_reproduce(args) -> int:
    ok = reproduce(args.section, slow=args.slow, report=args.report,
                   out=print)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obd",
        description="Ostrowski-automata decision procedure for Beatty "
                    "sequence statements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a script file")
    p.add_argument("script")
    p.add_argument("--dir", help="session directory "
                   "(default: <script>.session)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("repl", help="interactive prompt over a session")
    p.add_argument("dir", nargs="?", default=".obd-session")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("info", help="state count and kind of a predicate")
    p.add_argument("name")
    p.add_argument("--dir", default=".obd-session")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("enum", help="first values of a predicate: f(0), f(1), ... "
                       "for a word or a function, else accepted tuples by "
                       "representation length, then numerically")
    p.add_argument("name")
    p.add_argument("count", type=int)
    p.add_argument("--dir", default=".obd-session")
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("export-dot", help="write a predicate as a DOT graph")
    p.add_argument("name")
    p.add_argument("--out", help="output file (default: <name>.dot "
                   "in the session directory)")
    p.add_argument("--dir", default=".obd-session")
    p.set_defaults(fn=cmd_export_dot)

    p = sub.add_parser("reproduce", help="run a reproduction section")
    p.add_argument("section", choices=(*FAST_SECTIONS, *SLOW_SECTIONS, "all"),
                   help="a section of the paper, or all")
    p.add_argument("--slow", action="store_true",
                   help="include the long s11 computation")
    p.add_argument("--report", help="write a JUnit-style XML report here")
    p.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SessionError, LogicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"system error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
