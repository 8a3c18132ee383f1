#!/usr/bin/env python3
"""List the lines of ``src/genrep`` that the Tier-1 tests never run.

    python3 scripts/coverage.py [CHECKOUT]

CHECKOUT is the root of a genrep checkout, this one by default. The script
runs its Tier-1 tests (``python -m pytest -q``) with ``PYTHONPATH`` at its
``src``, under a ``sys.settrace`` tracer that records each line of
``src/genrep`` that runs. The tracer is a ``sitecustomize`` module put
first on ``PYTHONPATH``, so every Python process the tests start (the CLI
and script tests' children) is traced too, and writes what it saw when it
exits; no coverage package is needed. Then it prints each executable line
(one that holds a bytecode instruction) that no process ran, and exits 1
when one of them is outside ``ALLOWED`` or when a test fails.

A trace function that hits the recursion limit is switched off by
CPython, so in a process that overflows its stack the lines that run
after the ``RecursionError`` read as never run. The tracer is armed again
before each test; lines of a child process after such an error stay
unseen, which is why ``cli.py``'s recursion-limit messages are allowed.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, the stripped text of a line) -> why Tier-1 may leave it unrun
ALLOWED = {
    ("gvalue.py", "_remove_dead_weakref(table, key)"):
        "a node that died between two threads' lookups; reached only in a race",
    ("cli.py", 'raise UsageError("code nests too deeply for the recursion limit") from None'):
        "runs after a RecursionError in a child process, where tracing is off",
    ("cli.py", 'return "value nests too deeply for the recursion limit"'):
        "runs after a RecursionError in a child process, where tracing is off",
}

# The tracer: every process that starts with it on its path records the
# lines it runs in PACKAGE and writes them to OUT/<pid> when it exits. It
# is also loaded as a pytest plugin (``-p sitecustomize``), whose hook arms
# it again before each test.
_SITECUSTOMIZE = """
import atexit, os, sys, threading

PACKAGE, OUT = {package!r}, {out!r}
seen = set()


def _line(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(PACKAGE):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


def arm():
    if sys.gettrace() is not _call:
        sys.settrace(_call)


def _write():
    with open(os.path.join(OUT, str(os.getpid())), "w", encoding="utf-8") as out:
        out.writelines(f"{{path}}\\t{{line}}\\n" for path, line in seen)


def pytest_runtest_setup(item):
    arm()


threading.settrace(_call)
arm()
atexit.register(_write)
"""


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold an instruction of some code object."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(prog="coverage.py", description=__doc__.split("\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT,
                        help="root of the genrep checkout to measure (default: this one)")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    package = checkout / "src" / "genrep"
    if not package.is_dir() or not (checkout / "tests").is_dir():
        parser.error(f"no src/genrep and tests under {checkout}")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "seen"
        out.mkdir()
        text = _SITECUSTOMIZE.format(package=str(package) + os.sep, out=str(out))
        (Path(tmp) / "sitecustomize.py").write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((tmp, str(checkout / "src"))),
                   PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-p", "sitecustomize", "--continue-on-collection-errors"]
        tests = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
        seen: set[tuple[str, int]] = set()
        for log in out.iterdir():
            for entry in log.read_text(encoding="utf-8").splitlines():
                path, line = entry.split("\t")
                seen.add((path, int(line)))

    summary = tests.stdout.strip().splitlines()[-1] if tests.stdout.strip() else ""
    print(f"tests: {summary or f'pytest exit {tests.returncode}'}")
    total = missed = outside = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) in seen:
                continue
            text = source[line - 1].strip()
            why = ALLOWED.get((path.name, text))
            missed += 1
            outside += why is None
            print(f"src/genrep/{path.name}:{line}: {text}" + (f"  [allowed: {why}]" if why else ""))
    print(f"{missed} of {total} executable lines never run, {outside} outside the allowance")
    return 1 if outside or tests.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
