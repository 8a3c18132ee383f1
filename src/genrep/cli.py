"""Command-line surface over the universes, embeddings, and oracles.

Exit codes: 0 success (or "conforms"), 1 non-conformance, property failures,
malformed values, or values nested too deeply for Python's recursion limit,
2 usage and parse errors (including unknown indices and code or env text
nested too deeply). Every error writes one stderr line prefixed "error:".
Values parse and print in loops, and == and hash compare identities, since
equal values are one object; conformance, maps and conversions recurse per
layer, as does the code parser, so those meet the limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# dsl and oracle load where a command first parses text or enumerates, so
# a command that does neither compiles neither.
from . import corpus, embed, instant
from .gvalue import (
    GenericValue,
    IndexNotInSet,
    MalformedValue,
    ParseError,
    UnknownProperty,
    print_label,
    print_value,
)

# (source, target) -> the name of the conversion step between them
_PAIRS = {(row.source, row.target): step for step, row in embed.STEPS.items()}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(2)


# flag or positional -> its argparse options; "--env!" is a required --env
_FLAGS = {
    "--universe": {"required": True, "choices": embed.UNIVERSES},
    "--from": {"dest": "src", "required": True, "choices": embed.UNIVERSES},
    "--to": {"dest": "dst", "required": True, "choices": embed.UNIVERSES},
    "--code": {"required": True},
    "--value": {"required": True},
    "--dir": {"dest": "direction", "required": True, "choices": ("fwd", "bwd")},
    "--max-size": {"type": int, "required": True},
    "--index": {},
    "--env": {},
    "--env!": {"required": True},
    "names": {"nargs": "*", "metavar": "NAME"},
}

# command -> (help, flags in order)
_SYNTAX = {
    "check": ("conformance of a value against a code",
              "--universe --code --value --index --env"),
    "lift": ("print a lifted code in canonical syntax", "--from --to --code"),
    "convert": ("convert a value along an embedding",
                "--from --to --code --value --dir --index"),
    "roundtrip": ("exhaustive isomorphism suite", "--from --to --code --max-size"),
    "enum": ("list all conforming values up to a size",
             "--universe --code --max-size --index --env"),
    "laws": ("functor-law suite for one code", "--universe --code --max-size"),
    "size": ("crush-based size of an instant value", "--env! --code --value"),
    "props": ("run property suites over the corpus", "names --max-size"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="genrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SYNTAX.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            command.add_argument(flag.rstrip("!"), **_FLAGS[flag])
    return parser


# ---------------------------------------------------------------------------
# argument resolution


def _resolve_code(universe: str, text: str, env=None):
    named = corpus.CODES[universe]
    if text in named:
        return named[text]
    if env is not None and text in env:
        return env[text]
    from . import dsl
    return _parse_code_text(dsl.parse_code, universe, text)


def _parse_code_text(parse, *args):
    """Run a code or env parser, reporting a RecursionError as the text's nesting."""
    try:
        return parse(*args)
    except RecursionError:
        raise UsageError("code nests too deeply for the recursion limit") from None


def _resolve_value(text: str) -> GenericValue:
    if text in corpus.VALUES:
        return corpus.VALUES[text]
    from . import dsl
    return dsl.parse_value(text)


def _resolve_env(text: str):
    """A corpus env name, a readable UTF-8 file, or else env text."""
    if text in corpus.INSTANT_ENVS:
        return corpus.INSTANT_ENVS[text]
    path = Path(text)
    try:
        is_path = text != "" and path.exists()  # Path("") is the current directory
    except OSError:  # too long to name a file, for one
        is_path = False
    if is_path:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            raise UsageError(f"cannot read env file {text}: {err.strerror}") from None
        except UnicodeDecodeError:
            raise UsageError(f"env file {text} is not UTF-8 text") from None
    from . import dsl
    return _parse_code_text(dsl.parse_env, text)


def _env(args):
    """The environment a code of a universe that needs one refers into,
    which --env must give; other universes ignore --env."""
    if not embed.UNIVERSES[args.universe].needs_env:
        return None
    if args.env is None:
        raise UsageError(f"{args.command} in the {args.universe} universe needs --env")
    return _resolve_env(args.env)


def _context(universe: str, code, index: str | None, env=None) -> embed.PathContext:
    """Where the command reads ``code``: at --index or at the first index of
    the code's family; universes without indices ignore --index."""
    at = None
    if index is not None and embed.family(universe, code) is not None:
        from . import dsl
        at = dsl.parse_label(index)
    found = embed.contexts(universe, code, env, at)
    if not found:
        raise UsageError(f"the code's {embed.UNIVERSES[universe].family_word} is empty")
    return found[0]


def _budget(max_size: int):
    from . import oracle
    try:
        return oracle.EnumBudget(max_size=max_size)
    except ValueError as err:
        raise UsageError(str(err)) from None


# ---------------------------------------------------------------------------
# commands


def _cmd_check(args) -> int:
    env = _env(args)
    code = _resolve_code(args.universe, args.code, env)
    ctx = _context(args.universe, code, args.index, env)
    ok = embed.conforms(ctx, _resolve_value(args.value))
    print("conforms" if ok else "does not conform")
    return 0 if ok else 1


def _step(src: str, dst: str) -> str:
    if (src, dst) not in _PAIRS:
        pairs = ", ".join(f"{a}:{b}" for a, b in sorted(_PAIRS))
        raise UsageError(f"no embedding from {src} to {dst}; pairs are {pairs}")
    return _PAIRS[(src, dst)]


def _cmd_lift(args) -> int:
    from . import dsl
    step = _step(args.src, args.dst)
    code = _resolve_code(args.src, args.code)
    if not embed.UNIVERSES[args.dst].needs_env:
        print(dsl.print_code(args.dst, embed.STEPS[step].lift(code)))
        return 0
    _context(args.src, code, None)  # an empty output set lifts to nothing: name it
    outs, env = embed.STEPS[step].lift(code)
    for out, out_code in outs.items():
        print(f"out {print_label(out)} = {dsl.print_code(args.dst, out_code)}")
    print(dsl.print_env(env), end="")
    return 0


def _cmd_convert(args) -> int:
    step = _step(args.src, args.dst)
    code = _resolve_code(args.src, args.code)
    v = _resolve_value(args.value)
    direction = "forward" if args.direction == "fwd" else "backward"
    start = _context(args.src, code, args.index)
    print(print_value(embed.compose_path([step], start, v, direction)))
    return 0


def _print_report(report) -> int:
    for v, direction, reason in report.failures:
        print(f"failure: {direction} {print_value(v)}: {reason}")
    print(f"checked {report.checked_count}")
    print(f"{len(report.failures)} failures")
    return 0 if report.ok() else 1


def _cmd_roundtrip(args) -> int:
    from . import oracle
    step = _step(args.src, args.dst)
    code = _resolve_code(args.src, args.code)
    budget = _budget(args.max_size)
    _context(args.src, code, None)  # names an empty family, as check and enum do
    report = oracle.run_property(f"iso-{step}", {args.code: code}, budget)
    return _print_report(report)


def _cmd_enum(args) -> int:
    from . import oracle
    budget = _budget(args.max_size)
    env = _env(args)
    code = _resolve_code(args.universe, args.code, env)
    for v in oracle.enum_context(_context(args.universe, code, args.index, env), budget):
        print(print_value(v))
    return 0


def _cmd_laws(args) -> int:
    from . import oracle
    names = [name for name, (key, _, _) in oracle.LAWS.items() if key == args.universe]
    if not names:
        *most, last = [name for name, row in embed.UNIVERSES.items() if row.mapper is not None]
        raise UsageError(f"laws supports {', '.join(most)}, and {last}")
    code = _resolve_code(args.universe, args.code)
    budget = _budget(args.max_size)
    _context(args.universe, code, None)  # names an empty family
    combined = embed.ConversionReport()
    for name in names:
        report = oracle.run_property(name, {args.code: code}, budget)
        combined.checked_count += report.checked_count
        combined.failures.extend(report.failures)
    return _print_report(combined)


def _cmd_size(args) -> int:
    env = _resolve_env(args.env)
    code = _resolve_code("instant", args.code, env)
    v = _resolve_value(args.value)
    print(instant.size_ig(env, code, v))
    return 0


def _cmd_props(args) -> int:
    from . import oracle
    unknown = [name for name in args.names if name not in oracle.property_names()]
    if unknown:
        raise UnknownProperty(f"unknown property: {unknown[0]}")
    budget = _budget(args.max_size)
    failed = False
    for name in args.names or oracle.property_names():
        report = oracle.run_property(name, budget=budget)
        print(f"{'ok' if report.ok() else 'FAIL'} {name}: checked {report.checked_count}")
        for v, direction, reason in report.failures:
            print(f"  failure: {direction} {print_value(v)}: {reason}")
        failed = failed or not report.ok()
    return 1 if failed else 0


_COMMANDS = {
    "check": _cmd_check,
    "lift": _cmd_lift,
    "convert": _cmd_convert,
    "roundtrip": _cmd_roundtrip,
    "enum": _cmd_enum,
    "laws": _cmd_laws,
    "size": _cmd_size,
    "props": _cmd_props,
}


# Every error a command may raise, with the exit code it maps to.
_EXIT_CODES = {
    UsageError: 2,
    ParseError: 2,
    IndexNotInSet: 2,
    UnknownProperty: 2,
    MalformedValue: 1,
    RecursionError: 1,
    MemoryError: 1,
}


def _message(err: Exception) -> str:
    # A RecursionError names no input. Code text reports its own nesting
    # (_parse_code_text), so this one came from walking a value.
    if isinstance(err, RecursionError):
        return "value nests too deeply for the recursion limit"
    if isinstance(err, MemoryError):
        return "out of memory"
    return str(err)


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code is None else int(err.code)
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {_message(err)}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)

