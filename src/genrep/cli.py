"""Command-line surface over the universes, embeddings, and oracles.

Exit codes: 0 success (or "conforms"), 1 non-conformance, property failures,
or malformed values, 2 usage and parse errors (including unknown indices),
3 fuel exhaustion. Every error writes one stderr line prefixed "error:".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus, dsl, embed, indexed, instant, multirec, oracle, polyp, regular
from .dsl import ParseError
from .gvalue import (
    FuelExhausted,
    GenericValue,
    IndexLabel,
    IndexNotInSet,
    MalformedValue,
    TOP_SLOT,
    print_label,
    print_value,
)

_UNIVERSES = ("regular", "polyp", "multirec", "indexed", "instant")

# (source, target) -> the name of the conversion step between them
_PAIRS = {(source, target): step for step, (source, target, _, _) in embed.STEPS.items()}

# universe -> its functor-law suites, in registry order
_LAW_PROPERTIES = {
    universe: [name for name, (key, _, _) in oracle.LAWS.items() if key == universe]
    for universe in _UNIVERSES
}

_CORPUS_CODES = {
    "regular": corpus.REGULAR_CODES,
    "polyp": corpus.POLYP_CODES,
    "multirec": corpus.MULTIREC_CODES,
    "indexed": corpus.INDEXED_CODES,
    "instant": corpus.INSTANT_CODES,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="genrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="conformance of a value against a code")
    check.add_argument("--universe", required=True, choices=_UNIVERSES)
    check.add_argument("--code", required=True)
    check.add_argument("--value", required=True)
    check.add_argument("--index")
    check.add_argument("--fuel", type=int)
    check.add_argument("--env")

    lift = sub.add_parser("lift", help="print a lifted code in canonical syntax")
    lift.add_argument("--from", dest="src", required=True, choices=_UNIVERSES)
    lift.add_argument("--to", dest="dst", required=True, choices=_UNIVERSES)
    lift.add_argument("--code", required=True)

    convert = sub.add_parser("convert", help="convert a value along an embedding")
    convert.add_argument("--from", dest="src", required=True, choices=_UNIVERSES)
    convert.add_argument("--to", dest="dst", required=True, choices=_UNIVERSES)
    convert.add_argument("--code", required=True)
    convert.add_argument("--value", required=True)
    convert.add_argument("--dir", dest="direction", required=True, choices=("fwd", "bwd"))
    convert.add_argument("--index")

    roundtrip = sub.add_parser("roundtrip", help="exhaustive isomorphism suite")
    roundtrip.add_argument("--from", dest="src", required=True, choices=_UNIVERSES)
    roundtrip.add_argument("--to", dest="dst", required=True, choices=_UNIVERSES)
    roundtrip.add_argument("--code", required=True)
    roundtrip.add_argument("--max-size", type=int, required=True)

    enum = sub.add_parser("enum", help="list all conforming values up to a size")
    enum.add_argument("--universe", required=True, choices=_UNIVERSES)
    enum.add_argument("--code", required=True)
    enum.add_argument("--max-size", type=int, required=True)
    enum.add_argument("--index")
    enum.add_argument("--env")

    laws = sub.add_parser("laws", help="functor-law suite for one code")
    laws.add_argument("--universe", required=True, choices=_UNIVERSES)
    laws.add_argument("--code", required=True)
    laws.add_argument("--max-size", type=int, required=True)

    size = sub.add_parser("size", help="crush-based size of an instant value")
    size.add_argument("--env", required=True)
    size.add_argument("--code", required=True)
    size.add_argument("--value", required=True)

    return parser


# ---------------------------------------------------------------------------
# argument resolution


def _resolve_code(universe: str, text: str, env=None):
    named = _CORPUS_CODES[universe]
    if text in named:
        return named[text]
    if universe == "instant" and env is not None and text in env:
        return env[text]
    return dsl.parse_code(universe, text)


def _resolve_value(text: str) -> GenericValue:
    if text in corpus.VALUES:
        return corpus.VALUES[text]
    return dsl.parse_value(text)


def _resolve_env(text: str):
    if text in corpus.INSTANT_ENVS:
        return corpus.INSTANT_ENVS[text]
    path = Path(text)
    if path.exists():
        return dsl.parse_env(path.read_text(encoding="utf-8"))
    return dsl.parse_env(text)


def _resolve_index(text: str | None, fallback: IndexLabel | None) -> IndexLabel:
    if text is not None:
        return dsl.parse_label(text)
    if fallback is None:
        raise UsageError("an --index is required here")
    return fallback


def _budget(max_size: int) -> oracle.EnumBudget:
    try:
        return oracle.EnumBudget(max_size=max_size)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _first(labels) -> IndexLabel | None:
    for lbl in labels:
        return lbl
    return None


# ---------------------------------------------------------------------------
# commands


def _cmd_check(args) -> int:
    if args.universe == "instant":
        if args.env is None:
            raise UsageError("check in the instant universe needs --env")
        env = _resolve_env(args.env)
        code = _resolve_code("instant", args.code, env)
        v = _resolve_value(args.value)
        ok = instant.conform_ig(env, code, v, fuel=args.fuel)
    elif args.universe == "regular":
        code = _resolve_code("regular", args.code)
        ok = regular.conform_mu_r(code, _resolve_value(args.value))
    elif args.universe == "polyp":
        code = _resolve_code("polyp", args.code)
        ok = polyp.conform_mu_p(code, TOP_SLOT, _resolve_value(args.value))
    elif args.universe == "multirec":
        code = _resolve_code("multirec", args.code)
        at = _resolve_index(args.index, _first(code.indices))
        ok = multirec.conform_mu_m(code, at, _resolve_value(args.value))
    else:
        code = _resolve_code("indexed", args.code)
        at = _resolve_index(args.index, _first(code.outs))
        assign = oracle.standard_assign(code)
        ok = indexed.conform_i(code, assign, at, _resolve_value(args.value))
    print("conforms" if ok else "does not conform")
    return 0 if ok else 1


def _step(src: str, dst: str) -> str:
    if (src, dst) not in _PAIRS:
        pairs = ", ".join(f"{a}:{b}" for a, b in sorted(_PAIRS))
        raise UsageError(f"no embedding from {src} to {dst}; pairs are {pairs}")
    return _PAIRS[(src, dst)]


def _cmd_lift(args) -> int:
    _step(args.src, args.dst)
    code = _resolve_code(args.src, args.code)
    if (args.src, args.dst) == ("regular", "polyp"):
        print(dsl.print_code("polyp", embed.lift_r_to_p(code)))
    elif (args.src, args.dst) == ("regular", "multirec"):
        print(dsl.print_code("multirec", embed.lift_r_to_m(code)))
    elif (args.src, args.dst) == ("polyp", "indexed"):
        print(dsl.print_code("indexed", embed.lift_p_to_i(code)))
    elif (args.src, args.dst) == ("multirec", "indexed"):
        print(dsl.print_code("indexed", embed.lift_m_to_i(code)))
    else:
        table = oracle.standard_table(code)
        lifted, env = embed.lift_i_to_ig(code, table)
        for out, out_code in lifted.items():
            print(f"out {print_label(out)} = {dsl.print_code('instant', out_code)}")
        print(dsl.print_env(env), end="")
    return 0


def _source_context(universe: str, code, index: str | None) -> embed.PathContext:
    if universe == "regular":
        return embed.regular_context(code)
    if universe == "polyp":
        return embed.polyp_context(code)
    if universe == "multirec":
        return embed.multirec_context(code, _resolve_index(index, _first(code.indices)))
    at = _resolve_index(index, _first(code.outs))
    return embed.indexed_context(code, oracle.standard_table(code), at)


def _cmd_convert(args) -> int:
    step = _step(args.src, args.dst)
    code = _resolve_code(args.src, args.code)
    v = _resolve_value(args.value)
    direction = "forward" if args.direction == "fwd" else "backward"
    start = _source_context(args.src, code, args.index)
    print(print_value(embed.compose_path([step], start, v, direction)))
    return 0


def _print_report(report) -> int:
    for v, direction, reason in report.failures:
        print(f"failure: {direction} {print_value(v)}: {reason}")
    print(f"checked {report.checked_count}")
    print(f"{len(report.failures)} failures")
    return 0 if report.ok() else 1


def _cmd_roundtrip(args) -> int:
    step = _step(args.src, args.dst)
    code = _resolve_code(args.src, args.code)
    budget = _budget(args.max_size)
    report = oracle.run_property(f"iso-{step}", {args.code: code}, budget)
    return _print_report(report)


def _cmd_enum(args) -> int:
    budget = _budget(args.max_size)
    if args.universe == "instant":
        if args.env is None:
            raise UsageError("enum in the instant universe needs --env")
        env = _resolve_env(args.env)
        code = _resolve_code("instant", args.code, env)
        values = oracle.enum_instant(env, code, budget)
    elif args.universe == "regular":
        code = _resolve_code("regular", args.code)
        values = oracle.enum_mu_regular(code, budget)
    elif args.universe == "polyp":
        code = _resolve_code("polyp", args.code)
        values = oracle.enum_mu_polyp(code, TOP_SLOT, budget)
    elif args.universe == "multirec":
        code = _resolve_code("multirec", args.code)
        at = _resolve_index(args.index, _first(code.indices))
        values = oracle.enum_mu_multirec(code, at, budget)
    else:
        code = _resolve_code("indexed", args.code)
        at = _resolve_index(args.index, _first(code.outs))
        values = oracle.enum_indexed(code, oracle.standard_assign(code), at, budget)
    for v in values:
        print(print_value(v))
    return 0


def _cmd_laws(args) -> int:
    if not _LAW_PROPERTIES[args.universe]:
        raise UsageError("laws supports regular, polyp, multirec, and indexed")
    code = _resolve_code(args.universe, args.code)
    budget = _budget(args.max_size)
    combined = embed.ConversionReport()
    for name in _LAW_PROPERTIES[args.universe]:
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


_COMMANDS = {
    "check": _cmd_check,
    "lift": _cmd_lift,
    "convert": _cmd_convert,
    "roundtrip": _cmd_roundtrip,
    "enum": _cmd_enum,
    "laws": _cmd_laws,
    "size": _cmd_size,
}


# Every error a command may raise, with the exit code it maps to.
_EXIT_CODES = {
    UsageError: 2,
    ParseError: 2,
    IndexNotInSet: 2,
    oracle.UnknownProperty: 2,
    FuelExhausted: 3,
    MalformedValue: 1,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code is None else int(err.code)
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
