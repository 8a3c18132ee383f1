"""Concrete syntax for codes, values, and code environments.

One token stream serves every universe. Each universe's concrete syntax is
one row of ``_GRAMMARS``, which ``parse_code`` and ``print_code`` both read:
its atoms, each with the token that starts it, its reader and its printer,
and the constructors of the binary operators and of "fix". The operators
are one table, ``_OPERATORS``: "@" above "*" above "+", all
right-associative, and "fix" binds tighter than any operator, so its
argument is an atom unless parenthesized. The parser builds the
unit/sum/product spine that all universes share, so regular, polyp and
instant codes come out of the parser finished. Multirec and indexed atoms
name labels that must lie in the header's index sets; those are checked
once the whole body has parsed, so a syntax error anywhere is reported
first. A name is what ``gvalue.valid_name`` accepts, the words the lexer
does not read as a nat; the printer refuses any other name, so that what it
prints parses back.

Multirec and indexed codes carry header lines ("indices:", "in:", "out:",
and optionally "mid:") before the body expression, which their rows'
``read`` and ``show`` hooks parse and print. A composition body splits
at the "mid:" index set, which defaults to the output set; nested
compositions share it. Environment files hold one "name = code" line per
entry, UTF-8 with LF endings.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Mapping, NamedTuple

from . import indexed, instant, multirec, polyp, regular, spine
from .gvalue import (
    GenericValue,
    In1,
    In2,
    IndexLabel,
    IndexSet,
    Konst,
    MalformedValue,
    Pair,
    RESERVED_NAME_CHARS,
    RecV,
    Refl,
    Roll,
    TT,
    VALUE_KEYWORDS,
    disjoint_union,
    payload,
    print_label,
    print_value,
    valid_name,
)

__all__ = [
    "ParseError",
    "parse_value",
    "parse_code",
    "parse_label",
    "parse_env",
    "print_code",
    "print_env",
    "print_value",
    "print_label",
]


class ParseError(Exception):
    def __init__(
        self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()
    ) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected


# ---------------------------------------------------------------------------
# tokens


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


# Each character that no name may hold is a token of its own: punctuation,
# or a stray character, which is an error wherever it stands.
_STRAY = ':;"'
_SYMBOLS = re.escape("".join(sorted(RESERVED_NAME_CHARS)))

# A token is one punctuation or stray character, or a word: a run of
# anything else but whitespace. What no match covers is whitespace, exactly
# the characters for which str.isspace() holds.
_TOKEN = re.compile(f"[{_SYMBOLS}]|[^\\s{_SYMBOLS}]+")


def _lex(text: str, line: int = 1, col: int = 1) -> list[_Token]:
    """The tokens of ``text``, which starts at ``line`` and ``col``, then an
    eof token; only a line feed starts a line, and a stray character is an
    error."""
    base = -col  # the offset just before the current line's first column
    seen = 0  # the newlines before this offset are counted in ``line``

    def position(offset: int) -> tuple[int, int]:
        nonlocal line, base, seen
        newlines = text.count("\n", seen, offset)
        if newlines:
            line += newlines
            base = text.rfind("\n", seen, offset)
        seen = offset
        return line, offset - base

    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        word = match.group()
        at_line, at_col = position(match.start())
        if word in _STRAY:
            raise ParseError(f"unexpected character {word!r}", at_line, at_col)
        if word in RESERVED_NAME_CHARS:
            kind = word
        else:
            kind = "nat" if word.isdecimal() else "ident"
        tokens.append(_Token(kind, word, at_line, at_col))
    tokens.append(_Token("eof", "", *position(len(text))))
    return tokens


class _Stream:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, expected: frozenset[str] | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(expected or frozenset({kind}))
        return self.advance()

    def fail(self, wanted: frozenset[str]) -> ParseError:
        return _expected(self.peek(), wanted)

    def done(self) -> None:
        if self.peek().kind != "eof":
            raise self.fail(_EOF)


_EOF = frozenset({"eof"})


def _expected(tok: _Token, wanted: frozenset[str]) -> ParseError:
    return ParseError(
        f"expected {_describe(wanted)}, got {_show(tok)}", tok.line, tok.col, wanted
    )


def _show(tok: _Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return repr(tok.text)


def _describe(wanted: frozenset[str]) -> str:
    if wanted == _EOF:
        return "end of input"
    names = sorted(wanted)
    if len(names) == 1:
        return names[0]
    return "one of " + ", ".join(names)


# ---------------------------------------------------------------------------
# values

_VALUE_EXPECTED = frozenset({"tt", "refl", "in1", "in2", "k", "rec", "<", "(", "token"})

# parse_value's stack holds the pending constructors In1, In2, Konst and
# RecV, and for each open bracket the token it waits for: ">" to close a
# roll, "," after a pair's first value, and ")" above that first value.
_OPENERS = {"in1": In1, "in2": In2, "k": Konst, "rec": RecV, "<": ">", "(": ","}
_LEAVES = {"tt": TT, "refl": Refl}
_END = " "  # after the last token; no token is whitespace
_NOT_A_NAME = RESERVED_NAME_CHARS | {_END}


def parse_value(text: str) -> GenericValue:
    """Parse a value by shift and reduce over the tokens, with no recursion,
    so depth is bounded by memory."""
    toks = _TOKEN.findall(text)
    toks.append(_END)
    stack: list = []
    i = 0
    while True:
        # shift the constructors in front of a leaf, then the leaf
        tok = toks[i]
        i += 1
        opener = _OPENERS.get(tok)
        if opener is not None:
            stack.append(opener)
            continue
        leaf = _LEAVES.get(tok)
        if leaf is not None:
            v = leaf()
        elif tok in _NOT_A_NAME or tok.isdecimal():
            raise _value_error(text, i - 1, _VALUE_EXPECTED)
        elif toks[i] != "#":
            raise _value_error(text, i, frozenset({"#"}))
        elif not toks[i + 1].isdecimal():
            raise _value_error(text, i + 1, frozenset({"nat"}))
        else:
            try:
                ident = int(toks[i + 1])
            except ValueError:  # more digits than Python reads as an int
                nat = _lex(text)[i + 1]
                limit = f"{sys.get_int_max_str_digits()} digits"
                raise ParseError(f"nat has more than {limit}", nat.line, nat.col) from None
            v = payload(tok, ident)
            i += 2
        # reduce every constructor that the value completes
        while stack:
            top = stack.pop()
            if type(top) is not str:
                v = top(v)
                continue
            if toks[i] != top:
                raise _value_error(text, i, frozenset({top}))
            i += 1
            if top == ">":
                v = Roll(v)
            elif top == ",":
                stack.append(v)
                stack.append(")")
                break
            else:
                v = Pair(stack.pop(), v)
        else:
            if toks[i] != _END:
                raise _value_error(text, i, _EOF)
            return v


def _value_error(text: str, i: int, wanted: frozenset[str]) -> ParseError:
    """The error at parse_value's token ``i``. Lexing the text again places
    the token, and raises first at a stray character anywhere in the text,
    since the lexer reads the whole text before the parser starts."""
    return _expected(_lex(text)[i], wanted)


# ---------------------------------------------------------------------------
# labels


def parse_label(text: str) -> IndexLabel:
    stream = _Stream(_lex(text))
    lbl = _parse_label(stream)
    stream.done()
    return lbl


def _parse_label(stream: _Stream) -> IndexLabel:
    parts = [stream.expect("ident", frozenset({"label"}))]
    while stream.peek().kind == ".":
        stream.advance()
        parts.append(stream.expect("ident", frozenset({"label"})))
    tags = parts[:-1]
    for tag in tags:
        if tag.text not in ("L", "R"):
            raise ParseError(f"label tag must be L or R, got {tag.text!r}", tag.line, tag.col)
    return IndexLabel(parts[-1].text, tuple(tag.text for tag in tags))


def _parse_label_list(text: str, line: int, col: int) -> IndexSet:
    stream = _Stream(_lex(text, line, col))
    labels: list[IndexLabel] = []
    if stream.peek().kind != "eof":
        labels.append(_parse_label(stream))
        while stream.peek().kind == ",":
            stream.advance()
            labels.append(_parse_label(stream))
    stream.done()
    try:
        return IndexSet(tuple(labels))
    except ValueError as err:
        raise ParseError(str(err), line, col) from err


# ---------------------------------------------------------------------------
# code grammars: one row per universe; "+" and "*" build the spine nodes
# that every universe shares

_OPERATORS = ("+", "*", "@")  # loosest first, each right-associative


class _Atom(NamedTuple):
    """One kind of atom: the token that starts it, what an error calls it,
    its node's class, the reader called after the token, and the printer."""

    token: str
    name: str
    node: type
    read: Callable[[_Stream, _Token], object]
    show: Callable[[object], str]


class _Grammar(NamedTuple):
    """One universe's row: what a node it cannot print is called, its atoms
    by first token and their printers by node class, what may start an
    atom, the constructors of ``_OPERATORS`` (``None`` where it lacks one)
    and of ``fix``, and the hooks ``read(text, row)`` and ``show(code,
    row)`` for a whole code, which read and print its headers if any."""

    what: str
    atoms: dict[str, _Atom]
    shows: dict[type, Callable[[object], str]]
    expected: frozenset[str]
    ops: tuple
    fix: Callable[[object], object] | None
    read: Callable[[str, "_Grammar"], object]
    show: Callable[[object, "_Grammar"], str]


def _grammar(what: str, atoms: list[_Atom], comp=None, fix=None, read=None, show=None) -> _Grammar:
    """The row of ``atoms``, where ``comp`` builds ``@`` and ``fix`` builds
    ``fix``; a code without headers is its body."""
    expected = {"(", *(atom.name for atom in atoms), *(["fix"] if fix else [])}
    return _Grammar(
        what,
        {atom.token: atom for atom in atoms},
        {atom.node: atom.show for atom in atoms},
        frozenset(expected),
        (spine.Sum, spine.Prod, comp),
        fix,
        read or _parse_body,
        show or _pp,
    )


class _At(NamedTuple):
    """A multirec or indexed ``Id`` or ``Tag`` node and the token of its
    atom, until its label is checked: only once the whole body has parsed,
    so that a syntax error anywhere is reported first."""

    node: multirec.Id | multirec.Tag | indexed.Id | indexed.Tag
    tok: _Token


class _Comp(NamedTuple):
    """An indexed ``left @ right`` as parsed and printed: the parser reads
    ``left`` before the ``@`` that makes it read its inputs from the
    ``mid:`` set."""

    left: object
    right: object


class _Fix(NamedTuple):
    """An indexed ``fix inner`` as parsed and printed; ``inner`` reads its
    inputs from the disjoint union of the outer inputs and outputs."""

    inner: object


def _leaf(token: str, node: type) -> _Atom:
    return _Atom(token, token, node, lambda stream, tok: node(), lambda _: token)


def _labelled(prefix: str, node: type) -> _Atom:
    """``I@label`` or ``!label`` (``prefix``): ``node(label)`` at the atom's
    token. Multirec and indexed share both."""

    def read(stream: _Stream, tok: _Token) -> _At:
        if prefix == "I@":
            stream.expect("@")
        return _At(node(_parse_label(stream)), tok)

    return _Atom(prefix[0], prefix + "label", node, read, lambda n: prefix + print_label(n.label))


def _name(text: str) -> str:
    """``text``, which must be a name, so that it parses back."""
    if not valid_name(text):
        raise MalformedValue(f"not a name: {text!r}")
    return text


def _read_konst(stream: _Stream, at: _Token) -> instant.K:
    tok = stream.peek()
    if tok.kind == "!":
        stream.advance()
        stream.expect("(")
        a = _parse_label(stream)
        stream.expect(",")
        b = _parse_label(stream)
        stream.expect(")")
        return instant.K(instant.EqWitness(a, b))
    if tok.kind == "@":
        stream.advance()
        return instant.K(instant.OfCode(stream.expect("ident", frozenset({"name"})).text))
    if tok.kind == "ident":
        if tok.text in VALUE_KEYWORDS:
            raise ParseError(f"sort {tok.text!r} is a value keyword", tok.line, tok.col)
        stream.advance()
        return instant.K(instant.Prim(tok.text))
    raise stream.fail(frozenset({"sort", "!", "@"}))


def _show_konst(node: instant.K) -> str:
    match node.payload:
        case instant.Prim(sort):
            return f"K {sort}"
        case instant.EqWitness(a, b):
            return f"K!({print_label(a)} , {print_label(b)})"
        case instant.OfCode(ref):
            return f"K@{_name(ref)}"
    raise MalformedValue(f"not an instant code: {node!r}")


def _read_rec(stream: _Stream, tok: _Token) -> instant.R:
    return instant.R(stream.expect("ident", frozenset({"name"})).text)


def _parse_expr(stream: _Stream, g: _Grammar, level: int = 0) -> object:
    """An expression whose operators are ``_OPERATORS[level]`` or tighter;
    past the last level, a ``fix`` or an atom."""
    if level + 1 < len(_OPERATORS):
        left = _parse_expr(stream, g, level + 1)
    else:
        left = _parse_unary(stream, g)
    make = g.ops[level]
    if make is not None and stream.peek().kind == _OPERATORS[level]:
        stream.advance()
        return make(left, _parse_expr(stream, g, level))
    return left


def _parse_unary(stream: _Stream, g: _Grammar) -> object:
    if g.fix is not None and stream.peek().text == "fix":
        stream.advance()
        return g.fix(_parse_unary(stream, g))
    return _parse_atom(stream, g)


def _parse_atom(stream: _Stream, g: _Grammar) -> object:
    tok = stream.peek()
    if tok.kind == "(":
        stream.advance()
        inner = _parse_expr(stream, g)
        stream.expect(")")
        return inner
    atom = g.atoms.get(tok.text)
    if atom is None:
        raise stream.fail(g.expected)
    stream.advance()
    return atom.read(stream, tok)


# ---------------------------------------------------------------------------
# headers


def _split_headers(text: str, names: tuple[str, ...]) -> tuple[dict[str, tuple[str, int, int]], str]:
    """Pull header lines out of the text, blanking them so the body keeps
    its original line and column positions."""
    headers: dict[str, tuple[str, int, int]] = {}
    body_lines: list[str] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.lstrip()
        matched = None
        for name in names:
            if stripped.startswith(name + ":"):
                matched = name
                break
        if matched is None:
            body_lines.append(line)
            continue
        if matched in headers:
            raise ParseError(f"duplicate header {matched}:", lineno, 1)
        indent = len(line) - len(stripped)
        rest = stripped[len(matched) + 1 :]
        headers[matched] = (rest, lineno, indent + len(matched) + 2)
        body_lines.append("")
    return headers, "\n".join(body_lines)


def _header_labels(
    headers: dict[str, tuple[str, int, int]], name: str
) -> IndexSet | None:
    if name not in headers:
        return None
    rest, line, col = headers[name]
    return _parse_label_list(rest, line, col)


# ---------------------------------------------------------------------------
# elaboration of multirec and indexed bodies: the label checks


def _member(at: _At, labels: IndexSet, what: str):
    """``at``'s node, once its label is found in ``labels``."""
    lbl = at.node.label
    if lbl not in labels:
        raise ParseError(f"label {print_label(lbl)} is not in the {what}", at.tok.line, at.tok.col)
    return at.node


def _elab_indexed(body, ins: IndexSet, outs: IndexSet, mid: IndexSet) -> indexed.IndexedBody:
    def atom(node) -> indexed.IndexedBody:
        match node:
            case _Comp(l, r):
                f = indexed.IndexedCode(mid, outs, _elab_indexed(l, mid, outs, mid))
                g = indexed.IndexedCode(ins, mid, _elab_indexed(r, ins, mid, mid))
                return indexed.Comp(f, g)
            case _Fix(inner):
                inner_ins = disjoint_union(ins, outs)
                body = _elab_indexed(inner, inner_ins, outs, mid)
                return indexed.Fix(indexed.IndexedCode(inner_ins, outs, body))
            case _At(indexed.Id()):
                return _member(node, ins, "input set")
        return _member(node, outs, "output set")

    return spine.lift(body, atom)


def _read_multirec(text: str, g: _Grammar) -> multirec.MultirecCode:
    headers, body_text = _split_headers(text, ("indices",))
    indices = _header_labels(headers, "indices")
    if indices is None:
        raise ParseError("missing header indices:", 1, 1)
    body = spine.lift(_parse_body(body_text, g), lambda at: _member(at, indices, "index set"))
    return multirec.MultirecCode(indices, body)


def _read_indexed(text: str, g: _Grammar) -> indexed.IndexedCode:
    headers, body_text = _split_headers(text, ("in", "out", "mid"))
    ins = _header_labels(headers, "in")
    outs = _header_labels(headers, "out")
    if ins is None:
        raise ParseError("missing header in:", 1, 1)
    if outs is None:
        raise ParseError("missing header out:", 1, 1)
    mid = _header_labels(headers, "mid")
    if mid is None:
        mid = outs
    body = _parse_body(body_text, g)
    return indexed.IndexedCode(ins, outs, _elab_indexed(body, ins, outs, mid))


def _parse_body(text: str, g: _Grammar):
    stream = _Stream(_lex(text))
    node = _parse_expr(stream, g)
    stream.done()
    return node


# ---------------------------------------------------------------------------
# environments


def parse_env(text: str) -> dict[str, instant.InstantCode]:
    """Parse "name = code" lines into an environment, in file order."""
    env: dict[str, instant.InstantCode] = {}
    entry_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        stream = _Stream(_lex(line, line=lineno))
        name_tok = stream.expect("ident", frozenset({"name"}))
        stream.expect("=")
        code = _parse_expr(stream, _INSTANT)
        stream.done()
        if name_tok.text in env:
            raise ParseError(
                f"duplicate environment entry {name_tok.text}",
                name_tok.line,
                name_tok.col,
            )
        env[name_tok.text] = code
        entry_lines[name_tok.text] = lineno
    for name, code in env.items():
        for ref in instant._refs(code):
            if ref not in env:
                raise ParseError(
                    f"entry {name} references {ref}, which is not defined",
                    entry_lines[name],
                    1,
                )
    return env


def print_env(env: Mapping[str, instant.InstantCode]) -> str:
    return "".join(f"{_name(name)} = {_pp(code, _INSTANT)}\n" for name, code in env.items())


# ---------------------------------------------------------------------------
# printing


def _pp(node, g: _Grammar, level: int = 0) -> str:
    """``node`` as the row ``g`` prints it where an operator looser than
    ``_OPERATORS[level]`` needs parentheses; an atom's level is
    ``len(_OPERATORS)``. The left operand of each operator sits one level
    tighter, so that the operator associates right."""
    kind = type(node)
    if kind in g.ops:
        op = g.ops.index(kind)
        text = f"{_pp(node.left, g, op + 1)} {_OPERATORS[op]} {_pp(node.right, g, op)}"
        return f"({text})" if op < level else text
    if kind is g.fix:
        return f"fix {_pp(node.inner, g, len(_OPERATORS))}"
    show = g.shows.get(kind)
    if show is None:
        raise MalformedValue(f"not {g.what}: {node!r}")
    return show(node)


def _comp_middles(body: indexed.IndexedBody, found: list[IndexSet]) -> None:
    for node in spine.atoms(body):
        match node:
            case indexed.Comp(f, g):
                found.append(f.ins)
                _comp_middles(f.body, found)
                _comp_middles(g.body, found)
            case indexed.Fix(f):
                _comp_middles(f.body, found)


def _unelab_indexed(body, ins: IndexSet, outs: IndexSet, mid: IndexSet):
    """``body`` as the parser gives it before ``_elab_indexed``, once each
    composition and fixed point is checked to fit the headers, left to
    right."""

    def atom(node):
        match node:
            case indexed.Comp(f, g):
                if f.ins != mid or f.outs != outs or g.ins != ins or g.outs != mid:
                    raise MalformedValue("composition does not fit the mid/in/out header shape")
                left = _unelab_indexed(f.body, mid, outs, mid)
                return _Comp(left, _unelab_indexed(g.body, ins, mid, mid))
            case indexed.Fix(f):
                if f.ins != disjoint_union(ins, outs) or f.outs != outs:
                    raise MalformedValue("fixed point does not fit the in/out header shape")
                return _Fix(_unelab_indexed(f.body, f.ins, outs, mid))
            case indexed.Id() | indexed.Tag():
                return node
        raise MalformedValue(f"not an indexed body: {node!r}")

    return spine.lift(body, atom)


def _header(name: str, labels: IndexSet) -> str:
    return f"{name}: {', '.join(print_label(lbl) for lbl in labels)}".rstrip()


def _show_indexed(code: indexed.IndexedCode, g: _Grammar) -> str:
    found: list[IndexSet] = []
    _comp_middles(code.body, found)
    if len(set(found)) > 1:
        raise MalformedValue("composition middles disagree; cannot print")
    mid = found[0] if found else code.outs
    lines = [_header("in", code.ins), _header("out", code.outs)]
    if mid != code.outs:
        lines.append(_header("mid", mid))
    lines.append(_pp(_unelab_indexed(code.body, code.ins, code.outs, mid), g))
    return "\n".join(lines)


_UNIT = _leaf("U", spine.Unit)

# environments hold instant codes
_INSTANT = _grammar("an instant code", [
    _UNIT,
    _Atom("K", "K", instant.K, _read_konst, _show_konst),
    _Atom("R", "R", instant.R, _read_rec, lambda n: f"R {_name(n.ref)}"),
])

_GRAMMARS: dict[str, _Grammar] = {
    "regular": _grammar("a regular code", [_UNIT, _leaf("I", regular.Id)]),
    "polyp": _grammar(
        "a polyp code", [_UNIT, _leaf("P", polyp.Par), _leaf("I", polyp.Id)], comp=polyp.Comp
    ),
    "multirec": _grammar(
        "a multirec body",
        [_UNIT, _labelled("I@", multirec.Id), _labelled("!", multirec.Tag)],
        read=_read_multirec,
        show=lambda code, g: f"{_header('indices', code.indices)}\n{_pp(code.body, g)}",
    ),
    "indexed": _grammar(
        "an indexed body",
        [_UNIT, _labelled("I@", indexed.Id), _labelled("!", indexed.Tag)],
        comp=_Comp, fix=_Fix, read=_read_indexed, show=_show_indexed,
    ),
    "instant": _INSTANT,
}


def _row(universe: str) -> _Grammar:
    if universe not in _GRAMMARS:
        raise ValueError(f"unknown universe tag: {universe!r}")
    return _GRAMMARS[universe]


def parse_code(universe: str, text: str):
    """Parse one code in the named universe's concrete syntax."""
    g = _row(universe)
    return g.read(text, g)


def print_code(universe: str, code) -> str:
    """Canonical concrete syntax: single spaces, minimal parentheses."""
    g = _row(universe)
    return g.show(code, g)
