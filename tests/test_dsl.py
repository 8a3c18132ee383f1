import hashlib
import random
import re
import sys
from functools import partial

from hypothesis import given
import pytest

from genrep import In1, In2, MalformedValue, Pair, Roll, TT, index_set, label, left
from genrep import payload, print_value, right, value_size
from genrep.corpus import (
    INDEXED_CODES,
    INSTANT_CODES,
    MULTIREC_CODES,
    POLYP_CODES,
    REGULAR_CODES,
    LIST_TOP_ENV,
    NAT_I,
    VALUES,
)
from genrep.dsl import (
    _TOKEN,
    ParseError,
    parse_code,
    parse_env,
    parse_label,
    parse_value,
    print_code,
    print_env,
)
from genrep import embed, indexed, instant, multirec, polyp, regular
from genrep.oracle import EnumBudget, enum_mu_regular

from helpers import _fuzz_code, gvalues, same_tree

CANONICAL = {
    ("regular", "NatC"): "U + I",
    ("regular", "BinC"): "U + I * I",
    ("polyp", "ListC"): "U + P * I",
    ("polyp", "RoseC"): "P * (U + P * I) @ I",
    ("polyp", "TreeC"): "P + I * I",
    ("polyp", "TreeListNaive"): "(P + I * I) @ (U + P * I)",
    ("polyp", "TreeListProper"): "(U + P * I) @ P + I * I",
    ("multirec", "ZigZagC"): "indices: L.⋆, R.⋆\n!L.⋆ * (I@R.⋆ + U) + !R.⋆ * I@L.⋆",
    ("indexed", "NatI"): "in: ⋆\nout: ⋆\nfix (U + I@R.⋆)",
    ("indexed", "BinI"): "in: ⋆\nout: ⋆\nfix (U + I@R.⋆ * I@R.⋆)",
    ("indexed", "ListI"): "in: ⋆\nout: ⋆\nfix (U + I@L.⋆ * I@R.⋆)",
    (
        "indexed",
        "RoseI",
    ): "in: ⋆\nout: ⋆\nfix (I@L.⋆ * fix (U + I@L.⋆ * I@R.⋆) @ I@R.⋆)",
    (
        "indexed",
        "ZigZagI",
    ): "in:\nout: L.⋆, R.⋆\nfix (!L.⋆ * (I@R.R.⋆ + U) + !R.⋆ * I@R.L.⋆)",
    ("instant", "List⊤"): "U + K ⊤ * R List⊤",
}

_TABLES = {
    "regular": REGULAR_CODES,
    "polyp": POLYP_CODES,
    "multirec": MULTIREC_CODES,
    "indexed": INDEXED_CODES,
    "instant": INSTANT_CODES,
}


@pytest.mark.parametrize("universe,name", sorted(CANONICAL))
def test_corpus_codes_print_canonically(universe, name):
    assert print_code(universe, _TABLES[universe][name]) == CANONICAL[universe, name]


@pytest.mark.parametrize("universe,name", sorted(CANONICAL))
def test_corpus_codes_round_trip(universe, name):
    code = _TABLES[universe][name]
    text = print_code(universe, code)
    assert parse_code(universe, text) == code
    assert print_code(universe, parse_code(universe, text)) == text


VALUE_PRINTS = {
    "aNat": "<in2 <in2 <in1 tt>>>",
    "sRose": "<(tt , <in1 tt>)>",
    "zigZagEnd": "<in1 (refl , in1 <in2 (refl , <in1 (refl , in2 tt)>)>)>",
    "aList": "in2 (k tt , rec in2 (k tt , rec in1 tt))",
    "treeOfLists": "<in1 <in2 (tt , <in1 tt>)>>",
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_corpus_values_round_trip(name):
    v = VALUES[name]
    assert parse_value(print_value(v)) == v
    if name in VALUE_PRINTS:
        assert print_value(v) == VALUE_PRINTS[name]


@given(gvalues())
def test_any_value_round_trips(v):
    assert parse_value(print_value(v)) == v


def test_enumerated_values_round_trip():
    for code in REGULAR_CODES.values():
        for v in enum_mu_regular(code, EnumBudget(max_size=10)):
            assert parse_value(print_value(v)) == v


def test_operator_precedence():
    assert parse_code("regular", "U + I * I") == regular.Sum(
        regular.Unit(), regular.Prod(regular.Id(), regular.Id())
    )
    assert parse_code("regular", "(U + I) * I") == regular.Prod(
        regular.Sum(regular.Unit(), regular.Id()), regular.Id()
    )
    # composition binds tighter than product and associates right
    assert parse_code("polyp", "P * U @ I @ I") == polyp.Prod(
        polyp.Par(), polyp.Comp(polyp.Unit(), polyp.Comp(polyp.Id(), polyp.Id()))
    )


def test_fix_argument_is_an_atom():
    code = parse_code("indexed", "in: ⋆\nout: ⋆\nfix U + I@⋆")
    assert isinstance(code.body, indexed.Sum)
    assert parse_code("indexed", "in: ⋆\nout: ⋆\nfix (U + I@R.⋆)") == NAT_I


def test_labels_parse_and_print():
    star = label("⋆")
    assert parse_label("⋆") == star
    assert parse_label("L.⋆") == left(star)
    assert parse_label("R.L.zig") == right(left(label("zig")))
    with pytest.raises(ParseError):
        parse_label("Q.⋆")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_code("regular", "U +")
    assert err.value.line == 1
    assert err.value.col == 4
    assert "U" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse_value("in1 (tt , tt")
    assert str(err.value).startswith("1:13:")

    with pytest.raises(ParseError) as err:
        parse_code("regular", 'U ; I')
    assert "unexpected character" in err.value.message


def test_headers_are_required_and_unique():
    with pytest.raises(ParseError):
        parse_code("multirec", "!L.⋆ * U")
    with pytest.raises(ParseError):
        parse_code("indexed", "out: ⋆\nfix (U + I@R.⋆)")
    with pytest.raises(ParseError):
        parse_code("indexed", "in: ⋆\nin: ⋆\nout: ⋆\nU")


def test_mid_header_threads_the_composition():
    text = "in: i\nout: o\nmid: a, b\n(I@a * I@b) @ (!a + !b)"
    code = parse_code("indexed", text)
    body = code.body
    assert isinstance(body, indexed.Comp)
    assert set(body.left.ins) == {label("a"), label("b")}
    assert print_code("indexed", code) == text


def _comp_via(mid_name, ins, outs):
    mid = index_set(label(mid_name))
    f = indexed.IndexedCode(mid, outs, indexed.Id(label(mid_name)))
    g = indexed.IndexedCode(ins, mid, indexed.Tag(label(mid_name)))
    return indexed.Comp(f, g)


def test_print_rejects_codes_with_mixed_middles():
    ins = index_set(label("i"))
    outs = index_set(label("o"))
    body = indexed.Prod(_comp_via("a", ins, outs), _comp_via("b", ins, outs))
    code = indexed.IndexedCode(ins, outs, body)
    with pytest.raises(MalformedValue):
        print_code("indexed", code)


def test_env_files_round_trip():
    text = print_env(LIST_TOP_ENV)
    assert text == "List⊤ = U + K ⊤ * R List⊤\n"
    assert parse_env(text) == LIST_TOP_ENV


@pytest.mark.parametrize("name", sorted(INDEXED_CODES))
def test_lifted_envs_round_trip(name):
    """The environment that lifting an indexed code to instant gives holds
    K@ (RoseI) and K! (ZigZagI) entries, which print and parse back."""
    code = INDEXED_CODES[name]
    _, env = embed.lift_i_to_ig(code, embed.standard_table(code))
    text = print_env(env)
    assert {"RoseI": "K@", "ZigZagI": "K!("}.get(name, "") in text
    assert parse_env(text) == env


def test_env_rejects_duplicates_and_dangling_references():
    with pytest.raises(ParseError) as err:
        parse_env("a = U\nb = R missing\n")
    assert "missing" in err.value.message
    with pytest.raises(ParseError):
        parse_env("a = U\na = U\n")


DEEP = 100_000


def _numeral(layers):
    """The NatC numeral with ``layers`` rolls, its text and its node count."""
    v = Roll(In1(TT()))
    for _ in range(layers - 1):
        v = Roll(In2(v))
    return v, "<in2 " * (layers - 1) + "<in1 tt>" + ">" * (layers - 1), 2 * layers + 1


def _top_list(length):
    """The ListC list of ``length`` tt's, its text and its node count."""
    v = Roll(In1(TT()))
    for _ in range(length):
        v = Roll(In2(Pair(TT(), v)))
    return v, "<in2 (tt , " * length + "<in1 tt>" + ")>" * length, 4 * length + 3


@pytest.mark.parametrize("build", [_numeral, _top_list], ids=["NatC", "ListC"])
def test_values_far_deeper_than_the_recursion_limit_parse_and_print(build):
    v, text, nodes = build(DEEP)
    assert print_value(v) == text
    parsed = parse_value(text)
    assert same_tree(parsed, v)
    assert print_value(parsed) == text
    assert value_size(parsed) == value_size(v) == nodes


# (parser, text, message, line, col, expected), each taken from the
# recursive parser that these loops replaced
PARSE_ERRORS = [
    ('value', 'in1 ;', "unexpected character ';'", 1, 5, set()),
    ('value', 'tt tt', "expected end of input, got 'tt'", 1, 4, {'eof'}),
    ('value', 'x#', 'expected nat, got end of input', 1, 3, {'nat'}),
    ('value', 'in1 (tt , tt', 'expected ), got end of input', 1, 13, {')'}),
    ('value', '<tt', 'expected >, got end of input', 1, 4, {'>'}),
    ('value', 'bad name#1', "expected #, got 'name'", 1, 5, {'#'}),
    ('value', 'tt\n  ,', "expected end of input, got ','", 2, 3, {'eof'}),
    ('value', '@#1', "expected one of (, <, in1, in2, k, rec, refl, token, tt, got '@'", 1, 1, {'(', '<', 'in1', 'in2', 'k', 'rec', 'refl', 'token', 'tt'}),
    ('value', 'a#1x', "expected nat, got '1x'", 1, 3, {'nat'}),
    ('value', 'Tt', 'expected #, got end of input', 1, 3, {'#'}),
    ('value', '', 'expected one of (, <, in1, in2, k, rec, refl, token, tt, got end of input', 1, 1, {'(', '<', 'in1', 'in2', 'k', 'rec', 'refl', 'token', 'tt'}),
    ('value', '(tt ; tt', "unexpected character ';'", 1, 5, set()),
    ('value', 'in1 (tt , tt\r\n\t)>', "expected end of input, got '>'", 2, 3, {'eof'}),
    ('value', '<in2 <in1 tt> tt>', "expected >, got 'tt'", 1, 15, {'>'}),
    ('value', '12', "expected one of (, <, in1, in2, k, rec, refl, token, tt, got '12'", 1, 1, {'(', '<', 'in1', 'in2', 'k', 'rec', 'refl', 'token', 'tt'}),
    ('value', 'tt , ;', "unexpected character ';'", 1, 6, set()),
    ('value', '@\n<tt ;>', "unexpected character ';'", 2, 5, set()),
    ('value', 'in1\n\n  <tt , tt>', "expected >, got ','", 3, 7, {'>'}),
    ('regular', 'U ; I', "unexpected character ';'", 1, 3, set()),
    ('regular', 'U +', 'expected one of (, I, U, got end of input', 1, 4, {'(', 'I', 'U'}),
    ('polyp', 'P @', 'expected one of (, I, P, U, got end of input', 1, 4, {'(', 'I', 'P', 'U'}),
    ('regular', 'U\n+ (I *\n  ;)', "unexpected character ';'", 3, 3, set()),
    ('env', 'A = U + K ⊤ * R A\nB = U\nC = K ⊤ * "x"', 'unexpected character \'"\'', 3, 11, set()),
    ('env', 'A = U\n\nB = R A * K\n', 'expected one of !, @, sort, got end of input', 3, 12, {'!', '@', 'sort'}),
    ('label', 'L.⋆.', 'expected label, got end of input', 1, 5, {'label'}),
    ('indexed', 'in: ⋆\nout: ⋆\nfix (U + I@R.⋆', 'expected ), got end of input', 3, 15, {')'}),
]

# A nat with more digits than ``int`` reads is a parse error at its token.
_DIGITS = sys.get_int_max_str_digits()
PARSE_ERRORS += [
    ('value', 'a#' + '1' * (_DIGITS + 1), f'nat has more than {_DIGITS} digits', 1, 3, set()),
    ('value', 'in2\n (a#' + '9' * 5000 + ' , tt)', f'nat has more than {_DIGITS} digits', 2, 5, set()),
    ('value', '(a#' + '1' * 5000 + ' ; tt)', "unexpected character ';'", 1, 5005, set()),
]

# A label outside its set is reported at its atom, but only once the whole
# body has parsed; the left operand of "@" reads its inputs from "mid:".
PARSE_ERRORS += [
    ('multirec', 'indices: a, b\n!a * I@c', 'label c is not in the index set', 2, 6, set()),
    ('multirec', 'indices: a\nI@zz + )', "expected one of !label, (, I@label, U, got ')'", 2, 8, {'!label', '(', 'I@label', 'U'}),
    ('indexed', 'in: a\nout: b\nI@b', 'label b is not in the input set', 3, 1, set()),
    ('indexed', 'in: a\nout: b\n!a', 'label a is not in the output set', 3, 1, set()),
    ('indexed', 'in: a\nout: b\nmid: c\nI@a @ !c', 'label a is not in the input set', 4, 1, set()),
    ('indexed', 'in: a\nout: b\nmid: c\nI@c @ !b', 'label b is not in the output set', 4, 7, set()),
    ('indexed', 'in: a\nout: b\nfix I@R.a', 'label R.a is not in the input set', 3, 5, set()),
    ('indexed', 'in: a\nout: b\nI@b +', 'expected one of !label, (, I@label, U, fix, got end of input', 3, 6, {'!label', '(', 'I@label', 'U', 'fix'}),
    ('indexed', 'in: a\nout: b, b\nU', 'duplicate labels in index set', 2, 5, set()),
    ('indexed', 'in: a\nU', 'missing header out:', 1, 1, set()),
]

# A label tag that is neither L nor R is reported at the tag itself, not at
# the label's first token, in a label, a header and a body.
PARSE_ERRORS += [
    ('label', 'L.x.y', "label tag must be L or R, got 'x'", 1, 3, set()),
    ('label', 'R.L.Q.a', "label tag must be L or R, got 'Q'", 1, 5, set()),
    ('label', 'x.y', "label tag must be L or R, got 'x'", 1, 1, set()),
    ('multirec', 'indices: a, L.x.b\nU', "label tag must be L or R, got 'x'", 1, 15, set()),
    ('indexed', 'in: a\nout: b\nmid: L.c, R.x.d\nU', "label tag must be L or R, got 'x'", 3, 13, set()),
    ('indexed', 'in: a\nout: b\nfix I@R.Z.a', "label tag must be L or R, got 'Z'", 3, 9, set()),
]

# A constant set's sort may not be a value keyword, whose tokens would print
# as text that does not read back.
PARSE_ERRORS += [
    ('instant', f'K {word}', f"sort '{word}' is a value keyword", 1, 3, set())
    for word in ('tt', 'refl', 'k', 'in1', 'in2', 'rec')
] + [('env', 'A = U\nB = K tt * R A', "sort 'tt' is a value keyword", 2, 7, set())]

_PARSERS = {"value": parse_value, "env": parse_env, "label": parse_label}


@pytest.mark.parametrize(
    "kind, text, message, line, col, expected",
    PARSE_ERRORS,
    ids=[f"{row[0]}-{n}" for n, row in enumerate(PARSE_ERRORS)],
)
def test_parse_errors_are_pinned(kind, text, message, line, col, expected):
    parse = _PARSERS.get(kind, partial(parse_code, kind))
    with pytest.raises(ParseError) as err:
        parse(text)
    got = err.value
    assert (got.message, got.line, got.col, got.expected) == (message, line, col, expected)
    assert str(got) == f"{line}:{col}: {message}"


def test_a_nat_of_as_many_digits_as_int_reads_parses():
    assert parse_value("a#" + "7" * _DIGITS) == payload("a", int("7" * _DIGITS))


def test_a_digit_that_int_does_not_read_is_no_nat():
    with pytest.raises(ParseError) as err:
        parse_value("a#²")
    assert (err.value.message, err.value.line, err.value.col) == ("expected nat, got '²'", 1, 3)
    assert parse_value("a#٣") == payload("a", 3)


def test_the_lexer_skips_exactly_the_whitespace():
    """Over every code point, what no token covers is what str.isspace()
    calls whitespace."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _TOKEN.sub("", text) == "".join(filter(str.isspace, text))


UNIVERSES = ("regular", "polyp", "multirec", "indexed", "instant")

# sha256 of the records of test_generated_texts_parse_and_print_as_pinned
GENERATED_TEXTS_SHA256 = "e8ad04d87d10bcb9ada3415df24da310a04df0238bf946b89c7e9ebf2710dd65"


def test_generated_texts_parse_and_print_as_pinned():
    """Over the texts ``_fuzz_code`` gives for seeds 0-1,999 in every
    universe, what ``print_code(parse_code(text))`` prints, or the type and
    text of the error it raises, is pinned."""
    records = []
    for seed in range(2000):
        rng = random.Random(seed)
        for universe in UNIVERSES:
            text = _fuzz_code(rng, universe)
            try:
                out = print_code(universe, parse_code(universe, text))
            except (ParseError, MalformedValue) as err:
                out = f"{type(err).__name__}: {err}"
            records.append(f"{universe} {text!r} {out!r}\n")
    assert hashlib.sha256("".join(records).encode()).hexdigest() == GENERATED_TEXTS_SHA256


A, B, C, X = (label(name) for name in "abcx")


@pytest.mark.parametrize(
    "universe, code, message",
    [
        ("regular", polyp.Par(), "not a regular code: Par()"),
        ("polyp", instant.R("a"), "not a polyp code: R(ref='a')"),
        ("multirec", multirec.MultirecCode(index_set(A), polyp.Par()),
         "not a multirec body: Par()"),
        ("indexed", indexed.IndexedCode(index_set(A), index_set(B), polyp.Par()),
         "not an indexed body: Par()"),
        ("instant", polyp.Par(), "not an instant code: Par()"),
        ("instant", regular.Sum(instant.K(A), regular.Unit()),
         "not an instant code: K(payload=IndexLabel(name='a', tags=()))"),
        # the left code's outputs are not the header's
        ("indexed", indexed.IndexedCode(index_set(A), index_set(B), indexed.Comp(
            indexed.IndexedCode(index_set(C), index_set(X), indexed.Tag(X)),
            indexed.IndexedCode(index_set(A), index_set(C), indexed.Tag(C)),
        )), "composition does not fit the mid/in/out header shape"),
        # the inner inputs are not L.a, R.b
        ("indexed", indexed.IndexedCode(index_set(A), index_set(B), indexed.Fix(
            indexed.IndexedCode(index_set(A), index_set(B), indexed.Tag(B)),
        )), "fixed point does not fit the in/out header shape"),
        # of two faults, the leftmost is reported
        ("indexed", indexed.IndexedCode(index_set(A), index_set(B), indexed.Sum(
            polyp.Par(),
            indexed.Fix(indexed.IndexedCode(index_set(A), index_set(B), indexed.Tag(B))),
        )), "not an indexed body: Par()"),
    ],
    ids=["regular", "polyp", "multirec", "indexed", "instant", "instant-kset", "comp", "fix",
         "leftmost"],
)
def test_a_code_the_printer_cannot_print_is_refused(universe, code, message):
    with pytest.raises(MalformedValue) as err:
        print_code(universe, code)
    assert str(err.value) == message


def test_an_unknown_universe_is_refused():
    message = "^unknown universe tag: 'nosuch'$"
    with pytest.raises(ValueError, match=message):
        parse_code("nosuch", "U")
    with pytest.raises(ValueError, match=message):
        print_code("nosuch", regular.Unit())


@pytest.mark.parametrize(
    "code",
    [
        instant.R("a b"),
        instant.R("7"),
        instant.K(instant.OfCode("")),
        instant.Prod(instant.Unit(), instant.R("a b")),
    ],
    ids=["R-space", "R-digits", "K-ref", "nested"],
)
def test_the_instant_printer_refuses_a_name_that_does_not_parse_back(code):
    with pytest.raises(MalformedValue, match="^not a name: "):
        print_code("instant", code)


@pytest.mark.parametrize("name", ["x y", "12", "a=b", ""])
def test_print_env_refuses_a_name_that_does_not_parse_back(name):
    with pytest.raises(MalformedValue, match=f"^not a name: {re.escape(repr(name))}$"):
        print_env({name: instant.Unit()})
