"""Shared generators and plumbing for the test suite.

`all_trees_upto` builds every value tree over a small alphabet so the
structural enumerators can be checked against an oracle that cannot share
their blind spots.  `gvalues` is the hypothesis strategy used by the
round-trip properties.  `child_env` is the environment every test that
starts a Python process gives it.  `corpus_contexts` lists every corpus
context.  `indexed_list` and `rose` build values of the indexed list and
rose codes.  `same_tree` compares two trees of any depth.  `fuzz_argvs`,
`fuzz_corpus_argvs`, `fuzz_size_argvs` and `fuzz_i_ig_argvs` generate
seeded argument vectors for the CLI, and `fuzz_indexed_codes` seeded
indexed codes.
"""

import os
import random
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
import pytest

import genrep
from genrep import corpus, dsl, embed, indexed, oracle
from genrep import (
    EnumBudget,
    In1,
    In2,
    Konst,
    Pair,
    Payload,
    RecV,
    Refl,
    Roll,
    TT,
    payload,
    print_label,
    print_value,
)

ROOT = Path(__file__).resolve().parent.parent
# the directory this process imported ``genrep`` from: the checkout's
# ``src``, or a copy that ``PYTHONPATH`` names
SRC = Path(genrep.__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """The environment for a child Python process: this one's, with ``SRC``
    first on ``PYTHONPATH`` so ``genrep`` imports from the tree under test."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def corpus_contexts():
    """Every corpus context, and the instant image of every indexed one,
    whose environment names several codes, as pytest parameters."""
    for universe, codes in corpus.CODES.items():
        for name, code in codes.items():
            for ctx in embed.contexts(universe, code, corpus.INSTANT_ENVS.get(name)):
                label = "" if ctx.at is None else f"@{ctx.at.tags}"
                yield pytest.param(ctx, id=f"{universe}-{name}{label}")
                if universe == "indexed":
                    image = embed.STEPS["i-ig"].context(ctx)
                    yield pytest.param(image, id=f"instant-of-{name}{label}")


def same_tree(a, b) -> bool:
    """Structural equality, node by node on an explicit stack: a check that
    does not rest on interning, by which ``==`` is identity."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Pair):
            stack += [(x.first, y.first), (x.second, y.second)]
        elif isinstance(x, (In1, In2)):
            stack.append((x.value, y.value))
        elif isinstance(x, (Roll, Konst, RecV)):
            stack.append((x.inner, y.inner))
        elif isinstance(x, Payload) and x.token != y.token:
            return False
    return True


def indexed_list(items) -> Roll:
    """The value of ``ListI`` that holds ``items``."""
    out = Roll(In1(TT()))
    for item in reversed(items):
        out = Roll(In2(Pair(item, out)))
    return out


def rose(depth: int) -> Roll:
    """A value of ``RoseI`` of the given depth whose every inner node has two
    children."""
    out = Roll(Pair(TT(), indexed_list([])))
    for _ in range(depth):
        out = Roll(Pair(TT(), indexed_list([out, out])))
    return out


_LEAVES = (TT(), Refl(), payload("⊤", 0), payload("⊤", 1))
_UNARY = (In1, In2, Roll, Konst, RecV)


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple:
    """Every value tree with exactly ``n`` nodes."""
    if n < 1:
        return ()
    if n == 1:
        return _LEAVES
    out = []
    for ctor in _UNARY:
        out.extend(ctor(t) for t in all_trees(n - 1))
    for k in range(1, n - 1):
        for a in all_trees(k):
            out.extend(Pair(a, b) for b in all_trees(n - 1 - k))
    return tuple(out)


def all_trees_upto(n: int):
    for k in range(1, n + 1):
        yield from all_trees(k)


_NAMES = st.sampled_from(["a", "nat", "⊤", "x1"])

_leaf_values = st.one_of(
    st.just(TT()),
    st.just(Refl()),
    st.builds(payload, _NAMES, st.integers(min_value=0, max_value=3)),
)


def _extend(children):
    return st.one_of(
        st.builds(In1, children),
        st.builds(In2, children),
        st.builds(Roll, children),
        st.builds(Konst, children),
        st.builds(RecV, children),
        st.builds(Pair, children, children),
    )


def gvalues():
    return st.recursive(_leaf_values, _extend, max_leaves=12)


_FUZZ_LABELS = ("⋆", "L.⋆", "R.⋆", "L.R.⋆", "x", "L.x")
_FUZZ_SORTS = ("⊤", "nat", "x")
_FUZZ_REFS = ("A", "B", "List⊤")
_FUZZ_COMMANDS = ("check", "lift", "convert", "roundtrip", "enum", "laws", "size", "props")
_FUZZ_PAIRS = (
    ("regular", "polyp"), ("regular", "multirec"), ("polyp", "indexed"),
    ("multirec", "indexed"), ("indexed", "instant"),
)


def _fuzz_garbage(rng) -> str:
    """Up to eight characters, most of them the DSLs' own."""
    chars = "()<>,#@!*+=.:;\" \ntUIKRPin12⋆"
    return "".join(rng.choice(chars) for _ in range(rng.randint(0, 8)))


def _fuzz_atom(rng, universe: str) -> str:
    lbl, other = rng.choice(_FUZZ_LABELS), rng.choice(_FUZZ_LABELS)
    ref = rng.choice(_FUZZ_REFS)
    return rng.choice({
        "regular": ["U", "I"],
        "polyp": ["U", "P", "I"],
        "multirec": ["U", f"I@{lbl}", f"!{lbl}"],
        "indexed": ["U", f"I@{lbl}", f"!{lbl}"],
        "instant": ["U", f"K {rng.choice(_FUZZ_SORTS)}", f"K @{ref}", f"K !({lbl} , {other})",
                    f"R {ref}"],
    }[universe])


def _fuzz_body(rng, universe: str, depth: int) -> str:
    """A code body shaped by the universe's grammar: its atoms under +, *,
    and @ and fix where the universe has them."""
    if depth == 0 or rng.random() < 0.3:
        return _fuzz_atom(rng, universe)
    if universe == "indexed" and rng.random() < 0.2:
        return f"fix ({_fuzz_body(rng, universe, depth - 1)})"
    op = rng.choice(["+", "*"] + (["@"] if universe in ("polyp", "indexed") else []))
    left, right = (_fuzz_body(rng, universe, depth - 1) for _ in "lr")
    return f"({left} {op} {right})"


def _fuzz_code(rng, universe: str) -> str:
    """A corpus name, garbage, or a body under the universe's headers, whose
    index sets are often empty."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice([*corpus.CODES[universe], *_FUZZ_REFS])
    if roll < 0.2:
        return _fuzz_garbage(rng)
    body = _fuzz_body(rng, universe, 3)

    def labels() -> str:
        return ", ".join(rng.sample(_FUZZ_LABELS, rng.randint(0, 2)))

    if universe == "multirec":
        return f"indices: {labels()}\n{body}"
    if universe == "indexed":
        mid = f"mid: {labels()}\n" if rng.random() < 0.2 else ""
        return f"in: {labels()}\nout: {labels()}\n{mid}{body}"
    return body


# universe -> the indexed codes a code of it is closed into
_CLOSED_IN_INDEXED = {
    "regular": lambda code: [embed.fix_p_code(embed.lift_r_to_p(code)),
                             embed.fix_m_code(embed.lift_r_to_m(code))],
    "polyp": lambda code: [embed.fix_p_code(code)],
    "multirec": lambda code: [embed.fix_m_code(code)],
    "indexed": lambda code: [code],
}


def fuzz_indexed_codes(seeds):
    """The well-formed indexed codes that ``_fuzz_code`` gives, per seed, in
    each universe that lifts into indexed: an indexed code as it is, and a
    polyp, multirec or regular code closed under the indexed fixed point
    (``fix_p_code``, ``fix_m_code``; a regular code both ways). Text that
    does not parse gives none."""
    codes = []
    for seed in seeds:
        rng = random.Random(seed)
        for universe, closed in _CLOSED_IN_INDEXED.items():
            try:
                code = dsl.parse_code(universe, _fuzz_code(rng, universe))
            except dsl.ParseError:
                continue
            codes += [c for c in closed(code) if indexed.wellformed_i(c)]
    return codes


def _fuzz_value(rng, depth: int = 4) -> str:
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(list(corpus.VALUES))
    if roll < 0.15:
        return _fuzz_garbage(rng)
    if depth == 0 or roll < 0.4:
        return rng.choice(["tt", "refl", f"{rng.choice(_FUZZ_SORTS)}#{rng.randint(0, 3)}"])
    inner = _fuzz_value(rng, depth - 1)
    return rng.choice([f"in1 {inner}", f"in2 {inner}", f"k {inner}", f"rec {inner}",
                       f"<{inner}>", f"({inner} , {_fuzz_value(rng, depth - 1)})"])


def _fuzz_env(rng) -> str:
    roll = rng.random()
    if roll < 0.3:
        return "List⊤"
    if roll < 0.4:
        return _fuzz_garbage(rng)
    names = rng.sample(_FUZZ_REFS[:2], rng.randint(1, 2))
    return "".join(f"{name} = {_fuzz_body(rng, 'instant', 2)}\n" for name in names)


def _fuzz_argv(rng) -> list[str]:
    """One command with its required flags and some optional ones, each as
    ``--flag=value`` so that no value reads as a flag."""
    command = rng.choice(_FUZZ_COMMANDS)
    universe = rng.choice(("regular", "polyp", "multirec", "indexed", "instant"))
    src, dst = rng.choice(_FUZZ_PAIRS)
    if rng.random() < 0.2:
        src = universe  # mostly no such arrow
    code = f"--code={_fuzz_code(rng, universe)}"
    value = f"--value={_fuzz_value(rng)}"
    size = f"--max-size={rng.randint(0, 7)}"
    index = [f"--index={rng.choice([*_FUZZ_LABELS, _fuzz_garbage(rng)])}"] * (rng.random() < 0.4)
    env = [f"--env={_fuzz_env(rng)}"] * (rng.random() < 0.8)
    arrow = [f"--from={src}", f"--to={dst}", f"--code={_fuzz_code(rng, src)}"]
    match command:
        case "check":
            return [command, f"--universe={universe}", code, value, *index, *env]
        case "enum":
            return [command, f"--universe={universe}", code, size, *index, *env]
        case "laws":
            return [command, f"--universe={universe}", code, size]
        case "size":
            instant_code = f"--code={_fuzz_code(rng, 'instant')}"
            return [command, f"--env={_fuzz_env(rng)}", instant_code, value]
        case "props":
            names = rng.sample(oracle.property_names(), rng.randint(0, 2))
            return [command, *names, *["nosuch"] * (rng.random() < 0.1), size]
        case "lift":
            return [command, *arrow]
        case "roundtrip":
            return [command, *arrow, size]
    return [command, *arrow, value, f"--dir={rng.choice(['fwd', 'bwd'])}", *index]


def fuzz_argvs(seed: int, count: int):
    """``count`` argument vectors for the CLI from ``seed``: every command,
    with codes shaped by each universe's grammar (empty index and output sets
    included), random value text, environments and indices, ``--max-size``
    0 to 7, and suite names for ``props``. Each is well formed for argparse,
    so what it tests is the command behind it."""
    rng = random.Random(seed)
    return [_fuzz_argv(rng) for _ in range(count)]


def _drawn_value(rng, ctx, others, max_size: int = 6) -> str:
    """The text of a value of ``ctx`` of at most ``max_size`` nodes, now and
    then of another context's, which seldom conforms."""
    if rng.random() < 0.2:
        ctx = rng.choice(others)
    values = oracle.enum_context(ctx, EnumBudget(max_size=max_size))
    return print_value(rng.choice(values)) if values else "tt"


def fuzz_corpus_argvs(seed: int, count: int):
    """``count`` ``check`` and ``convert`` argument vectors from ``seed``,
    over corpus codes by name, at each index of their family, with value
    texts drawn from ``oracle.enum_context`` of the command's source
    context, so that most of them reach the commands' success paths. A
    backward conversion draws from the arrow's target context."""
    rng = random.Random(seed)
    cases = [(universe, name, ctx) for universe, codes in corpus.CODES.items()
             for name, code in codes.items()
             for ctx in embed.contexts(universe, code, corpus.INSTANT_ENVS.get(name))]
    others = [ctx for _, _, ctx in cases]
    argvs = []
    for _ in range(count):
        universe, name, ctx = rng.choice(cases)
        index = [] if ctx.at is None else [f"--index={print_label(ctx.at)}"]
        steps = [row for row in embed.STEPS.values() if row.source == universe]
        if steps and rng.random() < 0.5:
            row, backward = rng.choice(steps), rng.random() < 0.5
            value = _drawn_value(rng, row.context(ctx) if backward else ctx, others)
            argvs.append(["convert", f"--from={universe}", f"--to={row.target}", f"--code={name}",
                          f"--value={value}", f"--dir={'bwd' if backward else 'fwd'}", *index])
        else:
            env = [f"--env={name}"] if universe == "instant" else []
            argvs.append(["check", f"--universe={universe}", f"--code={name}",
                          f"--value={_drawn_value(rng, ctx, others)}", *index, *env])
    return argvs


def fuzz_i_ig_argvs(seed: int, count: int):
    """``count`` ``convert --from indexed --to instant`` argument vectors
    from ``seed``, on every indexed corpus code at each output, in both
    directions, with value texts of at most 24 nodes drawn from
    ``oracle.enum_context`` of the source context (forward) or of its i→ig
    image (backward), now and then of another context's. Below that size
    the images of ``RoseI`` and of both ``ZigZagI`` indices have few values
    or none."""
    rng = random.Random(seed)
    cases = [(name, ctx, embed.STEPS["i-ig"].context(ctx))
             for name, code in corpus.INDEXED_CODES.items()
             for ctx in embed.contexts("indexed", code)]
    others = [ctx for _, *pair in cases for ctx in pair]
    argvs = []
    for _ in range(count):
        name, ctx, image = rng.choice(cases)
        backward = rng.random() < 0.5
        value = _drawn_value(rng, image if backward else ctx, others, 24)
        argvs.append(["convert", "--from=indexed", "--to=instant", f"--code={name}",
                      f"--value={value}", f"--dir={'bwd' if backward else 'fwd'}",
                      f"--index={print_label(ctx.at)}"])
    return argvs


def fuzz_size_argvs(seed: int, count: int):
    """``count`` ``size`` argument vectors from ``seed``, over ``List⊤`` and
    the i→ig image of every indexed corpus context, each code and
    environment given as text (``dsl.print_code``, ``dsl.print_env``), with
    value texts of at most 24 nodes drawn from ``oracle.enum_context`` of
    the context, now and then of another, so that most of them reach the
    command's success path. The images have few small values: a rec node
    and a constant wrap each layer."""
    rng = random.Random(seed)
    cases = embed.contexts("instant", corpus.LIST_TOP_BODY, corpus.LIST_TOP_ENV)
    for code in corpus.INDEXED_CODES.values():
        cases += [embed.STEPS["i-ig"].context(ctx) for ctx in embed.contexts("indexed", code)]
    argvs = []
    for _ in range(count):
        ctx = rng.choice(cases)
        argvs.append(["size", f"--env={dsl.print_env(ctx.env)}",
                      f"--code={dsl.print_code('instant', ctx.code)}",
                      f"--value={_drawn_value(rng, ctx, cases, 24)}"])
    return argvs
