"""Shared generators and plumbing for the test suite.

`all_trees_upto` builds every value tree over a small alphabet so the
structural enumerators can be checked against an oracle that cannot share
their blind spots.  `gvalues` is the hypothesis strategy used by the
round-trip properties.  `child_env` is the environment every test that
starts a Python process gives it.  `corpus_contexts` lists every corpus
context.  `indexed_list` and `rose` build values of the indexed list and
rose codes.  `same_tree` compares two trees of any depth.
"""

import os
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
import pytest

from genrep import corpus, embed
from genrep import (
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
)

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """The environment for a child Python process: this one's, with the
    checkout's ``src`` first on ``PYTHONPATH`` so ``genrep`` imports from
    the tree under test."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
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
    """Structural equality by an explicit stack, since ``==`` recurses."""
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
