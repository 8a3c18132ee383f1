"""Shared generators and plumbing for the test suite.

`all_trees_upto` builds every value tree over a small alphabet so the
structural enumerators can be checked against an oracle that cannot share
their blind spots.  `gvalues` is the hypothesis strategy used by the
round-trip properties.  `child_env` is the environment every test that
starts a Python process gives it.
"""

import os
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st

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
