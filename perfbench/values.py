"""The ``values`` workload: seeded large values through the whole conversion
chain, one operation each, in one process.

The generator builds trees with the value constructors directly and prints
their text with its own printer, so neither the inputs nor the reference
text come from ``genrep.oracle`` or ``genrep.print_value``.

Every value has at most ``MAX_LAYERS`` nested fixed-point layers (``Roll``
nodes on one root-to-leaf path). At this commit ``hash``, ``==`` and
``conform_mu_r`` hit Python's recursion limit at about 247 layers,
``conform_mu_p`` at 198 and the polyp to indexed conversion at 164; the
depth probe in ``depth.py`` reports those limits, and this workload stays
below them so that it measures throughput, not the defect.
"""

from __future__ import annotations

import gc
import math
import random
import time

import genrep
from genrep import In1, In2, Pair, Payload, Refl, Roll, TT, embed, instant, multirec, polyp, regular
from genrep.gvalue import PayloadSlot

MAX_LAYERS = 100
MIN_NODES = 16
MAX_NODES = 4096
STRATA = 15  # 105 operations a cycle, so p90 has ten beyond it

TOP = "⊤"
_TOP_SLOT = PayloadSlot(TOP)

# ---------------------------------------------------------------------------
# trees and their canonical text, built side by side


def _roll(x):
    return Roll(x[0]), "<" + x[1] + ">"


def _in1(x):
    return In1(x[0]), "in1 " + x[1]


def _in2(x):
    return In2(x[0]), "in2 " + x[1]


def _pair(a, b):
    return Pair(a[0], b[0]), "(" + a[1] + " , " + b[1] + ")"


_TT = (TT(), "tt")
_REFL = (Refl(), "refl")


def _list_of(items):
    """A polyp list (``ListC``) whose elements are the given (tree, text)s."""
    out = _roll(_in1(_TT))
    for item in reversed(items):
        out = _roll(_in2(_pair(item, out)))
    return out


def nat(layers: int):
    """A numeral of ``NatC`` with exactly ``layers`` rolls."""
    out = _roll(_in1(_TT))
    for _ in range(layers - 1):
        out = _roll(_in2(out))
    return out


def top_list(layers: int):
    """A ``ListC`` list at the ⊤ parameter with exactly ``layers`` rolls."""
    return _list_of([_TT] * (layers - 1))


def zigzag(layers: int):
    """A ``ZigZagC`` chain with ``layers`` rolls, ending at index L.⋆.

    Returns the (tree, text) and whether the outermost roll is at L.⋆.
    """
    out, at_left = _roll(_in1(_pair(_REFL, _in2(_TT)))), True
    for _ in range(layers - 1):
        if at_left:
            out = _roll(_in2(_pair(_REFL, out)))
        else:
            out = _roll(_in1(_pair(_REFL, _in1(out))))
        at_left = not at_left
    return out, at_left


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``total`` items (at least ``parts``) in ``parts`` shares of at least one."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def binary(rng: random.Random, leaves: int, leaf):
    """``BinC`` / ``TreeC`` / ``TreeListProper`` with exactly ``leaves`` leaves.

    The split keeps each side at a quarter or more, so the depth stays
    logarithmic in the size.
    """
    if leaves == 1:
        return leaf(rng)
    low = max(1, leaves // 4)
    left = rng.randint(low, leaves - low)
    return _roll(_in2(_pair(binary(rng, left, leaf), binary(rng, leaves - left, leaf))))


def _unit_leaf(rng):
    return _roll(_in1(_TT))


def _list_leaf(rng):
    return _roll(_in1(_list_of([_TT] * rng.randint(0, 4))))


def rose(rng: random.Random, count: int):
    """``RoseC`` with exactly ``count`` rose nodes, each a ⊤ label and a list."""
    below = count - 1
    if below == 0:
        return _roll(_pair(_TT, _list_of([])))
    sizes = _split(rng, below, min(below, rng.randint(1, 4)))
    return _roll(_pair(_TT, _list_of([rose(rng, n) for n in sizes])))


def count_nodes(v) -> int:
    """Node count by an explicit stack, independent of ``value_size``."""
    count, stack = 0, [v]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Pair):
            stack.append(node.first)
            stack.append(node.second)
        elif not isinstance(node, (TT, Refl, Payload)):
            stack.append(node.value if isinstance(node, (In1, In2)) else node.inner)
    return count


def count_layers(v) -> int:
    """The largest number of rolls on one root-to-leaf path."""
    deepest, stack = 0, [(v, 0)]
    while stack:
        node, rolls = stack.pop()
        if isinstance(node, Roll):
            rolls += 1
            deepest = max(deepest, rolls)
        if isinstance(node, Pair):
            stack.append((node.first, rolls))
            stack.append((node.second, rolls))
        elif not isinstance(node, (TT, Refl, Payload)):
            stack.append((node.value if isinstance(node, (In1, In2)) else node.inner, rolls))
    return deepest


# ---------------------------------------------------------------------------
# shapes, chains and the seeded cycle of operations

STAR = embed.STAR
LSTAR, RSTAR = embed.LSTAR, embed.RSTAR

_R_P = ("r-p", "p-i", "i-ig")
_R_M = ("r-m", "m-i", "i-ig")
_P_I = ("p-i", "i-ig")
_M_I = ("m-i", "i-ig")
_IDENTITY_STEPS = {"r-p", "r-m", "p-i", "m-i"}

# Chain shapes put 2 to 5 nodes in every roll, so their layer cap bounds
# their size below MAX_NODES; their sizes are log-uniform up to that bound
# instead. ``==`` recurses once per node and a ZigZagC chain carries the
# most nodes per roll: it already fails at 95 rolls, so its cap is lower.
_CHAINS = {"NatC": (2, MAX_LAYERS), "ListC": (4, MAX_LAYERS), "ZigZagC": (4.5, 80)}

SHAPES = ("BinC", "NatC", "RoseC", "TreeC", "TreeListProper", "ListC", "ZigZagC")


class Op:
    """One generated input: the tree, its text, where it starts and its chain."""

    __slots__ = ("shape", "tree", "text", "nodes", "universe", "code", "at", "steps")

    def __init__(self, shape, tree, text, universe, code, at, steps):
        self.shape, self.tree, self.text = shape, tree, text
        self.universe, self.code, self.at, self.steps = universe, code, at, steps
        self.nodes = count_nodes(tree)


def _build(rng: random.Random, shape: str, nodes: int, stratum: int) -> Op:
    corpus = genrep.corpus
    if shape in _CHAINS:
        per_layer, cap = _CHAINS[shape]
        layers = max(3, min(cap, round(nodes / per_layer)))
        if shape == "NatC":
            tree, text = nat(layers)
        elif shape == "ListC":
            tree, text = top_list(layers)
        else:
            (tree, text), at_left = zigzag(layers - (rng.random() < 0.5))
            return Op(shape, tree, text, "multirec", corpus.ZIG_ZAG_C,
                      LSTAR if at_left else RSTAR, _M_I)
    elif shape == "RoseC":
        # a rose node with c children has 6 + 3c nodes of its own
        tree, text = rose(rng, max(1, (nodes + 3) // 9))
    elif shape == "TreeListProper":
        # a leaf holds 13 nodes on average, an inner node 3
        tree, text = binary(rng, max(1, (nodes + 3) // 16), _list_leaf)
    else:
        # a leaf holds 3 nodes, an inner node 3
        tree, text = binary(rng, max(1, (nodes + 3) // 6), _unit_leaf)
    if shape in corpus.REGULAR_CODES:
        steps = _R_P if stratum % 2 == 0 else _R_M
        return Op(shape, tree, text, "regular", corpus.REGULAR_CODES[shape], STAR, steps)
    return Op(shape, tree, text, "polyp", corpus.POLYP_CODES[shape], STAR, _P_I)


def _cap(shape: str) -> int:
    if shape not in _CHAINS:
        return MAX_NODES
    per_layer, layers = _CHAINS[shape]
    return int(per_layer * layers)


def make_cycle(rng: random.Random) -> list[Op]:
    """One operation per (shape, size stratum), in a seeded order.

    Sizes are log-uniform between MIN_NODES and the shape's cap, stratified
    into STRATA bands, each value at the middle of its band, so every seed
    puts the same sizes through; the seed picks the tree shapes (how each
    tree splits, the ZigZagC end index) and the order.
    """
    ops = []
    for shape in SHAPES:
        span = math.log(_cap(shape) / MIN_NODES)
        for stratum in range(STRATA):
            nodes = int(MIN_NODES * math.exp(span * (stratum + 0.5) / STRATA))
            while True:
                op = _build(rng, shape, nodes, stratum)
                if count_layers(op.tree) <= MAX_LAYERS:
                    break
            ops.append(op)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# one operation


class Mismatch(Exception):
    """An output differs from the reference."""


def _start_context(op: Op):
    if op.universe == "regular":
        return embed.regular_context(op.code)
    if op.universe == "polyp":
        return embed.polyp_context(op.code)
    return embed.multirec_context(op.code, op.at)


def _next_context(step: str, ctx):
    """The source context of the step after ``step``, built from public lifts."""
    if step == "r-p":
        return embed.polyp_context(embed.lift_r_to_p(ctx.code))
    if step == "r-m":
        return embed.multirec_context(embed.lift_r_to_m(ctx.code), STAR)
    if step == "p-i":
        return embed.indexed_context(embed.fix_p_code(ctx.code), {STAR: instant.Prim(TOP)}, STAR)
    return embed.indexed_context(embed.fix_m_code(ctx.code), {}, ctx.at)


def _conforms_at_source(op: Op, v) -> bool:
    if op.universe == "regular":
        return regular.conform_mu_r(op.code, v)
    if op.universe == "polyp":
        return polyp.conform_mu_p(op.code, _TOP_SLOT, v)
    return multirec.conform_mu_m(op.code, op.at, v)


def run_op(op: Op, eq) -> None:
    """Parse, check, convert to instant and back, print; raise on any mismatch.

    ``eq`` compares two trees; the traced run passes a version that records
    a span, the untraced run plain ``==``.
    """
    v = genrep.dsl.parse_value(op.text)
    if not eq(v, op.tree):
        raise Mismatch("parse_value does not give the generated tree")
    if not _conforms_at_source(op, v):
        raise Mismatch(f"does not conform in {op.universe}")
    start = ctx = _start_context(op)
    current = v
    for step in op.steps:
        current = embed.compose_path([step], ctx, current)
        if step in _IDENTITY_STEPS:
            if not eq(current, v):
                raise Mismatch(f"{step} changed the value tree")
            ctx = _next_context(step, ctx)
    lifted, env = embed.lift_i_to_ig(ctx.code, dict(ctx.table))
    if not instant.conform_ig(env, lifted[ctx.at], current):
        raise Mismatch("the instant value does not conform to the lifted code")
    back = embed.compose_path(list(op.steps), start, current, "backward")
    if not eq(back, op.tree):
        raise Mismatch("the backward chain does not give the generated tree")
    if genrep.print_value(back) != op.text:
        raise Mismatch("print_value differs from the generated text")


def plain_eq(a, b) -> bool:
    return a == b


def run_cycle(ops: list[Op], eq=plain_eq, pacer=None) -> tuple[list[float | None], list[str]]:
    """Run every op once; return per-op seconds (None if it failed), paced by
    ``pacer`` if one is given (see ``pace.py``), and the failure messages.

    The generated inputs are moved out of the collector's sight first, so
    garbage collection scans what the program allocates, not the harness.
    """
    times, failures = [], []
    gc.collect()
    gc.freeze()
    if pacer is not None:
        pacer.begin()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                run_op(op, eq)
            except Exception as err:  # every failure is counted, none stops the run
                failures.append(f"{op.shape} ({op.nodes} nodes): {type(err).__name__}: {err}")
                times.append(None)
                continue
            elapsed = time.perf_counter() - t0
            times.append(elapsed if pacer is None else pacer.pace(elapsed))
    finally:
        gc.unfreeze()
    return times, failures
