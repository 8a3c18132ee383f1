"""Depth probe: the deepest numeral or list each operation completes on.

Today every walk recurses once or more per node, so Python's recursion
limit caps value depth; the probe keeps that defect visible as per-layer
counts without gating on it. For each operation it doubles the depth until
the operation fails or 100,000 is reached, then binary-searches, one depth
at a time in this process. A ``RecursionError`` is "does not complete";
any other error or a wrong result is a failure of the program.
"""

from __future__ import annotations

from genrep import In1, In2, Konst, Pair, Payload, RecV, Roll, TT, corpus, dsl, embed, instant
from genrep import polyp, print_value, regular, value_size
from genrep.gvalue import PayloadSlot

from values import count_nodes

LIMIT = 100_000


def _same(a, b) -> bool:
    """Structural equality by an explicit stack (``==`` recurses)."""
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


def numeral(depth: int):
    """The ``NatC`` numeral with ``depth`` rolls."""
    v = Roll(In1(TT()))
    for _ in range(depth - 1):
        v = Roll(In2(v))
    return v


def numeral_text(depth: int):
    return numeral(depth), "<in2 " * (depth - 1) + "<in1 tt>" + ">" * (depth - 1)


def top_list(depth: int):
    """The ``ListC`` list of ``tt`` with ``depth`` rolls."""
    v = Roll(In1(TT()))
    for _ in range(depth - 1):
        v = Roll(In2(Pair(TT(), v)))
    return v


def _ops():
    """name -> (build(depth) -> input, run(input) -> bool)."""
    top = PayloadSlot("⊤")
    nat_m = embed.lift_r_to_m(corpus.NAT_C)
    table = {embed.STAR: instant.Prim("⊤")}

    return {
        "conform_mu_r": (numeral, lambda v: regular.conform_mu_r(corpus.NAT_C, v)),
        "conform_mu_p": (top_list,
                         lambda v: polyp.conform_mu_p(corpus.LIST_C, top, v)),
        "hash": (numeral, lambda v: isinstance(hash(v), int)),
        "value_size": (numeral, lambda v: value_size(v) == count_nodes(v)),
        "print_value": (numeral_text, lambda vt: print_value(vt[0]) == vt[1]),
        "parse_value": (numeral_text, lambda vt: _same(dsl.parse_value(vt[1]), vt[0])),
        "convert.r-p": (numeral, lambda v: _same(embed.convert_r_p(corpus.NAT_C, v, "forward"), v)),
        "convert.r-m": (numeral, lambda v: _same(embed.convert_r_m(corpus.NAT_C, v, "forward"), v)),
        "convert.p-i": (top_list,
                        lambda v: _same(embed.convert_p_i(corpus.LIST_C, v, "forward"), v)),
        "convert.m-i": (numeral,
                        lambda v: _same(embed.convert_m_i(nat_m, embed.STAR, v, "forward"), v)),
        "convert.i-ig": (numeral, lambda v: count_nodes(
            embed.convert_i_ig(corpus.NAT_I, table, embed.STAR, v, "forward")) == count_nodes(v)),
    }


OPS = tuple(_ops())


def _completes(build, run, depth: int) -> bool:
    subject = build(depth)
    try:
        ok = run(subject)
    except RecursionError:
        return False
    if not ok:
        raise AssertionError(f"wrong result at depth {depth}")
    return True


def probe() -> tuple[dict[str, int], list[str]]:
    """depth.<op> for every operation, plus the failures seen on the way."""
    depths, failures = {}, []
    for name, (build, run) in _ops().items():
        try:
            good, bad, d = 0, None, 16
            while bad is None and good < LIMIT:
                d = min(d, LIMIT)
                if _completes(build, run, d):
                    good, d = d, d * 2
                else:
                    bad = d
            while bad is not None and bad - good > 1:
                mid = (good + bad) // 2
                if _completes(build, run, mid):
                    good = mid
                else:
                    bad = mid
            depths[f"depth.{name}"] = good
        except Exception as err:  # a wrong answer or a crash other than depth
            failures.append(f"depth probe {name}: {type(err).__name__}: {err}")
            depths[f"depth.{name}"] = 0
    return depths, failures
