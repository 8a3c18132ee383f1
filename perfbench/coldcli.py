"""The ``cli`` workload: the seven README commands, each in a fresh
``python -m genrep`` process, round-robin, with stdout and exit code pinned.

A cold call spends most of its time importing genrep, so work moved into
import time shows here while the in-process workloads amortise it away. The
``roundtrip``, ``enum`` and ``laws`` commands also enumerate at small
ceilings (8 to 12).
"""

from __future__ import annotations

COMMANDS = [
    ("check --universe multirec --code ZigZagC --index L.⋆ --value zigZagEnd",
     "conforms\n"),
    ("lift --from indexed --to instant --code ListI",
     "out ⋆ = R ig0\nig0 = U + K ⊤ * R ig0\n"),
    ("convert --from polyp --to indexed --code RoseC --value sRose --dir fwd",
     "<(tt , <in1 tt>)>\n"),
    ("roundtrip --from regular --to polyp --code NatC --max-size 12",
     "checked 10\n0 failures\n"),
    ("enum --universe regular --code NatC --max-size 9",
     "<in1 tt>\n<in2 <in1 tt>>\n<in2 <in2 <in1 tt>>>\n<in2 <in2 <in2 <in1 tt>>>>\n"),
    ("laws --universe polyp --code RoseC --max-size 8",
     "checked 2\n0 failures\n"),
    ("size --env List⊤ --code List⊤ --value aList",
     "2\n"),
]
EXIT_CODE = 0


def rotation(seed: int) -> list[tuple[list[str], str]]:
    """The commands as argv lists, starting at a seed-chosen command."""
    start = seed % len(COMMANDS)
    return [(text.split(), out) for text, out in COMMANDS[start:] + COMMANDS[:start]]


def mismatch(argv: list[str], code: int, stdout: str, expected: str) -> str | None:
    if code != EXIT_CODE:
        return f"genrep {' '.join(argv)}: exit code {code}, pinned {EXIT_CODE}"
    if stdout != expected:
        return f"genrep {' '.join(argv)}: stdout {stdout!r}, pinned {expected!r}"
    return None
