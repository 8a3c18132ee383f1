"""The demo scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_enum_corpus_lists_every_code_at_every_index():
    out = run_script("enum_corpus.py", "--max-size", "6")
    assert out.returncode == 0
    assert out.stderr == ""
    assert [line for line in out.stdout.splitlines() if line.startswith("-- ")] == [
        "-- regular NatC: 2 values",
        "-- regular BinC: 1 values",
        "-- polyp ListC: 1 values",
        "-- polyp RoseC: 1 values",
        "-- polyp TreeC: 1 values",
        "-- polyp TreeListNaive: 1 values",
        "-- polyp TreeListProper: 1 values",
        "-- multirec ZigZagC at L.⋆: 1 values",
        "-- multirec ZigZagC at R.⋆: 0 values",
        "-- indexed NatI at ⋆: 2 values",
        "-- indexed BinI at ⋆: 1 values",
        "-- indexed ListI at ⋆: 1 values",
        "-- indexed RoseI at ⋆: 1 values",
        "-- indexed ZigZagI at L.⋆: 1 values",
        "-- indexed ZigZagI at R.⋆: 0 values",
        "-- instant List⊤: 1 values",
    ]


def test_run_properties_passes_every_suite():
    out = run_script("run_properties.py", "--max-size", "6")
    assert out.returncode == 0
    assert out.stderr == ""
    lines = out.stdout.splitlines()
    assert len(lines) == 24
    assert all(line.startswith("ok ") for line in lines)
