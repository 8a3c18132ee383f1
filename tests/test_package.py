"""What ``import genrep`` loads, and the package namespace over it.

``import genrep`` loads only the core every command needs; ``dsl``,
``oracle`` and ``cli`` load on first use, with the names the package
re-exports from them. A cold command compiles what it loads, so each README
command is pinned to the modules it runs."""

import subprocess
import sys
import types

import pytest

import genrep
from genrep import dsl, gvalue, oracle

from helpers import child_env

CORE = {"genrep", *(f"genrep.{m}" for m in (
    "gvalue", "spine", "regular", "polyp", "multirec", "indexed", "instant", "embed", "corpus"))}

# (README command, the modules beyond the core that it loads)
COMMANDS = [
    ("check --universe multirec --code ZigZagC --index L.⋆ --value zigZagEnd", {"cli", "dsl"}),
    ("lift --from indexed --to instant --code ListI", {"cli", "dsl"}),
    ("convert --from polyp --to indexed --code RoseC --value sRose --dir fwd", {"cli"}),
    ("roundtrip --from regular --to polyp --code NatC --max-size 12", {"cli", "oracle"}),
    ("enum --universe regular --code NatC --max-size 9", {"cli", "oracle"}),
    ("laws --universe polyp --code RoseC --max-size 8", {"cli", "oracle"}),
    ("size --env List⊤ --code List⊤ --value aList", {"cli"}),
]


def _loaded_after(script: str) -> set[str]:
    """The ``genrep`` modules a child has loaded after running ``script``."""
    script += ("\nprint(sorted(m for m in sys.modules "
               "if m == 'genrep' or m.startswith('genrep.')))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=child_env())
    assert (run.returncode, run.stderr) == (0, "")
    return set(eval(run.stdout.splitlines()[-1]))


def test_importing_genrep_loads_only_the_core():
    assert _loaded_after("import sys, genrep") == CORE


@pytest.mark.parametrize("command, extra", COMMANDS, ids=[c.split()[0] for c, _ in COMMANDS])
def test_a_readme_command_loads_only_the_modules_it_runs(command, extra):
    script = ("import sys, genrep.cli\n"
              f"assert genrep.cli.run_cli({command.split()!r}) == 0")
    assert _loaded_after(script) == CORE | {f"genrep.{m}" for m in extra}


def test_every_exported_name_is_its_home_modules_object():
    exported = {name: getattr(genrep, name) for name in genrep.__all__}
    modules = [m for name, m in sys.modules.items() if name.startswith("genrep.")]
    for name, obj in exported.items():
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"genrep.{name}"]
        else:
            # every module that binds the name binds this object
            homes = [m for m in modules if name in vars(m)]
            assert homes and all(vars(m)[name] is obj for m in homes), name
    assert genrep.parse_value is dsl.parse_value
    assert genrep.run_property is oracle.run_property
    assert genrep.run_cli is genrep.cli.run_cli


def test_the_moved_errors_are_one_class_each():
    assert genrep.ParseError is dsl.ParseError is gvalue.ParseError
    assert genrep.UnknownProperty is oracle.UnknownProperty is gvalue.UnknownProperty


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from genrep import *", namespace)
    assert set(genrep.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(genrep, name) for name in genrep.__all__)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        genrep.no_such_name  # noqa: B018
