import subprocess
import sys

import pytest

from helpers import child_env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "genrep", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_check_conforming_value():
    out = run_cli("check", "--universe", "regular", "--code", "NatC", "--value", "aNat")
    assert out.returncode == 0
    assert out.stdout == "conforms\n"
    assert out.stderr == ""


def test_check_wrong_index_fails():
    out = run_cli(
        "check",
        "--universe",
        "multirec",
        "--code",
        "ZigZagC",
        "--index",
        "R.⋆",
        "--value",
        "zigZagEnd",
    )
    assert out.returncode == 1
    assert out.stdout == "does not conform\n"


def test_check_defaults_to_the_first_index():
    out = run_cli(
        "check", "--universe", "multirec", "--code", "ZigZagC", "--value", "zigZagEnd"
    )
    assert out.returncode == 0


def test_size_counts_recursive_layers():
    out = run_cli("size", "--env", "List⊤", "--code", "List⊤", "--value", "aList")
    assert out.returncode == 0
    assert out.stdout == "2\n"


def test_roundtrip_reports_zero_failures():
    out = run_cli(
        "roundtrip", "--from", "regular", "--to", "polyp", "--code", "NatC",
        "--max-size", "12",
    )
    assert out.returncode == 0
    assert "0 failures" in out.stdout
    assert out.stdout.endswith("checked 10\n0 failures\n")


def test_enum_lists_values_in_order():
    out = run_cli("enum", "--universe", "regular", "--code", "NatC", "--max-size", "9")
    assert out.returncode == 0
    assert out.stdout == (
        "<in1 tt>\n"
        "<in2 <in1 tt>>\n"
        "<in2 <in2 <in1 tt>>>\n"
        "<in2 <in2 <in2 <in1 tt>>>>\n"
    )


def test_lift_prints_codes_and_environments():
    out = run_cli("lift", "--from", "regular", "--to", "multirec", "--code", "NatC")
    assert out.returncode == 0
    assert out.stdout == "indices: ⋆\nU + I@⋆\n"

    out = run_cli("lift", "--from", "indexed", "--to", "instant", "--code", "ListI")
    assert out.returncode == 0
    assert out.stdout == "out ⋆ = R ig0\nig0 = U + K ⊤ * R ig0\n"


def test_convert_is_inverted_by_the_other_direction():
    fwd = run_cli(
        "convert", "--from", "polyp", "--to", "indexed", "--code", "RoseC",
        "--value", "sRose", "--dir", "fwd",
    )
    assert fwd.returncode == 0
    back = run_cli(
        "convert", "--from", "polyp", "--to", "indexed", "--code", "RoseC",
        "--value", fwd.stdout.strip(), "--dir", "bwd",
    )
    assert back.stdout == "<(tt , <in1 tt>)>\n"


def test_laws_run_per_universe():
    out = run_cli("laws", "--universe", "regular", "--code", "NatC", "--max-size", "8")
    assert out.returncode == 0
    assert "0 failures" in out.stdout


def test_inline_code_and_value_text_are_accepted():
    out = run_cli(
        "check", "--universe", "regular", "--code", "U + I * I",
        "--value", "<in2 (<in1 tt> , <in1 tt>)>",
    )
    assert out.returncode == 0


def test_parse_errors_exit_two():
    out = run_cli("check", "--universe", "regular", "--code", "U +", "--value", "aNat")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: 1:4:")


def test_unknown_property_name_exits_two():
    out = run_cli("laws", "--universe", "instant", "--code", "List⊤", "--max-size", "6")
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")


def test_fuel_exhaustion_exits_three():
    out = run_cli(
        "check", "--universe", "instant", "--code", "List⊤", "--env", "List⊤",
        "--value", "aList", "--fuel", "1",
    )
    assert out.returncode == 3
    assert out.stderr.startswith("error: ")


NESTED_COMP = "in: x\nout: x\n(U @ I@x) @ I@x"


def test_nested_compositions_convert_to_instant():
    """A composition layer consumes no node of the indexed value, so the
    conversion is not bounded by the value's size."""
    out = run_cli(
        "convert", "--from", "indexed", "--to", "instant", "--code", NESTED_COMP,
        "--value", "tt", "--dir", "fwd",
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "rec rec tt\n", "")
    out = run_cli(
        "roundtrip", "--from", "indexed", "--to", "instant", "--code", NESTED_COMP,
        "--max-size", "4",
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "checked 2\n0 failures\n", "")


def test_usage_errors_exit_two():
    out = run_cli("nosuch")
    assert out.returncode == 2
    assert out.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--universe", "regular", "--code", "NatC", "--value", "aNat"),
        ("enum", "--universe", "polyp", "--code", "ListC", "--max-size", "12"),
        ("lift", "--from", "indexed", "--to", "instant", "--code", "RoseI"),
        ("roundtrip", "--from", "multirec", "--to", "indexed", "--code", "ZigZagC",
         "--max-size", "10"),
        ("laws", "--universe", "indexed", "--code", "NatI", "--max-size", "8"),
        ("size", "--env", "List⊤", "--code", "List⊤", "--value", "aList"),
    ],
)
def test_transcripts_are_byte_stable(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("enum", "--universe", "regular", "--code", "NatC"),
        ("roundtrip", "--from", "regular", "--to", "polyp", "--code", "NatC"),
        ("laws", "--universe", "regular", "--code", "NatC"),
    ],
)
def test_max_size_below_one_is_a_usage_error(args):
    out = run_cli(*args, "--max-size", "0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: max_size must be at least 1\n"


@pytest.mark.parametrize(
    "args",
    [
        ("--from", "polyp", "--to", "indexed", "--code", "ListC",
         "--value", "<in2 (nat#0 , <in1 tt>)>"),
        ("--from", "multirec", "--to", "indexed", "--code", "ZigZagC", "--index", "L.⋆",
         "--value", "<in2 (refl , <in1 (refl , in2 tt)>)>"),
    ],
    ids=["token-at-parameter", "refl-under-wrong-tag"],
)
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_convert_rejects_non_conforming_values(args, direction):
    out = run_cli("convert", *args, "--dir", direction)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("value", ["tt", "zigZagEnd"])
@pytest.mark.parametrize(
    "command",
    [
        ("check", "--universe", "multirec"),
        ("convert", "--from", "multirec", "--to", "indexed", "--dir", "fwd"),
    ],
    ids=["check", "convert"],
)
def test_unknown_multirec_index_exits_two_whatever_the_value(command, value):
    out = run_cli(*command, "--code", "ZigZagC", "--index", "nosuch", "--value", value)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: index nosuch is not in the code's index set\n"


@pytest.mark.parametrize(
    "universe, code, message",
    [
        ("multirec", "ZigZagC", "index nosuch is not in the code's index set"),
        ("indexed", "ZigZagI", "index nosuch is not an output of the code"),
    ],
)
def test_enum_at_an_unknown_index_exits_two(universe, code, message):
    out = run_cli(
        "enum", "--universe", universe, "--code", code, "--index", "nosuch", "--max-size", "8"
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "size"])
def test_dangling_reference_is_one_error_line(command):
    universe = ("--universe", "instant") if command == "check" else ()
    out = run_cli(
        command, *universe, "--env", "List⊤", "--code", "R B", "--value", "rec tt"
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: reference B is not defined in the environment\n"


@pytest.mark.parametrize(
    "src, dst, code, expected",
    [
        ("regular", "polyp", "NatC", "U + I\n"),
        ("polyp", "indexed", "RoseC",
         "in: L.⋆, R.⋆\nout: ⋆\nI@L.⋆ * fix (U + I@L.⋆ * I@R.⋆) @ I@R.⋆\n"),
        ("multirec", "indexed", "ZigZagC",
         "in: R.L.⋆, R.R.⋆\nout: L.⋆, R.⋆\n!L.⋆ * (I@R.R.⋆ + U) + !R.⋆ * I@R.L.⋆\n"),
    ],
    ids=["r-p", "p-i", "m-i"],
)
def test_lift_prints_the_open_lifted_code(src, dst, code, expected):
    out = run_cli("lift", "--from", src, "--to", dst, "--code", code)
    assert out.returncode == 0
    assert out.stdout == expected
    assert out.stderr == ""


@pytest.mark.parametrize(
    "args, exit_code, message",
    [
        (("--code", "NatI", "--index", "nosuch", "--value", "<in1 tt>", "--dir", "fwd"),
         2, "index nosuch is not an output of the code"),
        (("--code", "NatI", "--index", "nosuch", "--value", "rec in1 tt", "--dir", "bwd"),
         2, "index nosuch is not an output of the code"),
        (("--code", "ZigZagI", "--value", "<in2 (refl , <in1 (refl , in2 tt)>)>",
          "--dir", "fwd"),
         1, "refl under tag R.⋆ at index L.⋆"),
        (("--code", "ZigZagI", "--value", "rec in2 (k refl , rec in1 (k refl , in2 tt))",
          "--dir", "bwd"),
         1, "refl under tag R.⋆ at index L.⋆"),
    ],
    ids=["index-fwd", "index-bwd", "tag-fwd", "tag-bwd"],
)
def test_convert_to_instant_checks_the_index_and_the_tags(args, exit_code, message):
    out = run_cli("convert", "--from", "indexed", "--to", "instant", *args)
    assert out.returncode == exit_code
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"


def test_an_env_too_long_to_name_a_file_is_env_text():
    env = "".join(f"Entry{i} = U + K ⊤ * R Entry{i}\n" for i in range(12))
    assert len(env.encode()) > 255
    out = run_cli(
        "check", "--universe", "instant", "--env", env, "--code", "Entry11",
        "--value", "in1 tt",
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "conforms\n", "")


def test_an_env_directory_is_one_error_line(tmp_path):
    out = run_cli(
        "enum", "--universe", "instant", "--env", str(tmp_path), "--code", "A",
        "--max-size", "3",
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: cannot read env file {tmp_path}: Is a directory\n"


def test_an_env_file_that_is_not_utf8_is_one_error_line(tmp_path):
    path = tmp_path / "utf16.env"
    path.write_bytes("A = K ⊤".encode("utf-16"))
    out = run_cli(
        "check", "--universe", "instant", "--env", str(path), "--code", "A",
        "--value", "k tt",
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == f"error: env file {path} is not UTF-8 text\n"
