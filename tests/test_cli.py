import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fusion_sos import cli
from fusion_sos.cli import main
from fusion_sos.exactcore import ExactMatrix
from fusion_sos.fusion import fuse_nm
from fusion_sos.lattice import LatticeSpec, partition_sos
from fusion_sos.sos import WeightQuery, w_nm_sum
from fusion_sos.vertex import ModelParams

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_weights_basic_value(capsys):
    code, out = run_cli(
        capsys,
        "weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1",
        "--bprime", "1", "--c", "0", "--u", "3", "--w", "1/2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "4"


def test_weights_methods_agree(capsys):
    args = [
        "weights", "--n", "2", "--m", "2", "--a", "1", "--b", "1",
        "--bprime", "1", "--c", "1", "--u", "7/3", "--w", "1/2",
    ]
    values = set()
    for method in ("sum", "hyper", "solve"):
        code, out = run_cli(capsys, *args, "--method", method)
        assert code == 0
        values.add(json.loads(out)["value"])
    assert len(values) == 1


def test_weights_invalid_adjacency_exit_code(capsys):
    code, out = run_cli(
        capsys,
        "weights", "--n", "1", "--m", "1", "--a", "4", "--b", "1",
        "--bprime", "1", "--c", "0", "--u", "3", "--w", "1/2",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["value"] == "0"
    assert payload["error"] == "invalid adjacency"


def test_weights_csv_format(capsys):
    code, out = run_cli(
        capsys,
        "weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1",
        "--bprime", "1", "--c", "0", "--u", "3", "--w", "1/2", "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,m,a,b,bprime,c,u,method,value"
    assert row.endswith(",4")


def test_bad_rational_rejected(capsys):
    code, _ = run_cli(
        capsys,
        "weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1",
        "--bprime", "1", "--c", "0", "--u", "3..0", "--w", "1/2",
    )
    assert code == 2


def test_rmatrix_json_round_trip(capsys):
    code, out = run_cli(capsys, "rmatrix", "--family", "seven", "--u", "2", "--alpha", "1")
    assert code == 0
    payload = json.loads(out)
    mat = ExactMatrix.from_jsonable(payload["matrix"])
    assert mat[0, 0] == 3 and mat[3, 0] == 6


def test_fuse_dump_shape(capsys):
    code, out = run_cli(capsys, "fuse", "--n", "2", "--m", "1", "--u", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"]["rows"] == 6


def test_partition_vertex(capsys):
    code, out = run_cli(
        capsys, "partition", "--model", "vertex", "--N", "2", "--M", "2", "--u", "7/3", "--alpha", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "83764/81"


@pytest.mark.parametrize("other", ["--s", "--t"])
def test_w_with_s_or_t_rejected(capsys, other):
    code = main([
        "weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1",
        "--bprime", "1", "--c", "0", "--u", "3", "--w", "1/2", other, "1/3",
    ])
    assert code == 2
    assert "give either --w or --s/--t, not both" in capsys.readouterr().err


def test_partition_sos_requires_range(capsys):
    code, _ = run_cli(capsys, "partition", "--model", "sos", "--N", "2", "--M", "2", "--u", "7/3")
    assert code == 2


@pytest.mark.parametrize(
    "window, message",
    [
        ("2..-2", "--range LO..HI needs LO <= HI, got 2..-2"),
        ("2", "--range must look like LO..HI"),
        ("a..b", "--range must look like LO..HI"),
        ("1..2..3", "--range must look like LO..HI"),
    ],
    ids=["reversed", "one-number", "not-integers", "three-parts"],
)
def test_partition_sos_refuses_a_bad_range(capsys, window, message):
    # A reversed window is an empty sum, 0, which would read as a partition sum.
    code = main(["partition", "--model", "sos", "--N", "2", "--M", "2", "--u", "7/3", "--w", "1/2", "--range", window])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_partition_sos_accepts_a_one_height_window(capsys):
    # At n = m = 2 a height is adjacent to itself, so LO = HI is a nonzero sum.
    code, out = run_cli(
        capsys, "partition", "--model", "sos", "--N", "2", "--M", "2", "--n", "2", "--m", "2",
        "--u", "7/3", "--w", "1/2", "--range", "1..1",
    )
    assert code == 0
    expected = partition_sos(LatticeSpec(2, 2, 2, 2, Fraction(7, 3)), (1, 1), ModelParams(1, 0, 1))
    assert expected != 0
    assert Fraction(json.loads(out)["value"]) == expected


def test_partition_sos_readme_example(capsys):
    code, out = run_cli(
        capsys,
        "partition", "--model", "sos", "--N", "2", "--M", "2", "--u", "7/3",
        "--w", "1/2", "--range", "-2..2",
    )
    assert code == 0
    payload = json.loads(out)
    # --w 1/2 sets s = 0, t = 1; alpha defaults to 1.
    expected = partition_sos(LatticeSpec(2, 2, 1, 1, Fraction(7, 3)), (-2, 2), ModelParams(1, 0, 1))
    assert expected != 0
    assert Fraction(payload["value"]) == expected
    assert payload["range"] == "-2..2"


@pytest.mark.parametrize(
    "model", [["vertex", "--alpha", "1"], ["sos", "--range", "-2..2"]], ids=["vertex", "sos"]
)
@pytest.mark.parametrize("size", [("0", "2"), ("-1", "2"), ("2", "0"), ("2", "-1")])
def test_partition_rejects_empty_lattice(capsys, model, size):
    code = main(["partition", "--model", *model, "--N", size[0], "--M", size[1], "--u", "7/3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "lattice size must be at least 1 x 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse", "--n", "0", "--m", "1", "--u", "7/3"],
        ["fuse", "--n", "1", "--m", "-1", "--u", "7/3"],
        ["partition", "--model", "vertex", "--n", "0", "--N", "2", "--M", "2", "--u", "7/3"],
        ["partition", "--model", "sos", "--m", "0", "--N", "2", "--M", "2", "--u", "7/3",
         "--w", "1/2", "--range", "-2..2"],
        ["rmatrix", "--family", "eleven", "--d", "1/3", "--m", "-1"],
        ["verify", "correspondence", "--n", "-1", "--samples", "1"],
        ["verify", "correspondence", "--m", "-2", "--samples", "1"],
        ["verify", "all", "--max-sum", "3", "--samples", "1", "--n", "0"],
    ],
    ids=["fuse-n0", "fuse-m-1", "partition-vertex-n0", "partition-sos-m0", "rmatrix-eleven-m-1",
         "verify-correspondence-n-1", "verify-correspondence-m-2", "verify-all-n0"],
)
def test_orders_below_one_rejected(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "fusion orders must be at least 1" in captured.err


@pytest.mark.parametrize("extra", [[], ["--alpha", "2/3", "--w", "1/5"]], ids=["unit", "alpha-w"])
def test_verify_om_suite_passes(capsys, extra):
    code, out = run_cli(capsys, "verify", "om", *extra)
    assert code == 0
    assert "all identity checks passed" in out


def test_verify_star_triangle_passes(capsys):
    code, out = run_cli(capsys, "verify", "star-triangle")
    assert code == 0


def test_verify_ybe_vertex_passes(capsys):
    code, out = run_cli(capsys, "verify", "ybe-vertex", "--max-sum", "4", "--samples", "1")
    assert code == 0
    assert "FAIL" not in out


def test_verify_ybe_sos_honours_max_sum(capsys):
    code, out = run_cli(capsys, "verify", "ybe-sos", "--max-sum", "6", "--samples", "1")
    assert code == 0
    assert "[ybe-sos] ((1, 1, 4)," in out
    assert "FAIL" not in out


@pytest.mark.parametrize("given", [["--u", "1/3"], ["--v", "1/5"]], ids=["u-alone", "v-alone"])
def test_verify_correspondence_needs_both_spectral_values(capsys, given):
    code = main(["verify", "correspondence", *given])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "give both --u and --v" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ybe-vertex", "--max-sum", "2"], "--max-sum must be at least 3"),
        (["ybe-sos", "--max-sum", "2"], "--max-sum must be at least 3"),
        (["all", "--max-sum", "2"], "--max-sum must be at least 3"),
        (["ybe-vertex", "--samples", "0"], "--samples must be at least 1"),
        (["ybe-sos", "--samples", "0"], "--samples must be at least 1"),
        (["correspondence", "--samples", "0"], "--samples must be at least 1"),
        (["all", "--samples", "-1"], "--samples must be at least 1"),
    ],
    ids=["ybe-vertex-max-sum", "ybe-sos-max-sum", "all-max-sum", "ybe-vertex-samples",
         "ybe-sos-samples", "correspondence-samples", "all-samples"],
)
def test_verify_refuses_an_empty_suite(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["om", "--u", "1/3", "--v", "5"], "--u, --v only apply to the correspondence suite"),
        (["ybe-vertex", "--n", "2"], "--n only apply to the correspondence suite"),
        (["weights", "--m", "1"], "--m only apply to the correspondence suite"),
        (["star-triangle", "--n", "1", "--m", "1"], "--n, --m only apply to the correspondence suite"),
        (["om", "--samples", "2"], "--samples only apply to the ybe-vertex or ybe-sos or correspondence suite"),
        (["star-triangle", "--max-sum", "4"], "--max-sum only apply to the ybe-vertex or ybe-sos suite"),
        (["weights", "--samples", "1"], "--samples only apply to the ybe-vertex or ybe-sos or correspondence suite"),
    ],
    ids=["om-u-v", "ybe-vertex-n", "weights-m", "star-triangle-n-m", "om-samples", "star-triangle-max-sum",
         "weights-samples"],
)
def test_verify_refuses_options_the_suite_ignores(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("rmatrix --family seven --u 1/3 --d 2", "--d only applies to rmatrix --family eleven"),
        ("rmatrix --family eleven --d 1/3 --u 5", "--u only applies to rmatrix --family seven"),
        ("rmatrix --family seven --u 1/3 --n 2", "--n only applies to rmatrix --family eleven"),
        ("rmatrix --u 1/3 --m 1", "--m only applies to rmatrix --family eleven"),
        ("partition --model vertex --N 2 --M 2 --u 7/3 --range 0..3", "--range only applies to partition --model sos"),
        ("partition --model vertex --N 2 --M 2 --u 7/3 --w 1/3", "--w only applies to partition --model sos"),
        ("partition --model vertex --N 2 --M 2 --u 7/3 --s 1/3", "--s only applies to partition --model sos"),
        ("partition --model vertex --N 2 --M 2 --u 7/3 --t 5", "--t only applies to partition --model sos"),
        (
            "partition --model vertex --N 2 --M 2 --u 7/3 --w 1/2 --range 0..3",
            "--range, --w only apply to partition --model sos",
        ),
        (
            "partition --model sos --N 2 --M 2 --u 7/3 --w 1/2 --range -2..2 --alpha 1",
            "--alpha only applies to partition --model vertex",
        ),
    ],
    ids=[
        "rmatrix-seven-d",
        "rmatrix-eleven-u",
        "rmatrix-seven-n",
        "rmatrix-seven-m",
        "partition-vertex-range",
        "partition-vertex-w",
        "partition-vertex-s",
        "partition-vertex-t",
        "partition-vertex-range-w",
        "partition-sos-alpha",
    ],
)
def test_refuses_options_the_mode_ignores(capsys, argv, message):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, explicit",
    [
        (["rmatrix", "--family", "eleven", "--d", "1/3"], ["--n", "1"]),
        (["rmatrix", "--family", "eleven", "--d", "1/3"], ["--n", "1", "--m", "1"]),
        (["verify", "correspondence", "--samples", "2"], ["--n", "1"]),
        (["verify", "correspondence", "--samples", "2"], ["--n", "1", "--m", "1"]),
        (["verify", "ybe-vertex", "--samples", "1"], ["--max-sum", "5"]),
        (["verify", "ybe-sos", "--max-sum", "3"], ["--samples", "3"]),
    ],
    ids=["rmatrix-eleven-n", "rmatrix-eleven-n-m", "correspondence-n", "correspondence-n-m",
         "ybe-vertex-max-sum", "ybe-sos-samples"],
)
def test_explicit_defaults_are_accepted(capsys, argv, explicit):
    """None, not a falsy value, marks an absent flag: a flag given at its
    default value is read, and gives the output of the default."""
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, *explicit) == (0, out)


def test_verify_all_runs_every_suite_in_order(capsys):
    code, out = run_cli(capsys, "verify", "all", "--max-sum", "3", "--samples", "1")
    assert code == 0
    tags = [line.split("]")[0] + "]" for line in out.splitlines() if line.startswith("[")]
    assert list(dict.fromkeys(tags)) == [
        "[ybe-vertex]", "[ybe-sos]", "[star-triangle]", "[om-identity]", "[correspondence]", "[weights-three-way]",
    ]
    assert out.endswith("all identity checks passed\n")


def test_verify_correspondence_orders_default_to_one(capsys):
    code, out = run_cli(capsys, "verify", "correspondence", "--samples", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[correspondence]")]
    assert len(lines) == 2
    assert all(line.startswith("[correspondence] (1, 1, ") for line in lines)


def test_verify_correspondence_at_fixed_pair(capsys):
    code, out = run_cli(capsys, "verify", "correspondence", "--u", "1/3", "--v", "1/5", "--samples", "4")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[correspondence]")]
    assert len(lines) == 4
    assert all(line.endswith("Fraction(1, 3), Fraction(1, 5)): pass") for line in lines)


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["fuse", "--n", "1", "--m", "1"], "--u", "-1/3"),
        (["weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1", "--bprime", "1", "--c", "0", "--w", "1/2"],
         "--u", "-7/3"),
        (["partition", "--model", "sos", "--N", "2", "--M", "2", "--u", "7/3", "--w", "1/2"], "--range", "-2..2"),
    ],
    ids=["fuse-u", "weights-u", "partition-range"],
)
def test_negative_option_values(capsys, argv, option, value):
    """A value such as -1/3 or -2..2 after an option is read as its value,
    exactly as when it is attached with '='."""
    code, out = run_cli(capsys, *argv, option, value)
    assert code == 0
    assert json.loads(out)[option[2:]] == value
    assert run_cli(capsys, *argv, f"{option}={value}") == (0, out)


def test_negative_option_values_reach_the_library(capsys):
    code, out = run_cli(capsys, "fuse", "--n", "1", "--m", "1", "--u", "-1/3")
    assert code == 0
    assert ExactMatrix.from_jsonable(json.loads(out)["matrix"]) == fuse_nm(1, 1, Fraction(-1, 3), ModelParams(1))
    code, out = run_cli(
        capsys,
        "weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1",
        "--bprime", "1", "--c", "0", "--u", "-7/3", "--w", "1/2",
    )
    assert code == 0
    query = WeightQuery(1, 1, 2, 1, 1, 0, Fraction(-7, 3))
    assert Fraction(json.loads(out)["value"]) == w_nm_sum(query, ModelParams(1, 0, 1))


def test_verify_weights_at_negative_alpha(capsys):
    code, out = run_cli(capsys, "verify", "weights", "--alpha", "-3/2", "--w", "1/5")
    assert code == 0
    assert out.endswith("all identity checks passed\n")


def test_verify_exits_1_on_a_failed_identity(capsys, monkeypatch):
    """The om row's check, made to fail on the suite's first case alone, gives
    one FAIL line among passing ones and exit 1: verify runs the check its
    row holds."""
    tag, flags, cases, check = cli._SUITES["om"]
    first = cases(random.Random(2024))[0]
    monkeypatch.setitem(cli._SUITES, "om", (tag, flags, cases, lambda params, case: case != first and check(params, case)))
    code, out = run_cli(capsys, "verify", "om")
    *lines, last = out.splitlines()
    assert code == 1
    assert lines[0] == f"[om-identity] {first}: FAIL"
    assert len(lines) == 29
    assert all(line.startswith("[om-identity] ") and line.endswith(": pass") for line in lines[1:])
    assert last == "1 identity check(s) FAILED"


def test_verify_names_the_case_that_raised(capsys):
    """The error keeps its first stderr line, which callers match on to tell
    a degenerate point from other exits, and a second line names the suite
    and the case that raised it."""
    code = main(["verify", "weights", "--alpha", "3/2", "--w", "7/3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: gamma ratio hit a pole/zero collision\n"
        "in suite weights-three-way, case 11: (1, 1, 0, 1, 0)\n"
    )



@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "om"],
        ["weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1", "--bprime", "1", "--c", "0", "--u", "3", "--w", "1/2"],
    ],
    ids=["verify", "weights"],
)
@pytest.mark.parametrize("closed_at", ["write", "flush"])
def test_closed_stdout_ends_quietly(capsys, monkeypatch, tmp_path, argv, closed_at):
    """A reader that went away, as ``verify all | head -n 1`` leaves it: exit
    141 with nothing on stderr, and stdout's descriptor now writes to
    os.devnull, so the flush at exit cannot fail again.  Output small enough
    to stay in the buffer meets the closed pipe only at the flush."""
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            if closed_at == "write":
                raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            if closed_at == "flush":
                raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        code = main(argv)
        os.write(fd, b"after the pipe closed")
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("rmatrix --u 7/3 --s 1/3", "unrecognized arguments: --s 1/3"),
        ("rmatrix --family eleven --d 1/3 --t 5", "unrecognized arguments: --t 5"),
        ("fuse --n 2 --m 1 --u 7/3 --s 1/3", "unrecognized arguments: --s 1/3"),
        ("fuse --n 2 --m 1 --u 7/3 --t 1/3", "unrecognized arguments: --t 1/3"),
        ("rmatrix --u 7/3 --format csv", "argument --format: invalid choice: 'csv'"),
        ("fuse --n 2 --m 1 --u 7/3 --format csv", "argument --format: invalid choice: 'csv'"),
        ("partition --model vertex --N 7 --M 1 --u 7/2 --format csv", "argument --format: invalid choice: 'csv'"),
    ],
    ids=["rmatrix-s", "rmatrix-eleven-t", "fuse-s", "fuse-t", "rmatrix-csv", "fuse-csv", "partition-csv"],
)
def test_parser_refuses_what_the_command_never_reads(argv, message):
    """A flag no mode of the command reads, or a format it cannot print, is
    refused by argparse before anything is computed."""
    code, out, err = _in_process(argv.split())
    assert code == 2
    assert out == ""
    assert message in err


def _fresh_process(argv, env):
    done = subprocess.run(
        [sys.executable, "-m", "fusion_sos.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def test_repeated_main_calls_match_fresh_processes(monkeypatch):
    """One process calls main several times (mixed subcommands, an argparse
    error, then valid calls); each call's exit code and output equal those
    of the same command in a new process."""
    # Usage messages wrap at the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    calls = [
        ["fuse", "--n", "1", "--m", "1", "--u", "-1/3"],
        ["weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1", "--bprime", "1", "--c", "0",
         "--u", "3", "--w", "1/2", "--format", "csv"],
        ["fuse", "--n", "1", "--u", "1/2"],
        ["verify", "ybe-vertex", "--max-sum", "3", "--samples", "1", "--alpha", "-2/3"],
        ["partition", "--model", "sos", "--N", "2", "--M", "2", "--u", "7/3", "--range", "-2..2"],
        ["weights", "--n", "1", "--m", "1", "--a", "2", "--b", "1", "--bprime", "1", "--c", "0",
         "--u", "3", "--w", "1/2", "--format", "csv"],
    ]
    results = [_in_process(argv) for argv in calls]
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0, 0]
    assert "the following arguments are required: --m" in results[2][2]
    for argv, result in zip(calls, results):
        assert result == _fresh_process(argv, env), argv
