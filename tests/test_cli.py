import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("model", [["vertex"], ["sos", "--range", "-2..2"]], ids=["vertex", "sos"])
@pytest.mark.parametrize("size", [("0", "2"), ("-1", "2"), ("2", "0"), ("2", "-1")])
def test_partition_rejects_empty_lattice(capsys, model, size):
    code = main([
        "partition", "--model", *model, "--N", size[0], "--M", size[1], "--u", "7/3", "--alpha", "1",
    ])
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
    ],
    ids=["fuse-n0", "fuse-m-1", "partition-vertex-n0", "partition-sos-m0"],
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
    "argv, named",
    [
        (["om", "--u", "1/3", "--v", "5"], "--u, --v"),
        (["ybe-vertex", "--n", "2"], "--n"),
        (["weights", "--m", "1"], "--m"),
        (["star-triangle", "--n", "1", "--m", "1"], "--n, --m"),
    ],
    ids=["om-u-v", "ybe-vertex-n", "weights-m", "star-triangle-n-m"],
)
def test_verify_refuses_options_the_suite_ignores(capsys, argv, named):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{named} only apply to the correspondence suite" in captured.err


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
