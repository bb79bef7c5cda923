"""End-to-end command behavior: output shapes, exit codes, and the
format switches."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from tensorcube import Partition, SkewShape, enumerate_lr_tableaux, lr, parse, tableaux
from tensorcube.cli import main
from tensorcube.newell_littlewood import _triangles
from tensorcube.tableaux import ascii_diagram


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- lr ---

def test_lr_plain(capsys):
    code, out = run(capsys, "lr", "3,2,1", "4,3,2,1", "6,4,4,2")
    assert code == 0
    assert out.strip() == "3"


def test_lr_pieri(capsys):
    assert run(capsys, "lr", "1", "1", "2")[1].strip() == "1"
    assert run(capsys, "lr", "1", "1", "1,1")[1].strip() == "1"
    assert run(capsys, "lr", "1", "1", "3")[1].strip() == "0"


def test_lr_json_round_trips(capsys):
    code, out = run(capsys, "lr", "3,2,1", "4,3,2,1", "6,4,4,2", "--format", "json")
    doc = json.loads(out)
    assert doc["coefficient"] == 3
    assert parse(doc["nu"]) == Partition((6, 4, 4, 2))
    assert parse(doc["lambda"]) == Partition((3, 2, 1))


def test_lr_certificates_include_golden_diagram(capsys, datadir):
    code, out = run(
        capsys, "lr", "3,2,1", "4,3,2,1", "6,4,4,2",
        "--certificates", "--format", "ascii-diagram",
    )
    assert code == 0
    golden = (datadir / "first_lrt.txt").read_text()
    assert golden.rstrip("\n") in out
    assert out.count(". . . 1 1 1") == 3  # all three tableaux share row 1


def test_lr_certificates_of_a_zero_coefficient(capsys):
    # nu/lam is no skew shape here: (3) does not fit inside (2,2)
    assert run(capsys, "lr", "3", "1", "2,2", "--certificates") == (0, "0\n")
    code, out = run(capsys, "lr", "3", "1", "2,2", "--certificates", "--format", "json")
    assert code == 0
    assert json.loads(out)["certificates"] == []


def test_lr_certificates_search_once(capsys, monkeypatch):
    """The coefficient printed with --certificates is their count, so the
    command makes one search, not a count and then an enumeration."""
    shape = SkewShape((6, 4, 4, 2), (3, 2, 1))
    expected = "3\n" + "".join(f"\n{ascii_diagram(t)}\n"
                               for t in enumerate_lr_tableaux(shape, (4, 3, 2, 1)))
    searches = []

    def counted(*args):
        searches.append(args)
        return search(*args)

    search = tableaux._walk
    monkeypatch.setattr(tableaux, "_walk", counted)
    assert run(capsys, "lr", "3,2,1", "4,3,2,1", "6,4,4,2", "--certificates") == (0, expected)
    assert len(searches) == 1


def test_lr_parse_error_exits_2(capsys):
    code = main(["lr", "bogus", "1", "1"])
    assert code == 2


# --- nl ---

def test_nl_values(capsys):
    assert run(capsys, "nl", "2", "2", "2")[1].strip() == "1"
    assert run(capsys, "nl", "2,1", "2,1", "2,1")[1].strip() == "0"


def test_nl_support_listing(capsys):
    code, out = run(capsys, "nl", "1,1", "1,1", "1,1", "--support")
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert lines[1] == "alpha=1 beta=1 gamma=1 factors=1*1*1"


def test_nl_support_walks_the_triangles_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _triangles(*args)

    monkeypatch.setattr("tensorcube.cli._triangles", counted)
    monkeypatch.setattr("tensorcube.newell_littlewood._triangles", counted)
    code, out = run(capsys, "nl", "2,2", "2,2", "2,2", "--support")
    assert code == 0
    assert out.splitlines()[0] == "2"
    assert len(calls) == 1


def test_nl_support_beyond_the_range_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(lr, "INT64_MAX", 1)
    assert main(["nl", "2,2", "2,2", "2,2", "--support"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficient arithmetic left 64-bit range: 2\n"


def test_nl_empty_arguments(capsys):
    code, out = run(capsys, "nl", "", "", "")
    assert code == 0
    assert out.strip() == "1"


# --- decompose ---

def test_decompose_plain(capsys):
    code, out = run(capsys, "decompose", "1", "1", "--family", "C", "--rank", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert "nu=2 mult=1" in lines
    assert "nu=1^2 mult=1" in lines
    assert "nu= mult=1" in lines
    assert "stable=true" in lines


def test_decompose_json(capsys):
    code, out = run(
        capsys, "decompose", "1", "1", "--family", "D", "--rank", "2",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["group"] == {"family": "D", "rank": 2}
    assert {t["nu"] for t in doc["terms"]} == {"2", ""}
    assert doc["inadmissible"] == [{"nu": "1^2", "mult": 1}]
    for term in doc["terms"]:
        parse(term["nu"])


def test_decompose_unit(capsys):
    code, out = run(capsys, "decompose", "2", "", "--family", "B", "--rank", "3")
    assert code == 0
    assert "nu=2 mult=1" in out


def test_decompose_odd_rank_d_exits_2(capsys):
    code = main(["decompose", "1", "1", "--family", "D", "--rank", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "even" in err


# --- detect ---

def test_detect_exit_codes(capsys):
    assert main(["detect", "7,5,3,1"]) == 0
    assert main(["detect", "3"]) == 1
    assert main(["detect", "4,3,2,1"]) == 0


def test_detect_too_many_parts_exits_2(capsys):
    assert main(["detect", "1^1000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, boxes", [
    (["lr", "997", "997", "1994"], 997),
    (["lr", "125^8", "125^8", "250^8"], 1000),
    (["detect", "1998"], 999),
    (["decompose", "1000", "1", "--family", "C", "--rank", "2"], 1001),
], ids=["lr", "lr-eight-rows", "detect", "decompose"])
def test_search_past_its_depth_budget_exits_2(capsys, argv, boxes):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the tableau search would fill {boxes} boxes, ")


def run_capped(argv):
    """Run the command line in a subprocess under a 2 GB address-space cap,
    killed after 60 s."""
    script = (
        "import resource, sys\n"
        "cap = 2 << 30\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    cap = min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from tensorcube.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.mark.parametrize("argv, out", [
    (["lr", "10000000000", "1", "10000000001"], "1\n"),
    (["nl", "10000000000", "10000000000", "2"], "1\n"),
    (["nl", "10000000000,1", "10000000000,1", "2"], "2\n"),
    (["lr", "10000000000", "1^8", "10000000001,1^7"], "1\n"),
], ids=["lr", "nl", "nl-two-rows", "lr-eight-rows"])
def test_wide_one_box_search_answers_under_a_memory_cap(argv, out):
    """A search lays out only its skew boxes, so a one-box search on a
    shape ten billion columns wide answers within a 2 GB address space;
    with two rows the two alphas are listed without trying the parts
    between, and a count of eight one-box rows walks by rows."""
    proc = run_capped(argv)
    assert (proc.returncode, proc.stdout) == (0, out), proc.stderr


def test_wide_self_pairing_is_refused_before_listing_its_alphas():
    """(10^10, 10^10) has 5 * 10^9 + 1 alphas, each with ten billion boxes
    to fill: the depth budget refuses the first before any is listed."""
    proc = run_capped(["detect", "10000000000,10000000000"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the tableau search would fill 10000000000 boxes, ")


def test_depth_budget_counts_the_smaller_side(capsys):
    """A count fills the smaller lower shape's boxes in either order; the
    certificates are the fillings of nu/lam, so they still pass the budget."""
    assert run(capsys, "lr", "1", "997", "998") == (0, "1\n")
    assert run(capsys, "lr", "997", "1", "998") == (0, "1\n")
    assert main(["lr", "997", "997", "1994"]) == 2
    assert "would fill 997 boxes" in capsys.readouterr().err
    assert main(["lr", "1", "997", "998", "--certificates"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the tableau search would fill 997 boxes, ")


def test_depth_budget_leaves_room_for_the_callers(capsys):
    """A one-row shape of exactly the budget answers under the test runner's
    own frames, through the command's whole call chain; one box more is
    refused."""
    budget = sys.getrecursionlimit() - 100
    assert run(capsys, "lr", str(budget), str(budget), str(2 * budget)) == (0, "1\n")
    code, out = run(capsys, "detect", str(2 * budget))
    assert code == 0 and f"size={2 * budget}" in out
    assert main(["lr", str(budget + 1), str(budget + 1), str(2 * budget + 2)]) == 2
    assert f"{budget + 1} boxes" in capsys.readouterr().err


def test_detect_plain_fields(capsys):
    code, out = run(capsys, "detect", "7,5,3,1")
    assert "N=8029" in out
    assert "witness.alpha=4,3,1" in out
    assert "witness.beta=3,2^2,1" in out
    assert "detected=true" in out


def test_detect_json(capsys):
    code, out = run(capsys, "detect", "4,4", "--format", "json")
    doc = json.loads(out)
    assert doc["detected"] is True
    assert doc["N"] == 3
    assert parse(doc["witness"]["alpha"]) == Partition((2, 2))
    assert doc["witness"]["certificates"][0]["outer"] == "4^2"


def test_detect_color_opt_in(capsys, monkeypatch):
    monkeypatch.setenv("TENSORCUBE_COLOR", "1")
    _, out = run(capsys, "detect", "4,4")
    assert "\x1b[" in out
    monkeypatch.setenv("TENSORCUBE_COLOR", "0")
    _, out = run(capsys, "detect", "4,4")
    assert "\x1b[" not in out


# --- verify ---

def test_verify_odd_plain(capsys):
    code, out = run(capsys, "verify", "odd", "--max-size", "5")
    assert code == 0
    assert "checked=11 failures=0" in out


def test_verify_even_jsonlines(capsys):
    code, out = run(capsys, "verify", "even", "--max-size", "4", "--format", "json")
    lines = out.strip().splitlines()
    docs = [json.loads(line) for line in lines]
    summary = docs[-1]["summary"]
    assert summary["checked"] == 8
    assert summary["failures"] == 0
    assert all("lambda" in d for d in docs[:-1])


def test_verify_even_failure_exits_4(capsys, broken_witness):
    code, out = run(capsys, "verify", "even", "--max-size", "4")
    assert code == 4
    assert "FAIL lambda=2^2 size=4 N=2 families=all-even,rectangle(2x2)" in out.splitlines()
    assert "checked=8 failures=1" in out


def test_verify_bound_exits_2(capsys):
    assert main(["verify", "odd", "--max-size", "99"]) == 2


def test_verify_jobs_deterministic(capsys):
    _, one = run(capsys, "verify", "even", "--max-size", "4")
    _, two = run(capsys, "verify", "even", "--max-size", "4", "--jobs", "2")
    assert one == two


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_must_be_positive(capsys, jobs):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "even", "--max-size", "4", "--jobs", jobs])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1_0", "+3", "0x3", "3.0", "", "0", "\uff13"])
@pytest.mark.parametrize("argv, option", [
    (["decompose", "1", "1", "--family", "C"], "--rank"),
    (["verify", "odd"], "--max-size"),
    (["verify", "even", "--max-size", "4"], "--jobs"),
])
def test_count_options_take_plain_decimals(capsys, argv, option, text):
    """Counts are plain ASCII decimals: int() would read 1_0 as 10, +3 as 3
    and the fullwidth digit \uff13 as 3. Only --max-size may be 0."""
    if option == "--max-size" and text == "0":
        assert main(argv + [option, text]) == 0
        return
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [option, text])
    assert excinfo.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["lr", "1", "1", "2"], ["detect", "2"],
                                  ["nl", "1", "1", "2", "--support"]])
def test_jobs_only_on_verify(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--jobs", "2"])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_takes_jobs(capsys):
    code, out = run(capsys, "verify", "even", "--max-size", "4", "--jobs", "2")
    assert code == 0
    assert out


def _loaded_after(argv, watched):
    """Run the CLI on ``argv`` in a fresh interpreter, which must exit 0; the
    ``watched`` modules it loaded."""
    script = (
        "import contextlib, io, json, sys\n"
        "from tensorcube.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[2:])\n"
        "print(json.dumps([code, sorted(set(sys.argv[1].split()) & set(sys.modules))]))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, " ".join(watched), *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return loaded


def test_serial_sweep_never_loads_the_process_pool():
    """Both sweeps run in-process at any ``--jobs``, so none loads the
    pool's modules."""
    for argv in (["verify", "even", "--max-size", "4"],
                 ["verify", "even", "--max-size", "4", "--jobs", "2"],
                 ["verify", "odd", "--max-size", "9", "--jobs", "2"]):
        loaded = _loaded_after(argv, ["concurrent.futures", "multiprocessing",
                                      "tensorcube.oracle"])
        assert loaded == [], argv


@pytest.mark.parametrize("argv, absent", [
    (["decompose", "2,1", "1", "--family", "C", "--rank", "3"],
     ["dataclasses", "tensorcube.detection", "tensorcube.oracle"]),
    (["nl", "2,1", "2,1", "2", "--support"],
     ["dataclasses", "tensorcube.detection", "tensorcube.oracle"]),
    (["lr", "2,1", "2,1", "3,2,1", "--certificates"],
     ["dataclasses", "tensorcube.detection", "tensorcube.oracle"]),
    (["render", "3,2", "--inner", "1"],
     ["dataclasses", "tensorcube.detection", "tensorcube.oracle"]),
    (["detect", "4,4"], ["tensorcube.oracle"]),
], ids=["decompose", "nl-support", "lr-certificates", "render", "detect"])
def test_commands_load_only_what_they_run(argv, absent):
    assert _loaded_after(argv, absent) == []


def test_detect_loads_detection():
    """The start-up probe sees a module the command does load."""
    assert _loaded_after(["detect", "2"],
                         ["tensorcube.detection"]) == ["tensorcube.detection"]


# --- render ---

def test_render_shape(capsys):
    code, out = run(capsys, "render", "6,4,4,2", "--inner", "3,2,1")
    assert code == 0
    assert out == ". . . # # #\n. . # #\n. # # #\n# #\n"


def test_render_json(capsys):
    code, out = run(capsys, "render", "2,1", "--format", "json")
    doc = json.loads(out)
    assert doc["outer"] == "2,1"
    assert doc["inner"] == ""


@pytest.mark.parametrize("argv, cells", [
    (["render", "10000000000"], 10**10),
    (["render", "10000000000", "--format", "ascii-diagram"], 10**10),
    (["lr", "10000000000", "1", "10000000001", "--certificates", "--format", "json"],
     10**10 + 1),
    (["lr", "10000000000", "1", "10000000001", "--certificates"], 10**10 + 1),
], ids=["render", "render-ascii", "lr-certificates-json", "lr-certificates"])
def test_diagram_past_its_bound_exits_2(capsys, argv, cells):
    """Refused before anything of the diagram, or of the search for the
    certificates drawn on it, is built."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: a diagram of {cells} cells is past the drawing "
                            f"bound of {tableaux._MAX_DIAGRAM_CELLS} cells\n")


def test_render_json_has_no_diagram_bound(capsys):
    code, out = run(capsys, "render", "10000000000", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"outer": "10000000000", "inner": "", "boxes": 10**10}


# --- error class mapping ---

def test_overflow_maps_to_exit_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise OverflowError("too big")

    monkeypatch.setattr("tensorcube.cli.lr_coefficient", boom)
    assert main(["lr", "1", "1", "2"]) == 3


def test_nl_beyond_the_range_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(lr, "INT64_MAX", 1)
    assert main(["nl", "2,2", "2,2", "2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficient arithmetic left 64-bit range: 2\n"


def test_internal_failure_maps_to_exit_4(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr("tensorcube.detection.detects", boom)
    assert main(["detect", "4,4"]) == 4


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tensorcube.cli", "lr", "1", "1", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("argv", [
    ["detect", "7,5,3,1"],
    ["lr", "1", "1", "2"],
    ["verify", "even", "--max-size", "6", "--format", "json"],
], ids=["detect", "lr", "verify-json"])
def test_closed_output_exits_141_quietly(argv):
    """A reader that closes the pipe ends the command with 128 + SIGPIPE, as
    a shell reports for a process SIGPIPE killed, and no traceback; for
    detect, exit 1 would read as "not detected"."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tensorcube.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")
