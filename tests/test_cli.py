"""CLI surface: commands, reports, exit codes, determinism."""

import io
import json
import os
import resource
import subprocess
import sys

import pytest

import recountgame
import recountgame.cli
import recountgame.defender
from conftest import fixture_path, run_cli
from recountgame import (
    RecountSet,
    SolveReport,
    gen_is_pd_rec,
    gen_partition_pv_recreg,
    gen_random,
    gen_sss_pd_man,
    gen_subsetsum_pv_man,
    gen_subsetsum_pv_rec,
    gen_x3c_pv_rec,
    serialize_instance,
)


def test_eval_reports_welfare_and_both_tallies():
    code, payload = run_cli("eval", fixture_path("example21_pd_attacked.json"))
    assert code == 0
    assert payload["true"]["winner"] == "a"
    assert payload["distorted"]["winner"] == "p"
    assert payload["social_welfare"] == {"a": 98, "b": 27, "p": 0}


def test_solve_man_example21_both_rules():
    code, payload = run_cli("solve", "man", fixture_path("example21_pv.json"))
    assert code == 0 and payload["attacker_wins"] is False
    code, payload = run_cli("solve", "man", fixture_path("example21_pd.json"))
    assert code == 0 and payload["attacker_wins"] is True
    attacked = sorted(entry["index"] for entry in payload["witness"]["manipulation"])
    assert attacked == [0, 1]


def test_solve_rec_algo_agreement():
    for algo in ("brute", "dp"):
        code, payload = run_cli(
            "solve", "rec", fixture_path("example21_pv_attacked.json"), "--target", "a", "--algo", algo
        )
        assert code == 0 and payload["decision"] is False
    code, payload = run_cli("solve", "rec", fixture_path("example21_pv_attacked.json"))
    assert code == 0 and payload["winner"] == "b"
    code, payload = run_cli(
        "solve", "rec", fixture_path("example21_pv_attacked.json"), "--algo", "greedy"
    )
    assert code == 0 and payload["winner"] == "b"


def test_solve_man_regular_flag_and_pd_reg():
    code, payload = run_cli("solve", "man", fixture_path("example51.json"), "--regular")
    assert code == 0 and payload["attacker_wins"] is False
    code, payload = run_cli("solve", "man", fixture_path("example51.json"))
    assert code == 0 and payload["attacker_wins"] is True
    code, payload = run_cli(
        "solve", "man", fixture_path("example21_pd.json"), "--regular", "--algo", "auto"
    )
    assert code == 0 and payload["algorithm"] == "man-pd-regular"


def test_gen_is_deterministic(tmp_path):
    args = (
        "gen", "random", "--rule", "pd", "--districts", "5", "--candidates", "3",
        "--n-max", "4", "--w-max", "5", "--attacker-budget", "2",
        "--defender-budget", "1", "--seed", "7",
    )
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second
    out = tmp_path / "inst.json"
    code, _ = run_cli(*args, "--out", str(out))
    assert code == 0 and json.loads(out.read_text()) == first


def test_gen_reduction_solves_end_to_end(tmp_path):
    out = tmp_path / "ss.json"
    # negative numbers need the --opt=value spelling so argparse keeps them
    code, _ = run_cli("gen", "subsetsum-pv-rec", "--values=-1,-2,3,1", "--out", str(out))
    assert code == 0
    code, payload = run_cli("solve", "rec", str(out), "--target", "a", "--algo", "dp")
    assert code == 0 and payload["decision"] is True


# each gen subcommand with the library call it must print
GEN_CASES = [
    (
        ["subsetsum-pv-rec", "--values=3,-1,-2,5", "--weighted"],
        lambda: gen_subsetsum_pv_rec([3, -1, -2, 5], True),
    ),
    (
        ["x3c-pv-rec", "--elements", "1,2,3,4,5,6", "--sets", "1,2,3;4,5,6;2,3,4"],
        lambda: gen_x3c_pv_rec([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [2, 3, 4]]),
    ),
    (["subsetsum-pv-man", "--values", "1,2,3"], lambda: (gen_subsetsum_pv_man([1, 2, 3]), None)),
    (
        ["is-pd-rec", "--nodes", "3", "--edges", "0-1;1-2", "--size", "2"],
        lambda: gen_is_pd_rec(3, [(0, 1), (1, 2)], 2),
    ),
    (
        ["sss-pd-man", "--values", "1,2,3", "--size", "2"],
        lambda: (gen_sss_pd_man([1, 2, 3], 2), None),
    ),
    (
        ["partition-pv-recreg", "--values", "4,12,16", "--epsilon", "2"],
        lambda: gen_partition_pv_recreg([4, 12, 16], 2.0),
    ),
    (
        ["random", "--rule", "pd", "--w-max", "3", "--seed", "5"],
        lambda: (gen_random("pd", 4, 3, 5, 3, "full", 2, 1, seed=5), None),
    ),
]


@pytest.mark.parametrize("argv, build", GEN_CASES, ids=[argv[0] for argv, _ in GEN_CASES])
def test_gen_prints_the_library_instance(capsys, argv, build):
    assert recountgame.cli.main(["gen", *argv]) == 0
    assert capsys.readouterr().out == serialize_instance(*build())


# each list flag skips empty parts, as a trailing separator leaves
LIST_FLAG_CASES = [
    (["subsetsum-pv-rec", "--values=3,-1,"], ["subsetsum-pv-rec", "--values=3,-1"]),
    (
        ["is-pd-rec", "--nodes", "3", "--edges", "0-1;;1-2;", "--size", "2"],
        ["is-pd-rec", "--nodes", "3", "--edges", "0-1;1-2", "--size", "2"],
    ),
    (
        ["x3c-pv-rec", "--elements", "1,2,3,", "--sets", "1,2,3;"],
        ["x3c-pv-rec", "--elements", "1,2,3", "--sets", "1,2,3"],
    ),
]


@pytest.mark.parametrize("argv, plain", LIST_FLAG_CASES, ids=[argv[0] for argv, _ in LIST_FLAG_CASES])
def test_list_flags_skip_empty_parts(capsys, argv, plain):
    assert recountgame.cli.main(["gen", *argv]) == 0
    out = capsys.readouterr().out
    assert recountgame.cli.main(["gen", *plain]) == 0
    assert out == capsys.readouterr().out


def test_gen_out_that_cannot_be_written_is_invalid_input(tmp_path, capsys):
    code = recountgame.cli.main(["gen", "random", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-input"


def test_bench_csv_shape_and_determinism():
    args = (
        "bench", "--seed", "3", "--trials", "3", "--rule", "pd", "--districts", "4",
        "--candidates", "3", "--n-max", "4", "--w-max", "5",
        "--attacker-budget", "2", "--defender-budget", "1", "--regular",
    )
    code, first = run_cli(*args)
    assert code == 0
    lines = first.strip().splitlines()
    assert lines[0] == "seed,trial,rule,k,m,B_A,B_D,regular,attacker_wins,greedy_sw,opt_sw,ratio,runtime_ms"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "PD" and fields[7] == "1"
        assert float(fields[11]) >= 0.5  # regular attacks: half-welfare guarantee
    _, second = run_cli(*args)
    # runtimes differ between runs; every other column must not
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]
    assert strip(first) == strip(second)


def test_exit_codes():
    code, _ = run_cli("eval", fixture_path("does-not-exist.json"))
    assert code == 2
    code, _ = run_cli("solve", "rec", fixture_path("example21_pv.json"))
    assert code == 2  # no manipulation block
    code, _ = run_cli(
        "solve", "rec", fixture_path("example21_pd_attacked.json"), "--algo", "unweighted-pd"
    )
    assert code == 4  # weighted instance
    code, _ = run_cli(
        "solve", "rec", fixture_path("example21_pv_attacked.json"), "--algo", "greedy", "--target", "a"
    )
    assert code == 4  # unsupported combination
    code, _ = run_cli("solve", "rec", fixture_path("example21_pv_attacked.json"), "--target", "")
    assert code == 2  # empty candidate name
    code, _ = run_cli(
        "solve", "rec", fixture_path("example21_pv_attacked.json"), "--algo", "greedy", "--target", ""
    )
    assert code == 2  # empty candidate name, before the per-target check
    code, _ = run_cli("solve", "man", fixture_path("example21_pv.json"), "--algo", "pd-reg")
    assert code == 4  # pd-reg on a PV instance
    code, out = run_cli("bench", "--seed", "1", "--trials", "-2")
    assert code == 2 and out == ""  # negative trial count
    code, _ = run_cli("gen", "subsetsum-pv-rec", "--values", "1,x")
    assert code == 2  # malformed integer list
    code, _ = run_cli("gen", "is-pd-rec", "--nodes", "3", "--edges", "0-1;2", "--size", "2")
    assert code == 2  # malformed edge list
    code, _ = run_cli("gen", "x3c-pv-rec", "--elements", "1,2,3", "--sets", "1,2,y")
    assert code == 2  # malformed set
    code, _ = run_cli("gen", "x3c-pv-rec", "--elements", "1,z,3", "--sets", "1,2,3")
    assert code == 2  # malformed element list


@pytest.mark.parametrize(
    "content, detail, source",
    [
        (b"\xff\xfe{}", "not UTF-8 text", "file"),
        (b'{"rule": ' + b"9" * 5000 + b"}", "unreadable JSON: Exceeds the limit", "file"),
        (b"[" * 100_000 + b"]" * 100_000, "unreadable JSON: maximum recursion depth", "file"),
        (b"\xff\xfe{}", "stdin: not UTF-8 text", "stdin"),
    ],
    ids=["not-utf8", "5000-digit-integer", "nested-100000-deep", "not-utf8-stdin"],
)
def test_unreadable_instance_file_is_invalid_input(
    tmp_path, capsys, monkeypatch, content, detail, source
):
    if source == "stdin":
        # a strict text decoder, the default outside the C locale: only the raw bytes are safe
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"))
        path = "-"
    else:
        path = tmp_path / "instance.json"
        path.write_bytes(content)
    code, out = run_cli("eval", str(path))
    assert code == 2 and out == ""
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "invalid-input" and detail in error["detail"]


def test_eval_rejects_float_weight(tmp_path, capsys):
    with open(fixture_path("example21_pv.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["districts"][2]["weight"] = 1.5
    path = tmp_path / "float-weight.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _ = run_cli("eval", str(path))
    assert code == 2
    assert "district 2: weight must be an integer >= 1, got 1.5" in capsys.readouterr().err


def _run_child(*argv, **kwargs):
    """``python -m recountgame *argv`` in a child that imports the same package
    as this process, installed or not."""
    package_root = os.path.dirname(os.path.dirname(recountgame.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "recountgame", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def test_console_entrypoint_subprocess():
    result = _run_child("solve", "man", fixture_path("example21_pv.json"))
    assert result.returncode == 0
    assert json.loads(result.stdout)["attacker_wins"] is False


def test_witnesses_are_replay_verified():
    code, payload = run_cli("solve", "man", fixture_path("example21_pd.json"))
    assert code == 0
    assert payload["scores"]["p"] == 98  # scores of the replayed witness state


def test_exit_3_on_resource_limit(tmp_path, capsys):
    # 60 attacked unit districts and 5 recounts: more recount sets than the brute cap
    payload = {
        "rule": "PV",
        "candidates": ["a", "b"],
        "tiebreak": ["a", "b"],
        "budget_attacker": 60,
        "budget_defender": 5,
        "districts": [{"gamma": 1, "votes": {"a": 1}}] * 60,
        "manipulation": [{"index": i, "votes": {"b": 1}} for i in range(60)],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out = run_cli("solve", "rec", str(path))
    assert code == 3 and out == ""
    assert json.loads(capsys.readouterr().err)["error"] == "resource-limit"


def test_exit_3_when_memory_runs_out():
    # 8e9 padding rows, a 64 GB list, in a child whose address space is capped
    # at 1 GiB: the list cannot be allocated
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    result = _run_child(
        "gen", "partition-pv-recreg", "--values", "4", "--epsilon", "1e-9", preexec_fn=cap_memory
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert json.loads(result.stderr) == {"error": "resource-limit", "detail": "out of memory"}


def test_exit_5_when_the_witness_does_not_replay(monkeypatch, capsys):
    # a report whose empty recount claims "a", while the distorted tally elects "p"
    def lying_solver(election, manipulation, target):
        return SolveReport(True, target, "brute", manipulation, RecountSet(()))

    # the name solve_rec looks up, so the CLI must go through the router to reach it
    monkeypatch.setattr(recountgame.defender, "rec_decide_brute", lying_solver)
    code, out = run_cli("solve", "rec", fixture_path("example21_pv_attacked.json"), "--target", "a")
    assert code == 5 and out == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal" and "witness replay elected p" in err["detail"]
