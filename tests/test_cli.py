import argparse
import io
import json
import sys
from fractions import Fraction

import pytest

from randsteward import cli, fourier, prg, sampler, steward
from randsteward.cli import main

from harness import KeepAllSession, dump_truth_table

MASTER = "00112233445566778899aabbccddeeff"


def run_cli(argv, capsys, stdin=None):
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        rc = main(argv)
    finally:
        if stdin is not None:
            sys.stdin = sys.__stdin__
    out, err = capsys.readouterr()
    return rc, out, err


def test_prg_expand_golden(capsys):
    argv = [
        "prg", "expand", "--n", "2", "--k", "2", "--sigma", "4",
        "--gamma", "1/2", "--seed-hex", "deadbeefcafebabe0123456789abcd",
    ]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0
    doc = json.loads(out)
    # 2 fresh bits beat a 4-bit extractor seed, so the output is the seed drawn
    assert doc["schedule"]["seed_len"] == 4
    assert doc["schedule"]["schedule"][0]["extractor"] == "fresh"
    assert doc["seed_bits"] == doc["output_bits"] == "0111"  # 0xde, low bit first
    assert doc["blocks"] == ["01", "11"]
    assert "seed 4 bits -> output 4 bits" in err
    # bit-for-bit reproducible
    rc2, out2, _ = run_cli(argv, capsys)
    assert json.loads(out2) == doc


def test_prg_expand_writes_output_file(capsys, tmp_path):
    target = tmp_path / "expand.json"
    rc, out, _ = run_cli(
        ["prg", "expand", "--n", "2", "--k", "2", "--sigma", "4",
         "--gamma", "1/2", "--seed-hex", "deadbeefcafebabe0123456789abcd",
         "--output", str(target)],
        capsys,
    )
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["output_bits"] == "0111"


def test_accept_streams_estimates(capsys, tmp_path):
    target = tmp_path / "accept.json"
    rc, out, err = run_cli(
        ["accept", "--n", "4", "--k", "2", "--epsilon", "1/2",
         "--delta", "1/2", "--seed-hex", ("fedcba9876543210" * 5)[:72],
         "--output", str(target)],
        capsys,
        stdin="1\nx0 & ~x0\nx1\n",  # third line ignored: k=2
    )
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [
        {"round": 0, "circuit": "1", "estimate": "1", "estimate_float": 1.0},
        {"round": 1, "circuit": "x0 & ~x0", "estimate": "1/8",
         "estimate_float": 0.125},
    ]
    doc = json.loads(target.read_text())
    assert doc["bits_used"] == 113
    assert doc["sampler"]["queries"] == 61440
    assert doc["sampler"]["cube_points"] == 16  # 61440 queries fold into whole cubes
    assert doc["rounds"] == lines
    assert "2 rounds, 113 bits" in err


def test_run_trials_clamps_jobs_to_cpu_count(monkeypatch):
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._run_trials(abs, [-1, 2, -3], 10**6) == [1, 2, 3]
    assert requested == [2]
    # an unknown CPU count runs the trials in-process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._run_trials(abs, [-4], 8) == [4]
    assert requested == [2]


def test_accept_bad_circuit_is_a_runtime_error(capsys):
    rc, _, err = run_cli(
        ["accept", "--n", "4", "--k", "1", "--epsilon", "1/2",
         "--delta", "1/2", "--seed-hex", ("fedcba9876543210" * 5)[:72]],
        capsys,
        stdin="x0 $ x1\n",
    )
    assert rc == 1
    assert "error:" in err


def test_gl_cli_recovers_a_parity(capsys, tmp_path):
    table = tmp_path / "chi1.tt"
    table.write_text("n=2\n0a\n")
    rc, out, err = run_cli(
        ["gl", "--truth-table", str(table), "--theta", "9/10",
         "--delta", "1/2", "--seed-hex", ("0123456789abcdef" * 6)[:88]],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["masks"] == [1]
    assert doc["strings"] == ["10"]
    assert doc["bits_used"] == 211
    assert not doc["aborted"]
    assert doc["audit"]["fresh_bits"] == 374
    assert "1 heavy prefixes, 211 bits" in err


def test_gl_cli_reports_an_abort(capsys, tmp_path, monkeypatch):
    # a session that keeps every candidate overflows the survivor cap at theta = 1/2
    monkeypatch.setattr(fourier, "Session", KeepAllSession)
    table = tmp_path / "one.tt"
    table.write_text(dump_truth_table([1] * 64))
    rc, out, err = run_cli(
        ["gl", "--truth-table", str(table), "--theta", "1/2", "--delta", "1/10",
         "--seed-hex", "00"],
        capsys,
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["aborted"] is True
    assert doc["strings"] == [] and doc["bits_used"] == 0
    assert "gl: aborted (survivor list overflow)" in err


def test_gl_rejects_a_malformed_truth_table(capsys, tmp_path):
    table = tmp_path / "long.tt"
    table.write_text("n=1\nffff\n")  # n=1 packs into one byte, not two
    rc, out, err = run_cli(
        ["gl", "--truth-table", str(table), "--theta", "1", "--delta", "1/2"], capsys
    )
    assert rc == 1 and out == ""
    assert "error: n=1 needs 1 table bytes, got 2" in err


def test_gl_rejects_a_truth_table_header_in_other_digits(capsys, tmp_path):
    table = tmp_path / "maj3.tt"
    table.write_text("n=0_3\ne8\n")  # int() reads 0_3 as 3
    rc, out, err = run_cli(
        ["gl", "--truth-table", str(table), "--theta", "1", "--delta", "1/2"], capsys
    )
    assert rc == 1 and out == ""
    assert "error: first line must be n=<digits>" in err


def test_gl_plans_the_steward_schedule_once(capsys, tmp_path, monkeypatch):
    # the search and the audit each build a config for the same plan;
    # planning it once serves both
    calls = []
    real = steward.build_schedule

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    steward._planned_schedule.cache_clear()
    monkeypatch.setattr(steward, "build_schedule", counting)
    table = tmp_path / "chi1.tt"
    table.write_text("n=2\n0a\n")
    rc, out, _ = run_cli(
        ["gl", "--truth-table", str(table), "--theta", "9/10",
         "--delta", "1/2", "--seed-hex", ("0123456789abcdef" * 6)[:88]],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["bits_used"] == 211
    assert len(calls) == 1


def test_audit_reports_budget(capsys):
    rc, out, err = run_cli(
        ["audit", "--n", "2", "--theta", "9/10", "--delta", "1/2"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["steward_bits"] == 211
    assert doc["fresh_bits"] == 374
    assert doc["per_phase"] == {"tape": 187, "ladder": 24}
    assert doc["levels"] == 2 and doc["d"] == 9
    assert "211 bits vs fresh 374" in err


def test_sampler_bench_golden(capsys):
    rc, out, err = run_cli(
        ["sampler", "bench", "--n", "3", "--epsilon", "1/4", "--delta", "1/2",
         "--mean", "1/2", "--trials", "5",
         "--seed-hex", MASTER],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["plan"] == {
        "n": 3, "epsilon": "1/4", "delta": "1/2", "mode": "walk",
        "t0": 160, "r": 8, "field_bits": 8, "seed_bits": 37, "queries": 1280,
        "cube_points": 8,
    }
    assert doc["master_hex"] == MASTER
    assert doc["failures_beyond_epsilon"] == 0
    assert doc["max_abs_error"] == "0"
    assert "5 trials, 0 failures, 37 bits/run" in err


def test_demo_adversary_reuse_always_fails(capsys):
    rc, out, _ = run_cli(
        ["demo", "adversary", "--owner", "extracting",
         "--steward", "naive-reuse", "--trials", "10", "--seed-hex", MASTER],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["failures"] == 10 and doc["failure_rate"] == 1.0
    assert doc["bits_per_session"] == 8  # one fresh sample, reused
    assert doc["error_bound"] == "1/16"
    assert doc["worst_error"] == "1/8"


def test_demo_adversary_main_survives(capsys):
    rc, out, _ = run_cli(
        ["demo", "adversary", "--owner", "extracting",
         "--steward", "main", "--trials", "5", "--seed-hex", MASTER],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["bits_per_session"] == 16


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["prg", "expand", "--n", "2", "--k", "2", "--sigma", "4",
              "--gamma", "zero"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["demo", "adversary", "--trials", "-2"])
    assert exc.value.code == 2
    # audit only plans, so it takes no seed; a job count below one is refused,
    # and so is a seed that bytes.fromhex rejects
    for argv in (["audit", "--n", "2", "--theta", "9/10", "--delta", "1/2", "--seed-hex", "zz"],
                 ["demo", "adversary", "--jobs", "-4"],
                 ["sampler", "bench", "--n", "3", "--epsilon", "1/4", "--delta", "1/2",
                  "--jobs", "0"],
                 ["prg", "expand", "--n", "2", "--k", "2", "--sigma", "4",
                  "--gamma", "1/2", "--seed-hex", "zz"],
                 ["demo", "adversary", "--seed-hex", "abc"],
                 # an empty seed is neither a tape nor a master key
                 ["prg", "expand", "--n", "2", "--k", "2", "--sigma", "4",
                  "--gamma", "1/2", "--seed-hex", ""],
                 ["demo", "adversary", "--seed-hex", ""]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed-hex: not a hex string: 'abc'" in err
    assert "--seed-hex: empty seed: ''" in err


def test_seed_hex_with_spaces_supplies_every_byte(capsys):
    # "0e ff" is two bytes, 16 bits, although the text is five characters long
    rc, out, _ = run_cli(
        ["prg", "expand", "--n", "2", "--k", "2", "--sigma", "4", "--gamma", "1/2",
         "--backend", "fresh", "--seed-hex", "0e ff"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["seed_bits"] == "0111"
    assert doc["output_bits"] == "0111"


def _json_out(argv, capsys, stdin=None):
    rc, out, _ = run_cli(argv, capsys, stdin)
    assert rc == 0
    return json.loads(out)


def test_each_plan_block_is_the_library_dict(capsys, tmp_path):
    # every command prints a plan as the library's to_dict() of the same plan
    q = Fraction
    doc = _json_out(["sampler", "bench", "--n", "3", "--epsilon", "1/4", "--delta", "1/2",
                     "--trials", "1", "--seed-hex", MASTER], capsys)
    assert doc["plan"] == sampler.plan_sampler(3, q(1, 4), q(1, 2)).to_dict()
    for backend in prg.BACKENDS:
        doc = _json_out(["prg", "expand", "--n", "2", "--k", "2", "--sigma", "4",
                         "--gamma", "1/2", "--backend", backend, "--seed-hex", "ff" * 15],
                        capsys)
        assert doc["schedule"] == prg.build_schedule(2, 2, 4, q(1, 2), backend).to_dict()
    doc = _json_out(["audit", "--n", "2", "--theta", "9/10", "--delta", "1/2"], capsys)
    assert doc == fourier.gl_audit_dict(fourier.gl_params(2, q(9, 10), q(1, 2)))
    target = tmp_path / "accept.json"
    rc, _, _ = run_cli(["accept", "--n", "4", "--k", "2", "--epsilon", "1/2", "--delta", "1/2",
                        "--output", str(target)], capsys, stdin="")
    assert rc == 0
    plan = sampler.plan_sampler(4, q(1, 16), q(1, 8))
    assert json.loads(target.read_text())["sampler"] == plan.to_dict()
    doc = _json_out(["demo", "adversary", "--steward", "main", "--d", "2", "--trials", "0"],
                    capsys)
    config = steward.StewardConfig(n=8, k=2, d=2, epsilon=q(1, 128), delta=q(1, 128),
                                   gamma=q(1, 16), kind="main")
    assert doc["config"] == config.to_dict()
    assert doc["config"]["d0"] == 2 and doc["config"]["kind"] == "main"


def _json_leaves(value):
    if isinstance(value, dict):
        assert all(isinstance(key, str) for key in value)
        for item in value.values():
            yield from _json_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _json_leaves(item)
    else:
        yield value


@pytest.mark.parametrize("backend", prg.BACKENDS)
def test_plan_dicts_hold_no_float(backend):
    # exact values only on a path that carries a guarantee: rationals are "p/q"
    q = Fraction
    config = steward.StewardConfig(n=8, k=8, d=2, epsilon=q(1, 8), delta=q(1, 64),
                                   gamma=q(1, 16), d0=1, kind="main")
    dicts = [
        prg.build_schedule(8, 8, 4, q(1, 16), backend).to_dict(),
        sampler.plan_sampler(5, q(1, 4), q(1, 8)).to_dict(),
        sampler.plan_sampler(5, q(1, 4), q(1, 8), mode="independent").to_dict(),
        config.to_dict(),
        fourier.gl_audit_dict(fourier.gl_params(2, q(9, 10), q(1, 2))),
    ]
    for doc in dicts:
        for leaf in _json_leaves(doc):
            assert type(leaf) in (int, str, bool, type(None)), (doc, leaf)
        assert json.loads(json.dumps(doc)) == doc


def test_sampler_bench_rejects_impossible_inputs(capsys):
    # an oracle mean outside [0, 1] or a negative trial count is a usage error
    base = ["sampler", "bench", "--n", "3", "--epsilon", "1/4", "--delta", "1/2"]
    for extra in (["--mean", "3/2"], ["--mean", "-1/8"], ["--trials", "-2"],
                  ["--mode", "independent"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
    capsys.readouterr()
    rc, out, _ = run_cli(base + ["--mean", "1", "--trials", "0"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["oracle_mean"] == "1" and doc["failure_rate"] == 0.0


def test_accept_k_zero_is_a_runtime_error(capsys):
    rc, out, err = run_cli(
        ["accept", "--n", "4", "--k", "0", "--epsilon", "1/2", "--delta", "1/2"],
        capsys, stdin="x0\n",
    )
    assert rc == 1
    assert "error: need k >= 1" in err and "Traceback" not in err


def test_accept_wider_than_64_bits_is_a_runtime_error(capsys):
    # sampler points are uint64, so n = 65 fails with error: rather than a traceback
    rc, _, err = run_cli(
        ["accept", "--n", "65", "--k", "1", "--epsilon", "1/2", "--delta", "1/2",
         "--seed-hex", "f" * 800],
        capsys, stdin="x64\n",
    )
    assert rc == 1
    assert "error:" in err and "64" in err and "Traceback" not in err


def test_short_seed_is_a_runtime_error(capsys, tmp_path):
    # a tape is every bit of --seed-hex; a short one fails at the draw that
    # runs past its end, which the error names
    rc, _, err = run_cli(
        ["prg", "expand", "--n", "8", "--k", "2", "--sigma", "4",
         "--gamma", "1/2", "--seed-hex", "ab"],
        capsys,
    )
    assert rc == 1
    assert "error:" in err and "phase 'seed': requested 16, only 8 left" in err
    table = tmp_path / "chi1.tt"
    table.write_text("n=2\n0a\n")
    rc, _, err = run_cli(
        ["gl", "--truth-table", str(table), "--theta", "9/10", "--delta", "1/2",
         "--seed-hex", "ab"],
        capsys,
    )
    assert rc == 1
    assert "error:" in err and "phase 'seed': requested 211, only 8 left" in err


def test_accept_with_no_circuits_draws_nothing(capsys):
    rc, _, err = run_cli(
        ["accept", "--n", "2", "--k", "1", "--epsilon", "1/2", "--delta", "1/2",
         "--seed-hex", "00"],
        capsys, stdin="",
    )
    assert rc == 0
    assert "accept: 0 rounds, 0 bits" in err


def test_sampler_bench_matches_the_table_oracle(capsys):
    # the threshold oracle sums like the 2^n-entry table it replaced
    rc, out, _ = run_cli(
        ["sampler", "bench", "--n", "8", "--epsilon", "1/4", "--delta", "1/4",
         "--mean", "1/3", "--trials", "6", "--seed-hex", MASTER],
        capsys,
    )
    assert rc == 0
    assert json.loads(out) == {
        "plan": {
            "n": 8, "epsilon": "1/4", "delta": "1/4", "mode": "walk",
            "t0": 160, "r": 16, "field_bits": 8, "seed_bits": 61, "queries": 2560,
            "cube_points": 256,
        },
        "oracle_mean": "85/256",
        "trials": 6,
        "master_hex": MASTER,
        "max_abs_error": "7/1280",
        "failures_beyond_epsilon": 0,
        "failure_rate": 0.0,
    }


@pytest.mark.parametrize("n,mean", [(40, "1/2"), (64, "1")])
def test_sampler_bench_runs_past_any_table(capsys, n, mean):
    # no 2^n table is built, so n = 40 and n = 64 run in small memory
    rc, out, _ = run_cli(
        ["sampler", "bench", "--n", str(n), "--epsilon", "1/4", "--delta", "1/4",
         "--mean", mean, "--trials", "2", "--seed-hex", MASTER],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["failures_beyond_epsilon"] == 0
    if mean == "1":
        assert doc["max_abs_error"] == "0"


def _flags_by_command(parser, path=()):
    """Every option string of every leaf command, keyed by its command path."""
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags.update(_flags_by_command(sub, path + (name,)))
    if not flags:
        flags[path] = {s for a in parser._actions for s in a.option_strings}
    return flags


def test_only_prg_expand_and_demo_adversary_pick_a_generator_or_kind():
    flags = _flags_by_command(cli.build_parser())
    assert {"gl", "accept", "audit"} <= {path[0] for path in flags}
    assert [p for p, f in flags.items() if "--steward" in f] == [("demo", "adversary")]
    assert [p for p, f in flags.items() if "--backend" in f] == [("prg", "expand")]
