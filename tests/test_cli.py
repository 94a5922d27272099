import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from heilbronn import cli, coding, witnesses
from heilbronn.cli import run
from heilbronn.formats import save_grid, save_pointset
from heilbronn.geometry import GridArrangement, PointSet

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/heilbronn/schemas/output.schema.json").read_text()
)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    return record


@pytest.fixture
def corners_file(tmp_path):
    path = tmp_path / "corners4.txt"
    save_pointset(PointSet.from_coords([(0, 0), (1, 0), (0, 1), (1, 1)]), path)
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    a = GridArrangement.from_points(64, [(0, 0), (9, 1), (3, 7), (20, 33), (63, 5), (5, 63)])
    path = tmp_path / "g.txt"
    save_grid(a, path)
    return str(path), a


class TestMinTriangle:
    def test_corners_area_half(self, capsys, corners_file):
        rec = run_json(capsys, ["min-triangle", "--file", corners_file])
        assert rec["results"]["area"] == 0.5
        assert rec["seed"] is None

    def test_grid_input(self, capsys, grid_file):
        path, a = grid_file
        rec = run_json(capsys, ["min-triangle", "--file", path, "--mode", "exhaustive"])
        assert rec["results"]["twice_area"] >= 0

    def test_subnormal_coordinates_match_exhaustive(self, capsys, tmp_path):
        # products of these differences underflow and some quotients dy/dx
        # overflow; the fast scan stays exact and silent on stderr
        coords = [(0.0, 0.3), (1e-310, 0.7), (5e-324, 0.1), (0.5, 5e-324), (0.2, 1e-310),
                  (1e-310, 1e-310), (5e-324, 5e-324)]
        coords += [((7 * t % 23) / 23, (11 * t % 29) / 29) for t in range(1, 40)]
        path = tmp_path / "tiny.txt"
        save_pointset(PointSet.from_coords(coords), path)
        proc = subprocess.run(
            [sys.executable, "-m", "heilbronn", "min-triangle", "--file", str(path)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        fast = json.loads(proc.stdout)["results"]
        rec = run_json(capsys, ["min-triangle", "--file", str(path), "--mode", "exhaustive"])
        want = rec["results"]
        assert [fast[f] for f in ("i", "j", "k", "twice_area")] == [
            want[f] for f in ("i", "j", "k", "twice_area")
        ]


class TestSampleAndAnalyze:
    def test_sample_pointset(self, capsys, tmp_path):
        out = tmp_path / "pts.txt"
        rec = run_json(capsys, ["sample", "--n", "12", "--seed", "5", "--out", str(out)])
        assert rec["seed"] == 5
        assert out.exists()

    def test_sample_grid_negative_n_is_data_error(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        assert run(["sample", "--k", "8", "--n", "-3", "--seed", "1", "--out", str(out)]) == 2
        assert "no arrangement of n=-3 pebbles" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_grid_then_rank(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        run_json(capsys, ["sample", "--n", "6", "--k", "32", "--seed", "5", "--out", str(out)])
        rec = run_json(capsys, ["rank", "--file", str(out)])
        assert int(rec["results"]["value"]) < int(rec["results"]["domain_size"])

    def test_analyze(self, capsys, tmp_path):
        out = tmp_path / "pts.txt"
        run_json(capsys, ["sample", "--n", "8", "--seed", "6", "--out", str(out)])
        rec = run_json(
            capsys,
            ["analyze", "--file", str(out), "--seed", "7", "--baseline-trials", "120"],
        )
        assert 0.0 <= rec["results"]["percentile"] <= 1.0

    @pytest.mark.parametrize("trials", ["0", "-4"])
    def test_analyze_without_baseline_trials_exits_2(self, capsys, corners_file, trials):
        assert run(["analyze", "--file", corners_file, "--seed", "1", "--baseline-trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need at least one baseline trial")
        assert "Traceback" not in captured.err


class TestScan:
    def test_json_output(self, capsys):
        rec = run_json(capsys, ["scan", "--ns", "8,12,16", "--seed", "2", "--trials", "80"])
        assert rec["results"]["slope"] < -2
        assert len(rec["results"]["samples"]) == 3
        assert rec["results"]["samples"][0]["seed"] == 2

    def test_csv_output(self, capsys):
        code = run(["scan", "--ns", "8,12,16", "--seed", "2", "--trials", "60",
                    "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,trials,mean,stderr,lo95,hi95,seed"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "8"
        # the whole output, byte for byte: floats are written as their repr
        assert out == (
            "n,trials,mean,stderr,lo95,hi95,seed\n"
            "8,60,0.001801689965767125,0.0002907540681030711,0.0012318119922851058,"
            "0.0023715679392491444,2\n"
            "12,60,0.0004662919746312728,6.522943651170865e-05,0.00033844227906832384,"
            "0.0005941416701942218,2\n"
            "16,60,0.00016531969702983734,2.3683719307088085e-05,0.0001188996071879447,"
            "0.00021173978687172998,2\n"
        )

    def test_bad_ns_is_usage_error(self, capsys):
        assert run(["scan", "--ns", "8,x", "--seed", "1"]) == 1

    def test_zero_trials_is_not_the_default_schedule(self, capsys):
        # --trials 0 is a trial count like any other, not "unset"
        assert run(["scan", "--ns", "3,4", "--seed", "1", "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need at least 2 trials" in captured.err

    def test_one_repeated_n_is_a_data_error(self, capsys):
        assert run(["scan", "--ns", "8,8,8", "--trials", "4", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples must span more than one n\n"


class TestSeedAliasing:
    """Seeds and stream ids are used modulo 2^64 (README, Command line)."""

    def test_scan_seeds_alias_modulo_2_64(self, capsys):
        records = [run_json(capsys, ["scan", "--ns", "3", "--trials", "4", "--seed", str(s)])
                   for s in (-1, 2**64 - 1, 2**65 - 1)]
        assert [r["seed"] for r in records] == [-1, 2**64 - 1, 2**65 - 1]
        samples = [{k: v for k, v in r["results"]["samples"][0].items() if k != "seed"}
                   for r in records]
        assert samples[0] == samples[1] == samples[2]

    @pytest.mark.parametrize("grid", [[], ["--k", "64"]])
    def test_sample_streams_alias_modulo_2_64(self, capsys, tmp_path, grid):
        files = []
        for stream in (-1, 2**64 - 1):
            out = tmp_path / f"s{stream}.txt"
            run_json(capsys, ["sample", "--n", "9", *grid, "--seed", "3",
                              "--stream", str(stream), "--out", str(out)])
            files.append(out.read_text())
        assert files[0] == files[1]


class TestTailStatsOptimize:
    def test_tail(self, capsys):
        rec = run_json(
            capsys, ["tail", "--n", "8", "--threshold", "1.0", "--trials", "50", "--seed", "3"]
        )
        assert rec["results"]["fraction"] == 1.0

    def test_stats_degenerate(self, capsys):
        rec = run_json(
            capsys,
            ["stats-degenerate", "--k", "2", "--n", "2", "--trials", "600", "--seed", "4"],
        )
        assert abs(rec["results"]["shared_row_fraction"] - 1 / 3) < 0.08

    def test_stats_degenerate_negative_n_is_data_error(self, capsys):
        assert run(["stats-degenerate", "--k", "8", "--n", "-3", "--trials", "5", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no arrangement of n=-3 pebbles" in captured.err

    def test_optimize(self, capsys):
        rec = run_json(
            capsys,
            ["optimize", "--n", "3", "--seed", "42", "--restarts", "4", "--steps", "1500"],
        )
        assert rec["results"]["value"] > 0.45


class TestConstructErdos:
    def test_construct(self, capsys, tmp_path):
        out = tmp_path / "erdos7.txt"
        rec = run_json(capsys, ["construct-erdos", "--p", "7", "--out", str(out)])
        assert rec["results"]["min_twice_area"] >= 1
        assert out.exists()

    def test_composite_is_data_error(self, capsys):
        assert run(["construct-erdos", "--p", "8"]) == 2

    @pytest.mark.parametrize("p", [2**30 + 3, 2147483647, 1000000000000000003])
    def test_side_past_grid_cap_refused_before_primality(self, capsys, monkeypatch, p):
        from heilbronn import constructions

        def refuse(p):
            raise AssertionError("is_prime called")

        monkeypatch.setattr(constructions, "is_prime", refuse)
        assert run(["construct-erdos", "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no arrangement of n={p} pebbles on a K={p} grid\n"

    @pytest.mark.parametrize("p", [-5, 0, 1, 9, 2**30 - 1])
    def test_non_prime_message_unchanged(self, capsys, p):
        assert run(["construct-erdos", "--p", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p} is not prime\n"

    def test_one_triple_scan(self, capsys, monkeypatch):
        from heilbronn import constructions
        from heilbronn.constructions import erdos_prime
        from heilbronn.geometry import min_area_triangle

        want = min_area_triangle(erdos_prime(31)).twice_area
        calls = []

        def counted(points, mode="fast"):
            calls.append(mode)
            return min_area_triangle(points, mode)

        monkeypatch.setattr(constructions, "min_area_triangle", counted)
        monkeypatch.setattr(cli, "min_area_triangle", counted)
        rec = run_json(capsys, ["construct-erdos", "--p", "31"])
        assert calls == ["fast"]
        assert rec["results"]["min_twice_area"] == want


class TestRankUnrank:
    def test_round_trip_via_files(self, capsys, tmp_path, grid_file):
        path, a = grid_file
        rec = run_json(capsys, ["rank", "--file", path])
        out = tmp_path / "back.txt"
        rec2 = run_json(
            capsys,
            ["unrank", "--k", "64", "--n", "6", "--index", rec["results"]["value"],
             "--out", str(out)],
        )
        assert Path(out).read_text() == Path(path).read_text()

    def test_unrank_out_of_range(self, capsys):
        assert run(["unrank", "--k", "2", "--n", "2", "--index", "6"]) == 2


class TestWitnessCommands:
    def test_encode_decode_byte_identical(self, capsys, tmp_path):
        a = GridArrangement.from_points(64, [(0, 0), (2, 2), (4, 4), (9, 1), (20, 33), (63, 5)])
        grid_path = tmp_path / "g.txt"
        save_grid(a, grid_path)
        wit_path = tmp_path / "w.hw1"
        rec = run_json(
            capsys,
            ["witness", "collinear", "encode", "--file", str(grid_path), "--out", str(wit_path)],
        )
        assert rec["results"]["witness_length"] > 0
        back_path = tmp_path / "back.txt"
        run_json(
            capsys,
            ["witness", "collinear", "decode", "--file", str(wit_path), "--out", str(back_path)],
        )
        assert back_path.read_text() == grid_path.read_text()

    def test_kind_mismatch_is_data_error(self, capsys, tmp_path):
        a = GridArrangement.from_points(64, [(0, 0), (2, 2), (4, 4), (9, 1), (20, 33), (63, 5)])
        grid_path = tmp_path / "g.txt"
        save_grid(a, grid_path)
        wit_path = tmp_path / "w.hw1"
        run_json(
            capsys,
            ["witness", "collinear", "encode", "--file", str(grid_path), "--out", str(wit_path)],
        )
        assert run(["witness", "rowline", "decode", "--file", str(wit_path),
                    "--out", str(tmp_path / "x.txt")]) == 2

    def test_encode_without_structure_is_data_error(self, capsys, tmp_path):
        a = GridArrangement.from_points(64, [(0, 0), (9, 1), (3, 7), (20, 33)])
        grid_path = tmp_path / "g.txt"
        save_grid(a, grid_path)
        assert run(["witness", "collinear", "encode", "--file", str(grid_path)]) == 2

    @pytest.mark.parametrize("triple, message", [
        (None, "minimum-area triple is degenerate; no triangle witness"),
        ("0,2,1", "invalid index triple (0, 2, 1)"),
        ("0,1,9", "invalid index triple (0, 1, 9)"),
    ])
    def test_small_triangle_encode_refusal_is_data_error(self, capsys, tmp_path, triple, message):
        # (0, 0), (1, 1) and (2, 2) are collinear: the minimum triple is degenerate
        grid_path = tmp_path / "g.txt"
        save_grid(GridArrangement.from_points(4, [(0, 0), (1, 1), (2, 2), (3, 0)]), grid_path)
        argv = ["witness", "small_triangle", "encode", "--file", str(grid_path)]
        assert run(argv + ([] if triple is None else ["--triple", triple])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_decode_without_out_is_usage_error_before_decoding(self, capsys, tmp_path, monkeypatch):
        # a 3-bit rowline payload is malformed, but the missing --out is
        # reported first and nothing is decoded
        wit_path = tmp_path / "bad.hw1"
        wit_path.write_text("HW1 rowline K=8 n=4\n3:a\n")
        assert run(["witness", "rowline", "decode", "--file", str(wit_path),
                    "--out", str(tmp_path / "x.txt")]) == 2
        calls = []
        monkeypatch.setattr(cli, "decode_witness", lambda *a: calls.append(a))
        assert run(["witness", "rowline", "decode", "--file", str(wit_path)]) == 1
        assert calls == []
        assert "requires --out" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, action", [
        ("rowline", "encode"), ("collinear", "encode"), ("theorem2", "encode"),
        ("small_triangle", "decode"),
    ])
    def test_triple_only_for_small_triangle_encode(self, capsys, tmp_path, grid_file, kind, action):
        out = tmp_path / "out.txt"
        argv = ["witness", kind, action, "--file", grid_file[0], "--out", str(out), "--triple", "0,1,2"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --triple applies only to small_triangle encode\n"
        assert not out.exists()
        rec = run_json(capsys, ["witness", "small_triangle", "encode", "--file", grid_file[0],
                                "--triple", "0,1,2"])
        assert rec["results"]["kind"] == "small_triangle"

    @pytest.mark.parametrize("header", [
        "HW1 rowline K=1073741824 n=100001",
        "HW1 collinear K=1073741824 n=400001",
        "HW1 small_triangle K=1073741824 n=400001",
        "HW1 theorem2 K=1073741824 n=400000",
        "HW1 rowline K=1073741825 n=3",  # K above the grid maximum
    ])
    def test_header_only_witness_exits_2_without_binomials(self, capsys, tmp_path, monkeypatch,
                                                           header):
        def refuse(*args):  # run maps AssertionError to exit 2, so raise another
            raise RuntimeError("decode computed a binomial")

        monkeypatch.setattr(coding, "comb", refuse)
        monkeypatch.setattr(coding, "perm", refuse)
        monkeypatch.setattr(witnesses, "comb", refuse)
        wit_path = tmp_path / "big.hw1"
        wit_path.write_text(header + "\n0:\n")
        kind = header.split()[1]
        t0 = time.perf_counter()
        assert run(["witness", kind, "decode", "--file", str(wit_path),
                    "--out", str(tmp_path / "x.txt")]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "error:" in capsys.readouterr().err

    def test_grid_flag_alias(self, capsys, tmp_path):
        a = GridArrangement.from_points(64, [(0, 0), (2, 2), (4, 4), (9, 1), (20, 33), (63, 5)])
        grid_path = tmp_path / "g.txt"
        save_grid(a, grid_path)
        rec = run_json(capsys, ["witness", "collinear", "encode", "--grid", str(grid_path)])
        assert rec["results"]["savings"] == rec["results"]["baseline_length"] - rec["results"]["witness_length"]


# Each command's params as the hand-written dicts before run() built the
# record; "{dir}", "{grid}" and "{points}" stand for the test's paths.
PARENT_PARAMS = [
    (["min-triangle", "--file", "{grid}", "--mode", "exhaustive"],
     {"file": "{grid}", "mode": "exhaustive"}),
    (["sample", "--n", "6", "--k", "32", "--seed", "5", "--out", "{dir}/s.txt"],
     {"n": 6, "k": 32, "stream": 0, "out": "{dir}/s.txt"}),
    (["scan", "--ns", "8,12", "--seed", "2", "--trials", "20"],
     {"ns": [8, 12], "trials": 20, "jobs": 1}),
    (["tail", "--n", "5", "--threshold", "0.5", "--trials", "10", "--seed", "1"],
     {"n": 5, "threshold": 0.5, "trials": 10, "jobs": 1}),
    (["construct-erdos", "--p", "7", "--out", "{dir}/e.txt"],
     {"p": 7, "out": "{dir}/e.txt"}),
    (["optimize", "--n", "3", "--seed", "1", "--restarts", "1", "--steps", "10", "--out", "{dir}/o.txt"],
     {"n": 3, "restarts": 1, "steps": 10, "jobs": 1}),
    (["rank", "--file", "{grid}"],
     {"file": "{grid}"}),
    (["unrank", "--k", "8", "--n", "3", "--index", "17"],
     {"k": 8, "n": 3, "index": "17"}),
    (["witness", "small_triangle", "encode", "--file", "{grid}", "--triple", "0,1,2"],
     {"kind": "small_triangle", "action": "encode", "file": "{grid}", "out": None}),
    (["stats-degenerate", "--k", "4", "--n", "3", "--trials", "10", "--seed", "4"],
     {"k": 4, "n": 3, "trials": 10}),
    (["analyze", "--file", "{points}", "--seed", "7", "--baseline-trials", "20"],
     {"file": "{points}", "baseline_trials": 20}),
]
ADDED_PARAMS = {"scan": {"format"}, "optimize": {"out"}, "unrank": {"out"}, "witness": {"triple"}}


class TestRecord:
    @pytest.mark.parametrize("argv, parent", PARENT_PARAMS, ids=[a[0] for a, _ in PARENT_PARAMS])
    def test_params_extend_the_hand_written_dicts(self, capsys, monkeypatch, tmp_path,
                                                 grid_file, corners_file, argv, parent):
        monkeypatch.delenv("HEILBRONN_JOBS", raising=False)
        paths = {"dir": str(tmp_path), "grid": grid_file[0], "points": corners_file}

        def fill(value):
            return value.format(**paths) if isinstance(value, str) else value

        rec = run_json(capsys, [fill(a) for a in argv])
        parent = {k: fill(v) for k, v in parent.items()}
        params = rec["params"]
        assert {k: params.get(k) for k in parent} == parent
        assert set(params) - set(parent) == ADDED_PARAMS.get(argv[0], set())
        assert rec["seed"] == (int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None)
        assert "seed" not in params

    def test_params_follow_parser_order(self, capsys, grid_file):
        rec = run_json(capsys, ["witness", "small_triangle", "encode", "--triple", "0,1,2",
                                "--file", grid_file[0]])
        assert list(rec["params"].items()) == [
            ("kind", "small_triangle"), ("action", "encode"), ("file", grid_file[0]),
            ("out", None), ("triple", [0, 1, 2]),
        ]

    @pytest.mark.parametrize("argv", [
        ["scan", "--ns", "8,x", "--seed", "1"],
        ["scan", "--ns", "", "--seed", "1"],
        ["witness", "small_triangle", "encode", "--file", "g.txt", "--triple", "0,1"],
        ["witness", "small_triangle", "decode", "--file", "w.hw1", "--triple", "0,1,x"],
    ])
    def test_malformed_integer_list_is_usage_error(self, capsys, argv):
        option = next(a for a in argv if a in ("--ns", "--triple"))
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: argument {option}: ")


class TestExitCodes:
    def test_unknown_command_usage(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["sample", "--n", "4"]) == 1  # --seed required

    def test_non_decimal_index_is_usage_error(self, capsys):
        assert run(["unrank", "--k", "4", "--n", "2", "--index", "12x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --index must be a decimal integer, got '12x'\n"

    @pytest.mark.parametrize("argv", [
        ["scan", "--ns", "8,x", "--seed", "1"],  # refused by the parser
        ["unrank", "--k", "4", "--n", "2", "--index", "12x"],  # refused by the command
    ], ids=["parse", "command"])
    def test_usage_error_is_one_stderr_line(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("usage error:") == 1
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("argv", [
        ["scan", "--ns", "8", "--seed", "1"],
        ["tail", "--n", "8", "--threshold", "1.0", "--trials", "50", "--seed", "3"],
        ["optimize", "--n", "3", "--seed", "1", "--restarts", "1", "--steps", "1"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, argv, jobs):
        assert run(argv + ["--jobs", jobs]) == 1

    @pytest.mark.parametrize("argv", [
        ["scan", "--ns", "8", "--seed", "1", "--trials", "4"],
        ["tail", "--n", "5", "--threshold", "0.01", "--trials", "10", "--seed", "1"],
        ["optimize", "--n", "3", "--seed", "1", "--restarts", "1", "--steps", "1"],
    ])
    @pytest.mark.parametrize("env", ["abc", "0", "-3", "1.5"])
    def test_invalid_jobs_env_is_usage_error(self, capsys, monkeypatch, argv, env):
        monkeypatch.setenv("HEILBRONN_JOBS", env)
        assert run(argv) == 1
        assert "HEILBRONN_JOBS" in capsys.readouterr().err
        # an explicit --jobs overrides the variable
        assert run_json(capsys, argv + ["--jobs", "1"])["params"]["jobs"] == 1

    @pytest.mark.parametrize("env, jobs", [("3", 3), ("", 1)])
    def test_valid_jobs_env_is_the_default(self, capsys, monkeypatch, inline_pool, env, jobs):
        monkeypatch.setenv("HEILBRONN_JOBS", env)  # empty counts as unset
        argv = ["tail", "--n", "5", "--threshold", "0.01", "--trials", "40", "--seed", "1"]
        assert run_json(capsys, argv)["params"]["jobs"] == jobs
        assert inline_pool == ([jobs] if jobs > 1 else [])

    def test_invalid_jobs_env_ignored_without_jobs_option(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("HEILBRONN_JOBS", "abc")
        run_json(capsys, ["sample", "--n", "5", "--seed", "1", "--out", str(tmp_path / "p.txt")])

    @pytest.mark.parametrize("fake", ["raise", "collinear"])
    def test_internal_check_failure_exits_2_without_traceback(self, capsys, monkeypatch, fake):
        from heilbronn import constructions
        from heilbronn.geometry import TriangleReport

        def broken(points, mode="fast"):
            if fake == "raise":
                raise AssertionError("planted failure")
            return TriangleReport(0, 1, 2, 0, 0.0)  # erdos_prime's own check then fails

        monkeypatch.setattr(constructions, "min_area_triangle", broken)
        assert run(["construct-erdos", "--p", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal check failed: ")
        assert "Traceback" not in captured.err
        if fake == "raise":
            assert "planted failure" in captured.err

    def test_missing_file_is_data_error(self):
        assert run(["min-triangle", "--file", "/nonexistent/nope.txt"]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_data_error(self, capsys, threshold):
        argv = ["tail", "--n", "5", f"--threshold={threshold}", "--trials", "10", "--seed", "1"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threshold must be finite\n"

    def test_non_finite_result_never_reaches_stdout(self, capsys, monkeypatch):
        from heilbronn import cli
        from heilbronn.montecarlo import TailEstimate

        def nan_fraction(n, t, trials, seed, jobs=1):
            return TailEstimate(n, t, trials, float("nan"), seed)

        monkeypatch.setattr(cli, "tail_probability", nan_fraction)
        assert run(["tail", "--n", "5", "--threshold", "0.1", "--trials", "10", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values are not JSON compliant")

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        from heilbronn import cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "tail_probability", exhausted)
        assert run(["tail", "--n", "5", "--threshold", "0.1", "--trials", "10", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_closed_stdout_exits_2_without_traceback(self):
        # the read end closes before the child has imported heilbronn, so
        # its first write to stdout fails with EPIPE
        proc = subprocess.Popen(
            [sys.executable, "-m", "heilbronn", "scan", "--ns", "3,4,5", "--seed", "1",
             "--trials", "200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err == "error: stdout closed by its reader\n"

    def test_module_entry_point(self, tmp_path):
        # one end-to-end subprocess check of `python -m heilbronn`
        out = tmp_path / "pts.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "heilbronn", "sample", "--n", "5", "--seed", "1",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        jsonschema.validate(record, SCHEMA)
        assert record["seed"] == 1
