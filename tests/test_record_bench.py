"""The summary of ``tools/record_bench.py`` on fixed input; no benchmark runs."""

import cProfile
import importlib.util
import json
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

import heilbronn

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


END_TO_END = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]


def result(op_cost, setup_s=0.3, peak_rss_mb=38.0, ok_rate=1.0, correct=True):
    values = {"op_cost": op_cost, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ok_rate": ok_rate}
    return {"correct": correct, "attempted": 5, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


@pytest.mark.parametrize("values, want", [
    ([5.0, 1.0, 4.0, 2.0, 3.0], {"median": 3.0, "q1": 2.0, "q3": 4.0}),
    ([4.0, 1.0, 3.0, 2.0], {"median": 2.5, "q1": 1.75, "q3": 3.25}),
    ([1.0, 2.0], {"median": 1.5, "q1": 1.25, "q3": 1.75}),
    ([7.0], {"median": 7.0, "q1": 7.0, "q3": 7.0}),
])
def test_quartiles(values, want):
    assert record_bench.quartiles(values) == want


def test_summarize_pairs_in_seed_order():
    runs = {
        "parent": [result(10.0), result(12.0), result(11.0), result(9.0), result(13.0)],
        "change": [result(4.0), result(5.0, setup_s=0.4), result(4.5), result(9.5), result(3.0)],
    }
    out = record_bench.summarize(runs, END_TO_END)
    assert out["parent"]["op_cost"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert out["change"]["op_cost"] == {"median": 4.5, "q1": 4.0, "q3": 5.0}
    assert out["change"]["setup_s"]["median"] == 0.3
    assert out["change"]["ok_rate"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert out["change_better"] == {
        "op_cost": "4/5",  # 9.5 > 9.0 in the fourth pair
        "setup_s": "0/5",  # four ties and one worse pair
        "peak_rss_mb": "0/5",
        "ok_rate": "0/5",
    }
    assert out["unresolved"] == []  # op_cost: parent IQR 2 <= 0.25 * 11
    assert out["regressed"] == []
    assert out["all_correct"]


def test_summarize_reports_an_incorrect_run():
    runs = {"parent": [result(1.0), result(1.0)], "change": [result(1.0), result(1.0, correct=False)]}
    out = record_bench.summarize(runs, END_TO_END)
    assert not out["all_correct"]
    assert out["change_better"]["op_cost"] == "0/2"


def test_summarize_counts_in_each_better_direction():
    runs = {
        "parent": [result(2.0, peak_rss_mb=40.0, ok_rate=0.5), result(2.0, peak_rss_mb=40.0, ok_rate=1.0)],
        "change": [result(3.0, peak_rss_mb=39.0, ok_rate=1.0), result(1.0, peak_rss_mb=41.0, ok_rate=1.0)],
    }
    out = record_bench.summarize(runs, END_TO_END)
    assert out["change_better"] == {"op_cost": "1/2", "setup_s": "0/2", "peak_rss_mb": "1/2", "ok_rate": "1/2"}


def test_summarize_lists_metrics_the_parent_spread_cannot_resolve():
    # parent setup_s 0.16..0.33: IQR 0.085 > 0.25 * median 0.245; op_cost
    # IQR 1.0 = 0.25 * median 4.0 is not wider than the bound
    setup = [0.16, 0.20, 0.245, 0.285, 0.33]
    runs = {"parent": [result(v, setup_s=s) for v, s in zip([3.0, 3.5, 4.0, 4.5, 5.0], setup)],
            "change": [result(4.0) for _ in setup]}
    out = record_bench.summarize(runs, END_TO_END)
    assert out["unresolved"] == ["setup_s"]


@pytest.mark.parametrize("change_cost, regressed", [(12.4, []), (12.6, ["op_cost"]), (7.0, [])])
def test_summarize_flags_a_median_worse_than_the_bound_lower(change_cost, regressed):
    # op_cost is better lower, bound 0.25: worse than the parent median 10
    # by more than 2.5 rejects; a faster change never does
    runs = {"parent": [result(9.0), result(10.0), result(11.0)],
            "change": [result(change_cost - 1), result(change_cost), result(change_cost + 1)]}
    assert record_bench.summarize(runs, END_TO_END)["regressed"] == regressed


@pytest.mark.parametrize("change_ok, regressed", [(0.995, []), (0.985, ["ok_rate"]), (1.0, [])])
def test_summarize_flags_a_median_worse_than_the_bound_higher(change_ok, regressed):
    # ok_rate is better higher, bound 0.01: below the parent median 1.0 by
    # more than 0.01 rejects
    runs = {"parent": [result(1.0) for _ in range(3)],
            "change": [result(1.0, ok_rate=change_ok) for _ in range(3)]}
    assert record_bench.summarize(runs, END_TO_END)["regressed"] == regressed


def test_summarize_reports_the_relative_median_move():
    runs = {"parent": [result(10.0, setup_s=0.2), result(12.0, setup_s=0.4)],
            "change": [result(8.0, setup_s=0.3), result(8.0, setup_s=0.3)]}
    move = record_bench.summarize(runs, END_TO_END)["move"]
    assert move == pytest.approx({"op_cost": -0.2727, "setup_s": 0.0, "peak_rss_mb": 0.0, "ok_rate": 0.0},
                                 abs=1e-4)  # 8 / 11 - 1; 0.3 / 0.3 - 1


@pytest.mark.parametrize("change_costs, gain", [
    # parent op_cost 10..19: median 14.5, IQR 16.75 - 12.25 = 4.5
    ([v - 5.0 for v in range(10, 19)] + [20.0], ["op_cost"]),  # 9/10 better, gap 4.5 + 0.5
    ([v - 5.0 for v in range(10, 18)] + [19.0, 20.0], []),  # 8/10 better
    ([v - 4.5 for v in range(10, 20)], []),  # 10/10 better, gap 4.5 is not wider than the IQR
])
def test_summarize_lists_the_gains_that_meet_the_claim_rule(change_costs, gain):
    # ok_rate is better higher: 1.0 against 0.5 in every pair, with no
    # parent spread, is a gain in all ten pairs
    runs = {"parent": [result(float(v), ok_rate=0.5) for v in range(10, 20)],
            "change": [result(v) for v in change_costs]}
    out = record_bench.summarize(runs, END_TO_END)
    assert out["gain"] == gain + ["ok_rate"]
    assert out["regressed"] == []


def _fake_runs(op_cost):
    def run_once(root, workload, seed, seconds):
        return {"machine": {"cpus": 2}, "errors": []}, result(op_cost[root.name])
    return run_once


def test_main_shows_the_aa_move_of_a_workload_the_noise_record_covers(monkeypatch, tmp_path, capsys):
    # a fixed A/A record covering mc_small_n only: op_cost 0.034 -> 0.0341
    # (+0.294 %), setup_s 0.20 -> 0.19 (-5 %), the rest unmoved
    roots = {side: tmp_path / side for side in record_bench.SIDES}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    medians = {"parent": (0.034, 0.20), "change": (0.0341, 0.19)}
    noise = {"workloads": {"mc_small_n": {"summary": {side: {
        name: {"median": v, "q1": v, "q3": v}
        for name, v in zip(("op_cost", "setup_s", "peak_rss_mb", "ok_rate"), (*medians[side], 38.0, 1.0))}
        for side in record_bench.SIDES}}}}
    (roots["change"] / "BENCH_noise.json").write_text(json.dumps(noise))
    monkeypatch.setattr(record_bench, "run_once", _fake_runs({"parent": 2.0, "change": 1.5}))
    monkeypatch.setattr(record_bench, "code_id", lambda root: {"commit": root.name})
    out = tmp_path / "bench.json"
    assert record_bench.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                              "--out", str(out), "--workload", "mc_small_n", "--workload", "codec_collinear",
                              "--seeds", "1,2"]) == 0
    summaries = {w: v["summary"] for w, v in json.loads(out.read_text())["workloads"].items()}
    for summary in summaries.values():
        assert summary["move"] == {"op_cost": -0.25, "setup_s": 0.0, "peak_rss_mb": 0.0, "ok_rate": 0.0}
    aa = summaries["mc_small_n"]["aa_move"]
    assert aa["op_cost"] == pytest.approx(0.1 / 34) and aa["setup_s"] == pytest.approx(-0.05)
    assert (aa["peak_rss_mb"], aa["ok_rate"]) == (0.0, 0.0)
    assert "aa_move" not in summaries["codec_collinear"]
    err = capsys.readouterr().err
    assert "mc_small_n op_cost: move -25.0% (A/A +0.3%)" in err
    assert "codec_collinear op_cost: move -25.0%\n" in err


def test_main_keeps_the_first_three_errors_of_each_run(monkeypatch, tmp_path):
    errors = [f"op {i}: wrong" for i in range(5)]

    def run_once(root, workload, seed, seconds):
        failed = seed == 1 and root == tmp_path
        detail = {"machine": {"cpus": 2}, "errors": errors if failed else []}
        return detail, result(1.0, ok_rate=0.99 if failed else 1.0, correct=not failed)

    monkeypatch.setattr(record_bench, "run_once", run_once)
    monkeypatch.setattr(record_bench, "code_id", lambda root: {"commit": str(root)})
    out = tmp_path / "bench.json"
    assert record_bench.main(["--parent", str(tmp_path), "--change", str(_PATH.parents[1]),
                              "--out", str(out), "--workload", "codec_rowline", "--seeds", "1,2"]) == 0
    runs = json.loads(out.read_text())["workloads"]["codec_rowline"]["runs"]
    assert [r["errors"] for r in runs["parent"]] == [errors[:3], []]
    assert [r["errors"] for r in runs["change"]] == [[], []]
    assert [r["correct"] for r in runs["parent"]] == [False, True]


def test_main_asks_for_a_recheck_of_a_gain_below_a_tenth_of_a_kiter(monkeypatch, tmp_path, capsys):
    # both workloads gain in op_cost in 2/2 pairs with no parent spread;
    # only the one whose parent median is below 0.1 kiter gets a recheck
    costs = {"mc_small_n": {"parent": 0.05, "change": 0.03}, "codec_collinear": {"parent": 2.0, "change": 1.5}}
    roots = {side: tmp_path / side for side in record_bench.SIDES}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())

    def run_once(root, workload, seed, seconds):
        return {"machine": {"cpus": 2}, "errors": []}, result(costs[workload][root.name])

    monkeypatch.setattr(record_bench, "run_once", run_once)
    monkeypatch.setattr(record_bench, "code_id", lambda root: {"commit": root.name})
    out = tmp_path / "bench.json"
    assert record_bench.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                              "--out", str(out), "--workload", "mc_small_n", "--workload", "codec_collinear",
                              "--seeds", "1,2"]) == 0
    summaries = {w: v["summary"] for w, v in json.loads(out.read_text())["workloads"].items()}
    assert summaries["mc_small_n"]["gain"] == summaries["codec_collinear"]["gain"] == ["op_cost"]
    assert summaries["mc_small_n"]["recheck"] == ["op_cost"]
    assert summaries["codec_collinear"]["recheck"] == []
    err = capsys.readouterr().err
    assert "mc_small_n: gain in op_cost at a parent op_cost below 0.1 kiter; recheck on fresh seeds" in err
    assert "codec_collinear: gain" not in err


def test_code_id_lists_the_blob_of_each_code_file(tmp_path):
    # a committed file, its uncommitted edit, a new file and a file outside
    # CODE_DIRS; the blob ids are git's hashes of the fixed contents
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                              capture_output=True, text=True, check=True).stdout.strip()

    for path, text in {"src/a.py": "x = 1\n", "perfbench/b.py": "y = 2\n", "README": "z\n"}.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "one")
    (tmp_path / "src" / "a.py").write_text("x = 3\n")
    (tmp_path / "src" / "c.py").write_text("new\n")
    got = record_bench.code_id(tmp_path)
    assert got["commit"] == git("rev-parse", "HEAD")
    assert got["files"] == {
        "perfbench/b.py": "47643d4d3045f1367c935992a05075ad588a70d8",
        "src/a.py": "b95c23a4d31624aed5394c24e8189a128d2775d1",
        "src/c.py": "3e757656cf36eca53338e520d134963a44f793f8",
    }
    assert git("status", "--porcelain") == "M src/a.py\n?? src/c.py"


def test_summarize_reports_each_sides_minimum():
    # the lowest run per side and metric, whatever the pair it sits in
    runs = {"parent": [result(20.0, setup_s=0.3), result(13.0, setup_s=0.25), result(19.0, setup_s=0.5)],
            "change": [result(12.5, ok_rate=0.99), result(18.0), result(19.5)]}
    out = record_bench.summarize(runs, END_TO_END)
    assert out["min"] == {
        "parent": {"op_cost": 13.0, "setup_s": 0.25, "peak_rss_mb": 38.0, "ok_rate": 1.0},
        "change": {"op_cost": 12.5, "setup_s": 0.3, "peak_rss_mb": 38.0, "ok_rate": 0.99},
    }


def test_workload_modules_cover_every_workload():
    root = _PATH.parents[1]
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(record_bench.WORKLOAD_MODULES) == sorted(names)
    for modules in record_bench.WORKLOAD_MODULES.values():
        assert modules and all((root / "src" / "heilbronn" / f"{m}.py").is_file() for m in modules)


def test_workload_modules_match_a_profile_of_each_operation(monkeypatch):
    # the src/heilbronn modules whose functions one operation of each tiny
    # workload calls, as cProfile sees them
    path = _PATH.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    package = Path(heilbronn.__file__).parent
    for name, w in workloads.make_workloads(tiny=True).items():
        inp = w.make(workloads.DEFAULT_SEED, 0)
        profile = cProfile.Profile()
        profile.runcall(w.run, inp)
        files = {Path(file) for file, _, _ in pstats.Stats(profile).stats}
        modules = {f.stem for f in files if f.parent == package}
        assert modules == set(record_bench.WORKLOAD_MODULES[name]), name


def test_main_asks_for_a_recheck_of_a_gain_on_unchanged_modules(monkeypatch, tmp_path, capsys):
    # both workloads gain in op_cost in 2/2 pairs, both parent medians are
    # above 0.1 kiter, and the two sides differ only in witnesses.py, which
    # codec_theorem2 runs and mc_large_n does not
    costs = {"mc_large_n": {"parent": 20.0, "change": 16.0}, "codec_theorem2": {"parent": 110.0, "change": 90.0}}
    roots = {side: tmp_path / side for side in record_bench.SIDES}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    files = {f"src/heilbronn/{m}.py": f"{i:040x}" for i, m in
             enumerate(("rng", "geometry", "montecarlo", "coding", "witnesses", "constructions", "cli"))}
    code = {"parent": {"commit": "p", "files": files},
            "change": {"commit": "c", "files": files | {"src/heilbronn/witnesses.py": "f" * 40}}}

    def run_once(root, workload, seed, seconds):
        return {"machine": {"cpus": 2}, "errors": []}, result(costs[workload][root.name] + seed)

    monkeypatch.setattr(record_bench, "run_once", run_once)
    monkeypatch.setattr(record_bench, "code_id", lambda root: code[root.name])
    out = tmp_path / "bench.json"
    assert record_bench.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                              "--out", str(out), "--workload", "mc_large_n", "--workload", "codec_theorem2",
                              "--seeds", "1,2"]) == 0
    summaries = {w: v["summary"] for w, v in json.loads(out.read_text())["workloads"].items()}
    assert summaries["mc_large_n"]["gain"] == summaries["codec_theorem2"]["gain"] == ["op_cost"]
    assert summaries["mc_large_n"]["recheck"] == ["op_cost"]
    assert summaries["codec_theorem2"]["recheck"] == []
    assert summaries["mc_large_n"]["min"]["parent"]["op_cost"] == 21.0
    err = capsys.readouterr().err
    assert "mc_large_n: gain in op_cost on unchanged modules; recheck on fresh seeds" in err
    assert "codec_theorem2: gain" not in err
    assert "mc_large_n op_cost: min parent 21, change 17\n" in err


def test_main_asks_for_a_recheck_of_a_slowdown_in_every_pair_on_unchanged_modules(monkeypatch, tmp_path, capsys):
    # op_cost reads worse in 3/3 pairs on mc_small_n and codec_theorem2,
    # and in 2/3 on mc_large_n; the sides differ only in witnesses.py, which
    # codec_theorem2 runs and the Monte Carlo workloads do not
    costs = {"mc_small_n": {"parent": 0.20, "change": 0.21}, "codec_theorem2": {"parent": 110.0, "change": 120.0},
             "mc_large_n": {"parent": 20.0, "change": 21.0}}
    roots = {side: tmp_path / side for side in record_bench.SIDES}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    files = {f"src/heilbronn/{m}.py": f"{i:040x}" for i, m in
             enumerate(("rng", "geometry", "montecarlo", "coding", "witnesses", "constructions", "cli"))}
    code = {"parent": {"commit": "p", "files": files},
            "change": {"commit": "c", "files": files | {"src/heilbronn/witnesses.py": "f" * 40}}}

    def run_once(root, workload, seed, seconds):
        cost = costs[workload][root.name]
        if workload == "mc_large_n" and seed == 2 and root.name == "change":
            cost = 19.0
        return {"machine": {"cpus": 2}, "errors": []}, result(cost)

    monkeypatch.setattr(record_bench, "run_once", run_once)
    monkeypatch.setattr(record_bench, "code_id", lambda root: code[root.name])
    out = tmp_path / "bench.json"
    assert record_bench.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                              "--out", str(out), "--workload", "mc_small_n", "--workload", "codec_theorem2",
                              "--workload", "mc_large_n", "--seeds", "1,2,3"]) == 0
    summaries = {w: v["summary"] for w, v in json.loads(out.read_text())["workloads"].items()}
    assert {w: s["change_better"]["op_cost"] for w, s in summaries.items()} == {
        "mc_small_n": "0/3", "codec_theorem2": "0/3", "mc_large_n": "1/3"}
    assert all(s["gain"] == [] == s["regressed"] for s in summaries.values())
    assert summaries["mc_small_n"]["recheck"] == ["op_cost"]
    assert summaries["codec_theorem2"]["recheck"] == []
    assert summaries["mc_large_n"]["recheck"] == []
    err = capsys.readouterr().err
    assert "mc_small_n: op_cost worse in 3/3 pairs on unchanged modules; recheck on fresh seeds\n" in err
    assert "codec_theorem2: op_cost worse" not in err and "mc_large_n: op_cost worse" not in err
    assert "gain in" not in err
