"""tools/ab_pairs.py: the paired summary on fixed numbers, failed and timed-out
runs, and the refusals made before any run. No benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
BOUND = 0.4   # 0.4 * 14.5 = 5.8, just wider than the parent's q3 - q1 of 5.5


def test_lower_is_better_gain():
    # every pair won by 5, against the parent's q3 - q1 of 5.5: no gain
    s = ab_pairs.summarize(PARENT, [v - 5.0 for v in PARENT], "lower", BOUND, 10)
    assert (s["median"], s["q1"], s["q3"], s["change_median"]) == (14.5, 11.75, 17.25, 9.5)
    assert (s["won"], s["lost"], s["tied"], s["worse"], s["gain"]) == (10, 0, 0, "no", "no")
    # 9 pairs won by 7 and one tied: a median gap of 6, a gain
    change = [PARENT[0]] + [v - 7.0 for v in PARENT[1:]]
    s = ab_pairs.summarize(PARENT, change, "lower", BOUND, 10)
    assert (s["won"], s["lost"], s["tied"], s["gain"]) == (9, 0, 1, "yes")
    # 8 pairs won: no gain, however large the gap
    change = PARENT[:2] + [v - 20.0 for v in PARENT[2:]]
    assert ab_pairs.summarize(PARENT, change, "lower", BOUND, 10)["gain"] == "no"


def test_higher_is_better_worse_than_bound():
    s = ab_pairs.summarize(PARENT, [v * 0.8 for v in PARENT], "higher", BOUND, 10)
    assert (s["won"], s["lost"], s["worse"], s["gain"]) == (0, 10, "no", "no")
    s = ab_pairs.summarize(PARENT, [v * 0.5 for v in PARENT], "higher", BOUND, 10)
    assert s["worse"] == "yes" and s["change_median"] == pytest.approx(0.5 * 14.5)
    s = ab_pairs.summarize(PARENT, [v + 6.0 for v in PARENT], "higher", BOUND, 10)
    assert (s["won"], s["worse"], s["gain"]) == (10, "no", "yes")


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # q3 - q1 = 5.5 against 0.25 * 14.5 = 3.625: even a far worse median
    # cannot be told from the parent's own spread
    for factor in (1.0, 2.0):
        s = ab_pairs.summarize(PARENT, [v * factor for v in PARENT], "lower", 0.25, 10)
        assert s["worse"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    s = ab_pairs.summarize(PARENT, [v - 10.0 for v in PARENT], "lower", 0.25, 10)
    assert s["worse"] == "no"


def test_gain_needs_ten_pairs_run():
    # five of five pairs won by far: too few pairs to tell a gain
    s = ab_pairs.summarize(PARENT[:5], [v - 20.0 for v in PARENT[:5]], "lower", BOUND, 5)
    assert (s["won"], s["gain"]) == (5, "n/a")


def test_failed_pair_counts_against_the_gain():
    # of ten pairs run, nine completed and were won: 9 of 10, a gain
    s = ab_pairs.summarize(PARENT[:9], [v - 20.0 for v in PARENT[:9]], "lower", BOUND, 10)
    assert (s["won"], s["gain"]) == (9, "yes")
    # two failed: the eight completed pairs, all won, are 8 of 10
    s = ab_pairs.summarize(PARENT[:8], [v - 20.0 for v in PARENT[:8]], "lower", BOUND, 10)
    assert (s["won"], s["gain"]) == (8, "no")


def test_timed_out_run_is_a_failed_run(monkeypatch):
    def stuck(cmd, **kwargs):
        raise ab_pairs.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(ab_pairs.subprocess, "run", stuck)
    assert ab_pairs.run_once(ROOT, "attn-m5-narrow", 0, 30) == "timed out after 900 s"


def test_failed_run_is_listed_with_its_last_stderr_line(tmp_path, capsys, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]

    def fake_run(cmd, **kwargs):
        correct = not (kwargs["cwd"].name == "b" and cmd[cmd.index("--seed") + 1] == "1")
        line = json.dumps({"correct": correct,
                           "metrics": {n: {"value": 1.0} for n in names}})
        return ab_pairs.subprocess.CompletedProcess(cmd, 0, line + "\n", "x\nboom\n")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    assert ab_pairs.main([checkout(tmp_path / "a"), checkout(tmp_path / "b"),
                          "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert f"(1 of 2 pairs, {spec['run_seconds']:g} s each)" in out and "    change seed 1: boom\n" in out
    assert all(line.endswith(" n/a") for line in out.splitlines()
               if line.split()[:1] and line.split()[0] in names)


def checkout(path, run_py=True):
    (path / "perfbench").mkdir(parents=True)
    if run_py:
        (path / "perfbench" / "run.py").write_text("")
    return str(path)


@pytest.mark.parametrize("change, run_py, message", [
    ("bb", True, "error: the checkout paths differ in length: "),
    ("b", False, "error: no perfbench/run.py in "),
], ids=["path-length", "no-run-py"])
def test_refused_before_any_run(tmp_path, capsys, monkeypatch, change, run_py, message):
    def no_run(*args):
        raise AssertionError("ran the benchmark")

    monkeypatch.setattr(ab_pairs, "run_once", no_run)
    assert ab_pairs.main([checkout(tmp_path / "a"), checkout(tmp_path / change, run_py)]) == 2
    assert capsys.readouterr().err.startswith(message)
