"""tools/bench_pairs.py: the pairing order, the seeds and the per-metric
summary, run against stand-in checkouts whose benchmark prints a fixed
JSON summary."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

DECLARED = [{"name": "throughput_samples_per_s", "unit": "samples/s",
             "better": "higher", "bound": 0.25},
            {"name": "latency_mean_ms", "unit": "ms", "better": "lower",
             "bound": 0.25}]

# a benchmark that logs its checkout and seed and reports the checkout's
# throughput (VALUE times the seed's entry of SCALE) and latency (100 over
# that throughput)
FAKE_RUN = """import json, sys
from pathlib import Path
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(LOG, "a") as fh:
    fh.write(f"{NAME} {seed}\\n")
value = VALUE * SCALE[int(seed) % len(SCALE)]
print("some report line")
print(json.dumps({"correct": True, "attempted": 3, "failed": FAILED,
                  "metrics": {"throughput_samples_per_s": {"value": value, "unit": "samples/s"},
                              "latency_mean_ms": {"value": 100 / value, "unit": "ms"}}}))
"""


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str, value: float, failed: int, log: Path,
             scale=(1.0,)) -> Path:
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(
        FAKE_RUN.replace("LOG", repr(str(log))).replace("NAME", repr(name))
        .replace("VALUE", repr(value)).replace("FAILED", str(failed))
        .replace("SCALE", repr(list(scale))))
    (root / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    return root / name


def runs_of(side_values: dict) -> dict:
    return {side: [{"seed": i, "failed": 0,
                    "metrics": {"throughput_samples_per_s": v, "latency_mean_ms": 100 / v}}
                   for i, v in enumerate(values)]
            for side, values in side_values.items()}


def test_pairs_alternate_on_one_seed(bench_pairs, tmp_path, capsys):
    log = tmp_path / "log"
    parent = checkout(tmp_path, "parent", 100.0, 0, log)
    change = checkout(tmp_path, "change", 125.0, 1, log)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "3", "--seconds", "1", "--seed0", "40"]) == 0
    assert log.read_text().split("\n") == [
        "parent 40", "change 40", "change 41", "parent 41",
        "parent 42", "change 42", ""]
    out = capsys.readouterr().out.splitlines()
    assert "| 3/3 |" in next(line for line in out if "throughput" in line)
    assert "| 3/3 |" in next(line for line in out if "latency" in line)
    assert "parent failed: 0 over 3 runs" in out
    assert "change failed: 3 over 3 runs" in out
    assert [r["seed"] for r in json.loads(out[-1])["runs"]["change"]] == [40, 41, 42]


def test_summary_reads_each_metric_in_its_own_direction(bench_pairs):
    rows = bench_pairs.summarize(
        runs_of({"parent": [100, 100, 110, 90], "change": [80, 100, 120, 60]}),
        DECLARED)
    throughput, latency = rows
    # pair 2 is a tie and counts for neither side
    assert (throughput["wins"], latency["wins"]) == (1, 1)
    assert throughput["parent"] == [97.5, 100.0, 102.5]
    assert throughput["ratio"] == pytest.approx(90 / 100)
    # 10% worse, by more than the parent's IQR of 5: not a gain
    assert not throughput["better_beyond_iqr"] and not throughput["claim_holds"]
    assert not throughput["worse_than_bound"]


def test_summary_flags_a_change_worse_than_its_bound(bench_pairs):
    rows = bench_pairs.summarize(
        runs_of({"parent": [100, 100, 100], "change": [70, 70, 70]}), DECLARED)
    assert all(row["worse_than_bound"] for row in rows)
    assert all(row["wins"] == 0 for row in rows)


def test_a_run_without_a_summary_stops_the_tool(bench_pairs, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("print('no summary')\n")
    with pytest.raises(SystemExit, match="no JSON summary"):
        bench_pairs.run_once(tmp_path, "w", 0, 1.0)


@pytest.mark.parametrize("wins,holds", [(9, True), (8, False)])
def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_iqr(
        bench_pairs, wins, holds):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [v + 10 if i < wins else v - 1 for i, v in enumerate(parent)]
    throughput, latency = bench_pairs.summarize(
        runs_of({"parent": parent, "change": change}), DECLARED)
    assert throughput["wins"] == latency["wins"] == wins
    assert throughput["better_beyond_iqr"] and latency["better_beyond_iqr"]
    assert throughput["claim_holds"] == latency["claim_holds"] == holds


def test_a_gain_within_the_parent_iqr_is_no_claim(bench_pairs):
    throughput, _ = bench_pairs.summarize(
        runs_of({"parent": [90, 100, 110, 120], "change": [91, 101, 111, 121]}),
        DECLARED)
    assert throughput["wins"] == 4
    assert not throughput["better_beyond_iqr"] and not throughput["claim_holds"]


WIDE = (0.4, 0.8, 1.2, 1.6)   # parent IQR 60% of its median: past the 25% bound
NARROW = (0.99, 1.0, 1.01, 1.0)


# the table's last four columns: wins, better beyond the parent IQR,
# claim holds, worse than bound
@pytest.mark.parametrize("parent_scale,change_value,change_scale,tail", [
    pytest.param(WIDE, 100.0, WIDE, "| 0/4 | no | no | unresolved |",
                 id="wide-spread"),
    # every change run beats every parent run, on both metrics
    pytest.param(WIDE, 500.0, WIDE, "| 4/4 | yes | yes | no |",
                 id="wide-spread-all-better"),
    pytest.param(NARROW, 100.0, NARROW, "| 0/4 | no | no | no |",
                 id="narrow-spread"),
])
def test_a_spread_wider_than_the_bound_leaves_a_metric_unresolved(
        bench_pairs, tmp_path, capsys, parent_scale, change_value,
        change_scale, tail):
    log = tmp_path / "log"
    parent = checkout(tmp_path, "parent", 100.0, 0, log, parent_scale)
    change = checkout(tmp_path, "change", change_value, 0, log, change_scale)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--pairs", "4", "--seconds", "1", "--seed0", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    for name in ("throughput", "latency"):
        row = next(line for line in out if name in line)
        assert row.endswith(tail)
    rows = json.loads(out[-1])["rows"]
    assert [row["unresolved"] for row in rows] == ["unresolved" in tail] * 2
    assert not any(row["worse_than_bound"] for row in rows)
