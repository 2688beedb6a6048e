"""The paired benchmark comparison of `tools/bench_pairs.py`."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [5.0, 5.1, 5.2, 5.0, 5.3, 5.1, 5.0, 5.2, 5.1, 5.4]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr():
    change = [v - 0.3 for v in PARENT]
    s = bench_pairs.summarize(PARENT, change)
    assert s["won"] == 10 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((5.025, 5.1, 5.2))
    assert s["change"] == pytest.approx((4.725, 4.8, 4.9))
    assert s["gap"] == pytest.approx(0.3) and s["parent_iqr"] == pytest.approx(0.175)
    assert s["claim_holds"]
    # a tie counts for neither side: 9 wins of 10 still hold
    assert bench_pairs.summarize(PARENT, [PARENT[0]] + change[1:])["won"] == 9
    assert bench_pairs.summarize(PARENT, [PARENT[0]] + change[1:])["claim_holds"]
    # 8 wins of 10 do not
    assert not bench_pairs.summarize(PARENT, PARENT[:2] + change[2:])["claim_holds"]
    # every pair won, but by less than the parent's own spread
    small = [v - 0.1 for v in PARENT]
    s = bench_pairs.summarize(PARENT, small)
    assert s["won"] == 10 and not s["claim_holds"]


def test_a_higher_is_better_metric_wins_upward():
    change = [v + 0.3 for v in PARENT]
    assert bench_pairs.summarize(PARENT, change, "higher")["claim_holds"]
    assert bench_pairs.summarize(PARENT, change, "lower")["won"] == 0


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [])


def fake_checkout(root: Path, values: list[float], correct: bool = True) -> Path:
    """A checkout whose `perfbench/run.py` prints the next of `values` as
    setup_s on its last line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "values.json").write_text(json.dumps(values))
    (root / "perfbench" / "run.py").write_text(f'''
import json
from pathlib import Path
values = json.loads(Path("values.json").read_text())
print("workload: fake")
print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": 0,
                   "metrics": {{"setup_s": {{"value": values.pop(0), "unit": "s"}}}}}}))
Path("values.json").write_text(json.dumps(values))
''')
    return root


def test_main_alternates_the_sides_and_reports_each_metric(tmp_path, capsys):
    parent = fake_checkout(tmp_path / "parent", PARENT[:3])
    change = fake_checkout(tmp_path / "change", [v - 0.3 for v in PARENT[:3]])
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pair 1: parent failed 0 setup_s 5  change")
    assert out[1].startswith("pair 2: change failed 0 setup_s 4.8  parent")
    assert out[3].startswith("setup_s (s): parent 5.1 [5.05, 5.15]  change 4.8 [4.75, 4.85]"
                             "  change won 3 of 3")
    assert out[3].endswith("claim holds")


def test_main_exits_on_an_incorrect_run(tmp_path):
    parent = fake_checkout(tmp_path / "parent", PARENT[:1])
    change = fake_checkout(tmp_path / "change", PARENT[:1], correct=False)
    with pytest.raises(SystemExit, match="correct: False"):
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1"])
