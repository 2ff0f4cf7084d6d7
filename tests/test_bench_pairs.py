"""tools/bench_pairs.py: its seed grammar and its record of a stopped series."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text, seeds", [("301-303", [301, 302, 303]), ("7,9-10", [7, 9, 10]), ("5-5", [5])])
def test_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["301-", "a-b", "310-301", "", "1,,2", "-3", "1-2-3", "+1"])
def test_malformed_seeds_are_a_usage_error(capsys, text):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(ROOT), str(ROOT), "--workload", "w", "--seeds", text])
    assert exc.value.code == 2
    assert "argument --seeds:" in capsys.readouterr().err


def test_stopped_series_keeps_its_pairs(tmp_path, monkeypatch):
    # the third run fails: the first pair is already in --out
    runs = []

    def run_side(checkout, workload, seed, seconds):
        runs.append(seed)
        if len(runs) == 3:
            raise SystemExit(f"{checkout}: bench/run.py printed no result")
        value = {"lower": 1.0, "higher": 2.0}
        metrics = {m["name"]: value[m["better"]] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        return dict(metrics, correct=True, failed=0, attempted=10)

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit):
        bench_pairs.main([str(ROOT), str(ROOT), "--workload", "w", "--seeds", "1-3", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert [p["seed"] for p in doc["workloads"]["w"]["pairs"]] == [1]
    assert doc["commands"]["w"] == ["python3 bench/run.py --workload w --seed 1 --seconds 55"]
    assert doc["protocol"].startswith("1 alternating pairs")
