"""Compare two checkouts of the tracked files by alternating benchmark pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload verify_full_fp \
        --seeds 301-310 --seconds 55 --claim job_ms_p50 --out BENCH_22.json

Make each checkout with git archive, for example
`git archive <commit> | tar -x -C PARENT_DIR`, so that both hold the same
`bench/` and neither shares a bytecode cache with the other.

Pair k runs `python3 bench/run.py --workload W --seed S_k --seconds T` in
each checkout, unchanged, on the k-th seed: the parent first in odd pairs
and the change first in even pairs. For every end-to-end metric of the
change's BENCHMARK.json the summary gives each side's first quartile,
median and third quartile (statistics.quantiles, n=4, inclusive), the pairs
the change won (a strictly better value; ties count for neither side) and
the ratio of the medians. With --claim METRIC the gain rule is decided on
that metric: the change wins at least nine tenths of the pairs, and the
medians differ by more than the distance between the parent's quartiles.

The output is the BENCH_*.json layout. An existing --out file is updated in
place: the other workloads it holds are kept, so one file can collect the
runs of several invocations. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PROTOCOL = (
    "{n} alternating pairs per workload, parent and change in two side-by-side copies of the tracked "
    "files with the same bench/; pair k runs both sides on the same seed, parent first in odd pairs and "
    "change first in even pairs; quartiles are statistics.quantiles(n=4, method='inclusive'); a win is "
    "a strictly better value (tools/bench_pairs.py)"
)


def parse_seeds(text: str) -> list:
    """"301-310" or "301,305,309" (or a mix) as a list of ints; anything
    else, "301-" or "310-301" say, is a usage error."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        bounds = [lo, hi] if dash else [lo]
        if not all(b.isascii() and b.isdigit() for b in bounds) or int(lo) > int(bounds[-1]):
            raise argparse.ArgumentTypeError(f"{part!r} in {text!r} is not a seed or a range LO-HI with LO <= HI")
        seeds += range(int(lo), int(bounds[-1]) + 1)
    return seeds


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in the checkout: its metrics, correctness and job counts."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: bench/run.py printed no result (exit {done.returncode}):\n{done.stderr}")
    out = {name: round(m["value"], 4) for name, m in last["metrics"].items()}
    out.update(correct=last["correct"], failed=last["failed"], attempted=last["attempted"])
    return out


def summarize(pairs: list, metrics: dict) -> dict:
    """Quartiles, medians, wins and median ratio of each end-to-end metric."""
    summary = {}
    for name, better in metrics.items():
        side = {s: [p[s][name] for p in pairs] for s in ("parent", "change")}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in pairs)
        quartiles = {s: [round(q, 4) for q in quartiles_of(v)] for s, v in side.items()}
        summary[name] = {
            "parent_q1_median_q3": quartiles["parent"],
            "change_q1_median_q3": quartiles["change"],
            "change_wins": f"{wins} of {len(pairs)}",
            "median_change_ratio": round(statistics.median(side["change"]) / statistics.median(side["parent"]), 4),
        }
    return summary


def quartiles_of(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def decide(workload: str, metric: str, pairs: list, summary: dict, better: str) -> dict:
    """The gain rule on one metric: 9 of 10 pairs won, and a median gap wider than the parent's IQR."""
    q1, parent_median, q3 = summary["parent_q1_median_q3"]
    change_median = summary["change_q1_median_q3"][1]
    wins = int(summary["change_wins"].split()[0])
    gap = (parent_median - change_median) * (1 if better == "lower" else -1)
    met = wins * 10 >= 9 * len(pairs) and gap > q3 - q1
    return {
        "workload": workload,
        "metric": metric,
        "result": (
            f"median {parent_median} -> {change_median}, the change won {summary['change_wins']}; the median "
            f"gap {gap:.4f} {'exceeds' if gap > q3 - q1 else 'does not exceed'} the parent's interquartile "
            f"range {q3 - q1:.4f}; claim {'met' if met else 'not met'}"
        ),
    }


def record(args, metrics: dict, pairs: list, summary: dict) -> dict:
    """The BENCH_*.json document with this workload's pairs so far, on top
    of what --out already holds."""
    doc = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    doc.setdefault("change", args.note)
    doc.setdefault("parent_commit", args.parent_commit)
    doc["machine"] = doc.get("machine") or f"{platform.machine()} {platform.processor() or ''}, Python {platform.python_version()}".replace(" ,", ",")
    doc["protocol"] = PROTOCOL.format(n=len(pairs))
    doc.setdefault("commands", {})[args.workload] = [
        f"python3 bench/run.py --workload {args.workload} --seed {p['seed']} --seconds {args.seconds:g}" for p in pairs
    ]
    if args.claim:
        doc["claimed"] = decide(args.workload, args.claim, pairs, summary[args.claim], metrics[args.claim])
    doc.setdefault("workloads", {})[args.workload] = {"pairs": pairs, "summary": summary}
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "301-310"')
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--claim", metavar="METRIC", help="decide the gain rule on this metric")
    parser.add_argument("--out", type=Path, help="BENCH_*.json to write or update")
    parser.add_argument("--parent-commit", default="", help="recorded as parent_commit")
    parser.add_argument("--note", default="", help="recorded as change: what the change does")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    if args.claim and args.claim not in metrics:
        parser.error(f"--claim must be one of {', '.join(metrics)}")
    pairs = []
    for k, seed in enumerate(args.seeds, start=1):
        first = "parent" if k % 2 else "change"
        pair = {"pair": k, "seed": seed, "first": first}
        for side in (first, "change" if first == "parent" else "parent"):
            pair[side] = run_side(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append({key: pair[key] for key in ("pair", "seed", "first", "parent", "change")})
        print(f"pair {k} seed {seed}: " + json.dumps({s: pair[s] for s in ("parent", "change")}), file=sys.stderr)
        # written after every pair, so a series stopped midway keeps the pairs it ran
        summary = summarize(pairs, metrics)
        text = json.dumps(record(args, metrics, pairs, summary), indent=1) + "\n"
        if args.out:
            args.out.write_text(text)
    if not args.out:
        sys.stdout.write(text)
    print(json.dumps({args.workload: summary}, indent=1), file=sys.stderr)
    return 0 if all(p[s]["correct"] for p in pairs for s in ("parent", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())
