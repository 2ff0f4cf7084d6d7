"""pcbideal benchmark: real `pcb` jobs, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload invariants --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --record-reference

Load model: one client, closed loop, one thread. A round runs every job of
the workload once, in order, in a fresh interpreter (worker.py); rounds
repeat until --seconds of measuring have passed. --trace 0 prints the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics and the tracing overhead. The last line of
stdout is one JSON object; the exit code is 1 when any output check fails.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import jobs as joblib  # noqa: E402
from tracer import aggregate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = joblib.ROOT
SRC = ROOT / "src"
JOB_BUDGET_S = 30.0
RUN_LIMIT_S = 170.0  # every worker is killed past this point of the run

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "intmat.minors_gcd.busy_s": "s",
    "intmat.minors_gcd.calls": "count",
    "intmat.determinant.calls": "count",
    "intmat.determinant.busy_s": "s",
    "intmat.adjugate.calls": "count",
    "intmat.adjugate.busy_s": "s",
    "intmat.smith_normal_form.calls": "count",
    "intmat.smith_normal_form.busy_s": "s",
    "core.associated_vector.calls": "count",
    "core.normalized_snf.calls": "count",
    "core.normalized_snf.busy_s": "s",
    "core.torsion_profile.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "decomp.realize_over_prime_field.busy_s": "s",
    "decomp.verify_full_decomposition.busy_s": "s",
    "decomp.verify_full_decomposition.self_s": "s",
    "decomp.embedded_component.calls": "count",
    "decomp.embedded_component.busy_s": "s",
    "decomp.embedded_component.self_s": "s",
    "oracle.groebner_basis.calls": "count",
    "oracle.groebner_basis.busy_s": "s",
    "oracle.groebner_basis.self_s": "s",
    "oracle.groebner_basis.out_size_max": "count",
    "oracle.groebner_basis.out_size_total": "count",
    "oracle.groebner_basis.under_ring_map_kernel.busy_s": "s",
    "oracle.groebner_basis.under_intersect.busy_s": "s",
    "oracle.groebner_basis.under_colon.busy_s": "s",
    "oracle.groebner_basis.under_saturate.busy_s": "s",
    "oracle.groebner_basis.under_embedded_component.busy_s": "s",
    "oracle.groebner_basis.under_other.busy_s": "s",
    "oracle.ring_map_kernel.calls": "count",
    "oracle.ring_map_kernel.busy_s": "s",
    "oracle.intersect.calls": "count",
    "oracle.intersect.busy_s": "s",
    "oracle.colon.calls": "count",
    "oracle.colon.busy_s": "s",
    "oracle.saturate.calls": "count",
    "oracle.saturate.busy_s": "s",
    "oracle.normal_form.calls": "count",
    "oracle.normal_form.busy_s": "s",
    "oracle.Ideal.groebner.calls": "count",
    "oracle.Ideal.groebner.hit_ratio": "ratio",
    "trace.errors": "count",
    "layer.intmat.self_share": "ratio",
    "layer.core.self_share": "ratio",
    "layer.decomp.self_share": "ratio",
    "layer.oracle.self_share": "ratio",
    "layer.cli.self_share": "ratio",
    "trace.jobs_per_s_traced": "1/s",
    "trace.jobs_per_s_untraced": "1/s",
    "trace.overhead": "ratio",
}


class Round:
    """What one worker process reported: per-job records and a summary."""

    def __init__(self, records: List[Dict], summary: Dict, spans: Optional[list]):
        self.records = records
        self.summary = summary
        self.spans = spans

    @property
    def job_s(self) -> float:
        return sum(r["latency_s"] for r in self.records)


def _worker(workdir: Path, jobs_file: Path, tag: str, deadline: float, extra: List[str]) -> Round:
    out = workdir / f"{tag}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_file), str(out),
           "--budget", str(JOB_BUDGET_S), *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + str(HERE))
    # Child output goes to a file, so a chatty job can never block on a full pipe.
    with open(workdir / f"{tag}.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker {tag} passed the {RUN_LIMIT_S:g} s run limit") from None
        finally:
            if proc.poll() is None:  # also on SIGTERM or Ctrl-C
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {(workdir / f'{tag}.log').read_text()[-2000:]}")
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    summary = lines.pop()
    if Path(summary["pcbideal"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"worker imported pcbideal from {summary['pcbideal']}, not {SRC}")
    spans = None
    if "--trace" in extra:
        spans = json.loads(Path(extra[extra.index("--trace") + 1]).read_text())
    return Round(lines, summary, spans)


def _tail(latencies: List[float]):
    """Highest percentile with at least ten jobs beyond it: (ms, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1] * 1000, 100.0
    return xs[n - 11] * 1000, 100.0 * (n - 10) / n


def _per_job(rounds: List[Round]) -> List[float]:
    """Each job's median latency over the rounds, which all run the same jobs.
    On a machine whose speed drifts, the median over a run varied less from
    run to run than the least latency, which rests on whether a fast spell
    happened to fall inside the run."""
    return [statistics.median(r.records[j]["latency_s"] for r in rounds) for j in range(len(rounds[0].records))]


def _jobs_per_s(rounds: List[Round]) -> float:
    return sum(len(r.records) for r in rounds) / sum(r.job_s for r in rounds)


def _per_layer(traced: List[Round], untraced: List[Round]):
    """Counts come from the first traced round (every round runs the same
    jobs); times and shares are the median over the traced rounds."""
    aggs = [aggregate(r.spans) for r in traced]
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        if name.startswith(("layer.", "trace.")):
            continue
        vals = [a.get(name, 0.0) for a in aggs]
        out[name] = statistics.median(vals) if name.endswith("_s") else vals[0]
    out["trace.errors"] = sum(v for k, v in aggs[0].items() if k.endswith(".errors"))
    for layer in ("intmat", "core", "decomp", "oracle", "cli"):
        shares = [sum(v for k, v in a.items() if k.startswith(layer + ".") and k.endswith(".self_s")) / r.job_s
                  for a, r in zip(aggs, traced)]
        out[f"layer.{layer}.self_share"] = statistics.median(shares)
    out["trace.jobs_per_s_traced"] = _jobs_per_s(traced)
    out["trace.jobs_per_s_untraced"] = _jobs_per_s(untraced)
    out["trace.overhead"] = out["trace.jobs_per_s_untraced"] / out["trace.jobs_per_s_traced"] - 1
    return out, aggs[0]


def record_reference(workdir: Path) -> None:
    """Record the output digest of every job of every workload on the reference seed."""
    digests: Dict[str, str] = {}
    for name in joblib.WORKLOADS:
        jobs = joblib.build(name, checks.REFERENCE_SEED, workdir / name)
        jobs_file = workdir / f"{name}.json"
        jobs_file.write_text(json.dumps([j.argv for j in jobs]))
        rnd = _worker(workdir, jobs_file, name, time.monotonic() + 3600, [])
        for job, rec in zip(jobs, rnd.records):
            problem = checks.check(job, rec["status"], rec["stdout"], {})
            if problem:
                raise RuntimeError(f"{name}: {' '.join(job.argv)}: {problem}")
            digests[job.key] = checks.result_digest(json.loads(rec["stdout"]))
        print(f"{name}: {len(jobs)} jobs recorded", flush=True)
    checks.REFERENCE.write_text(
        json.dumps({"seed": checks.REFERENCE_SEED, "sha256": dict(sorted(digests.items()))}, indent=1) + "\n"
    )


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = joblib.build(workload, seed, workdir / "inputs")
    jobs_file = workdir / "jobs.json"
    jobs_file.write_text(json.dumps([j.argv for j in jobs]))
    reference = checks.load_reference()

    # Set-up: a fresh interpreter imports pcbideal.cli and loads the inputs.
    # A first probe writes the bytecode caches and is not counted; then one
    # runs before each round, so that the median spans the whole run and not
    # one moment of a machine whose speed drifts.
    def setup_probe(i: int) -> float:
        return _worker(workdir, jobs_file, f"setup{i}", deadline, ["--setup-only"]).summary["setup_s"]

    setup_probe(0)
    probes: List[float] = []
    rounds: List[Round] = []
    traced: List[Round] = []
    t_measure = time.monotonic()
    while True:
        probes.append(setup_probe(len(probes) + 1))
        tracing = trace and len(traced) < len(rounds)  # U, T, U, T, ...
        tag = f"round{len(rounds) + len(traced)}"
        if tracing:
            extra = ["--trace", str(workdir / f"{tag}.spans.json")]
            traced.append(_worker(workdir, jobs_file, tag, deadline, extra))
        else:
            rounds.append(_worker(workdir, jobs_file, tag, deadline, []))
        done = time.monotonic() - t_measure >= seconds
        if done and (not trace or traced):
            break

    attempted = failed = 0
    problems: Dict[str, str] = {}
    for rnd in rounds + traced:
        for job, rec in zip(jobs, rnd.records):
            attempted += 1
            problem = checks.check(job, rec["status"], rec["stdout"], reference)
            if problem:
                failed += 1
                problems.setdefault(" ".join(job.argv), problem)
    latencies = _per_job(rounds)
    tail_ms, tail_pct = _tail(latencies)

    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs a round, "
          f"{len(rounds)} untraced + {len(traced)} traced rounds in {time.monotonic() - t_measure:.1f} s")
    print("input sha256s: " + " ".join(sorted({j.input.sha256 for j in jobs})))
    print(f"job list sha256: {hashlib.sha256(json.dumps([j.key for j in jobs]).encode()).hexdigest()}")
    for argv, problem in sorted(problems.items())[:20]:
        print(f"FAILED {argv}: {problem}")
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted} jobs)")
    print("job seconds per round: " + " ".join(f"{r.job_s:.3f}" for r in rounds))
    print("setup ms per probe: " + " ".join(f"{1000 * t:.1f}" for t in probes))
    print(f"job_ms_tail is p{tail_pct:.2f} of {len(latencies)} jobs, each the median of {len(rounds)} rounds")

    if trace:
        metrics, full = _per_layer(traced, rounds)
        print("per-layer, all functions (first traced round): " + json.dumps(full, sort_keys=True))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(probes),
            "jobs_per_s": _jobs_per_s(rounds),
            "job_ms_p50": statistics.median(latencies) * 1000,
            "job_ms_tail": tail_ms,
            "peak_rss_mb": max(r.summary["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {checks.REFERENCE.name} from the reference seed")
    args = parser.parse_args(argv)
    if not (SRC / "pcbideal" / "cli.py").is_file() or not joblib.GOLDEN.is_dir():
        print(f"error: no pcbideal sources under {SRC} or no {joblib.GOLDEN}", file=sys.stderr)
        return 2
    if not args.record_reference and not args.workload:
        parser.error("--workload is required")
    workdir = ROOT / ".bench_work" / f"{os.getpid()}"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below
    try:
        if args.record_reference:
            record_reference(workdir)
            return 0
        return run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
