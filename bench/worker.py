"""One round of a workload in a fresh interpreter.

    python worker.py JOBS.json OUT.jsonl --budget S [--trace SPANS.json] [--setup-only]

JOBS.json is a list of argv lists for `pcb`. The worker imports
pcbideal.cli, loads every input, then calls cli.main(argv) for each job in
order, one at a time, with stdout captured. Before each job, untimed, it
runs a full garbage collection, so that the collections a job pays for
depend on that job alone and not on the jobs before it in the seeded order,
as in a `pcb` process that runs one command. It writes one JSON line per job
(latency, status, stdout) and a last line with its set-up time and peak
resident memory. A job that runs past its budget is stopped by SIGALRM and
recorded as an overrun; the round goes on with the next job.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import pcbideal  # noqa: E402
import pcbideal.cli as cli  # noqa: E402


def peak_rss_mb():
    """Peak resident memory of this process (VmHWM). Linux carries
    ru_maxrss across exec, so it would report the parent's memory at fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class JobOverrun(BaseException):
    """Raised by the budget alarm; BaseException so no handler in pcbideal swallows it."""


def _alarm(signum, frame):
    raise JobOverrun()


def load_inputs(jobs):
    for path in sorted({argv[1] for argv in jobs}):
        with open(path, "rb") as fh:
            pcbideal.validate(json.loads(fh.read())["L"])


def run_job(argv, budget):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        status = "ok" if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    except JobOverrun:
        status = f"overran its {budget:g} s budget"
    except SystemExit as exc:
        status = f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # a crash fails this job, not the round
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, status, out.getvalue()


def main(argv):
    jobs_path, out_path = argv[0], argv[1]
    budget = float(argv[argv.index("--budget") + 1])
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    load_inputs(jobs)
    setup_s = time.perf_counter() - T_START
    with open(out_path, "w") as out:
        if "--setup-only" not in argv:
            tracer = None
            if spans_path:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            signal.signal(signal.SIGALRM, _alarm)
            for job in jobs:
                latency, status, stdout = run_job(job, budget)
                out.write(json.dumps({"latency_s": latency, "status": status, "stdout": stdout}) + "\n")
            if tracer is not None:
                tracer.dump(spans_path)
        out.write(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), "pcbideal": pcbideal.__file__}) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
