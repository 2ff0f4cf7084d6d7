"""Print what one `pcb` process costs to start: for a bare interpreter, for
`import pcbideal.cli` alone and for each plain command on a golden input,
the median peak resident memory (VmHWM), the median time to import
pcbideal.cli and run the command, and the `pcbideal` modules it loaded.

    python3 tools/import_footprint.py [--runs 8] [--golden simplest_n4.json]

Each row runs --runs fresh interpreters as `python -S -B -c PROBE`: no
site start-up (which adds a .pth file's imports on some installs) and no
bytecode written, so that with no __pycache__ under src/ every run
compiles the package from source, as a process with
PYTHONDONTWRITEBYTECODE=1 does. The probe times the import and the
command with time.perf_counter, discards the command's stdout, and reads
VmHWM from /proc/self/status (ru_maxrss where there is no /proc). The
median time is in milliseconds and the memory in MB (10^6 bytes).
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the command, before the input path, and its options after it
COMMANDS = [
    ("analyze", ()),
    ("snf", ()),
    ("verify", ()),
    ("verify", ("--level", "full", "--field", "fp:5")),
    ("verify", ("--level", "full")),
    ("decompose", ("--field", "fp:5")),
    ("analyze", ("--pretty",)),
]

PROBE = """
import json, os, sys, time
argv = sys.argv[1:]
t0 = time.perf_counter()
if argv != ["bare"]:
    import pcbideal.cli
    if argv:
        out, sys.stdout = sys.stdout, open(os.devnull, "w")
        code = pcbideal.cli.main(argv)
        sys.stdout = out
        if code:
            sys.exit(code)
ms = (time.perf_counter() - t0) * 1000
try:
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    import resource
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
modules = sorted(m for m in sys.modules if m.split(".")[0] == "pcbideal")
print(json.dumps([ms, kb * 1024 / 1e6, modules]))
"""


def measure(argv, runs: int):
    """Median ms and MB over `runs` fresh probes of argv, and the modules of the last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-S", "-B", "-c", PROBE, *argv], env=env, capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"{' '.join(argv)}: exit {done.returncode}\n{done.stderr}")
        samples.append(json.loads(done.stdout))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples), samples[-1][2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=8, help="fresh interpreters per row (default 8)")
    parser.add_argument("--golden", default="simplest_n4.json", help="input under golden/ (default simplest_n4.json)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    path = str(ROOT / "golden" / args.golden)
    rows = [("bare interpreter", ["bare"]), ("import pcbideal.cli", [])]
    rows += [(" ".join((command, args.golden, *options)), [command, path, *options]) for command, options in COMMANDS]
    if list(SRC.rglob("__pycache__")):
        print("note: __pycache__ under src/ holds bytecode, so the package is not compiled from source", file=sys.stderr)
    print(f"{sys.version.split()[0]}, python -S -B, median of {args.runs} fresh processes per row")
    print(f"{'VmHWM MB':>9} {'ms':>7}  row; pcbideal modules loaded")
    for label, argv in rows:
        ms, mb, modules = measure(argv, args.runs)
        names = ", ".join(m.removeprefix("pcbideal.") for m in modules if m != "pcbideal") or "-"
        print(f"{mb:9.2f} {ms:7.1f}  {label}; {names}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
