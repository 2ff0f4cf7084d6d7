"""Output checks that do not trust pcbideal.

Each `pcb` output is compared against facts computed in jobs.py (sympy and a
local determinant), against the checks a `verify` run must report, and,
where one was recorded, against the sha256 of the same job's result payload
on the reference seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from jobs import Facts, Job

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0


def identity_checks(f: Facts) -> List[str]:
    names = [
        "adjugate rows equal and positive",
        "syzygy identity expands to zero",
        "generators homogeneous under the weight vector",
        "transforms reproduce the diagonal",
        "transforms unimodular",
        "divisibility chain",
        "minor gcds match the invariant factors",
        "last transform row equals the weight vector",
        "torsion order equals the weight gcd",
    ]
    if f.n >= 4:
        names.append("witness identity expands to zero")
    if f.closed_form:
        names.append("closed-form diagonal agrees")
    return names


def full_checks(f: Facts) -> List[str]:
    names = [
        "colon by x^{b(n)} agrees from I and from J",
        "saturation by x_1 agrees with the colon",
        "unmixed exactly when n <= 3",
        "hull basis is lattice binomials killed by the weights",
    ]
    if f.n >= 4:
        names += [
            "witness sits in the colon but not the ideal",
            "embedded component verified",
            "hull meets embedded component in the ideal",
        ]
    return names


def chain_checks(f: Facts) -> List[str]:
    k = f.d + (f.n >= 4)
    names = ["intersection of all components equals the ideal", f"component count is {k}"]
    if k > 1:
        names.append("every component is irredundant")
    return names


def expected_checks(job: Job) -> List[str]:
    f = job.input.facts
    names = identity_checks(f)
    if "full" in job.args:
        names += full_checks(f)
        if any(a.startswith("fp:") for a in job.args):
            names += chain_checks(f)
    return names


def result_digest(envelope: Dict) -> str:
    """sha256 of the output envelope's result payload (elapsed_ms and the
    version sit outside it)."""
    return hashlib.sha256(json.dumps(envelope["result"], sort_keys=True).encode()).hexdigest()


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _check_result(job: Job, res: Dict) -> Optional[str]:
    f = job.input.facts
    cmd = job.command
    if cmd == "analyze":
        got = (res["n"], tuple(res["m"]), res["d"], tuple(res["nu"]), tuple(res["invariant_factors"]))
        if got != (f.n, f.m, f.d, f.nu, f.factors):
            return f"analyze gave (n, m, d, nu, factors) = {got}, expected {(f.n, f.m, f.d, f.nu, f.factors)}"
        if res["counts"]["isolated"] != f.d or res["counts"]["embedded"] != int(f.n >= 4):
            return f"analyze counts {res['counts']} disagree with d = {f.d}, n = {f.n}"
    elif cmd == "snf":
        if tuple(res["invariant_factors"]) != f.factors or tuple(res["nu"]) != f.nu:
            return f"snf factors {res['invariant_factors']} / nu {res['nu']} disagree with {f.factors} / {f.nu}"
        diag = [res["D"][i][i] for i in range(f.n)]
        if diag != list(f.factors) + [0] or tuple(res["P"][-1]) != f.nu:
            return "snf diagonal or last row of P is wrong"
        if _matmul(_matmul(res["P"], job.input.rows), res["Q"]) != res["D"]:
            return "snf transforms do not satisfy P L Q = D"
    elif cmd == "decompose":
        if res["p"] != f.p or res["counts"]["isolated"] != f.d or len(res["components"]) != f.d:
            return f"decompose gave {len(res['components'])} components over F_{res['p']}, expected d = {f.d} over F_{f.p}"
        if (res["embedded"] is not None) != (f.n >= 4):
            return f"decompose embedded component {'missing' if f.n >= 4 else 'unexpected'} for n = {f.n}"
    elif cmd == "verify":
        names = {c["name"]: c["ok"] for c in res["checks"]}
        missing = [name for name in expected_checks(job) if name not in names]
        failed = [name for name, ok in names.items() if not ok]
        if missing or failed or res["ok"] is not True:
            return f"verify ok = {res['ok']}, missing checks {missing}, failed checks {failed}"
    return None


def check(job: Job, status: str, stdout: str, reference: Dict[str, str]) -> Optional[str]:
    """None when the job's output is right, otherwise what is wrong."""
    if status != "ok":
        return status
    try:
        envelope = json.loads(stdout)
        if envelope["command"] != job.command or envelope["input"]["sha256"] != job.input.sha256:
            return "envelope names another command or input"
        problem = _check_result(job, envelope["result"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    if problem:
        return problem
    want = reference.get(job.key)
    if want is not None and result_digest(envelope) != want:
        return "output differs from the reference recorded for this job"
    return None


def load_reference() -> Dict[str, str]:
    return json.loads(REFERENCE.read_text())["sha256"]
