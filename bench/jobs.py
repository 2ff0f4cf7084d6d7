"""Seeded job lists for the four workloads, and the facts their checks need.

Every fact here (m, d, nu, the invariant factors, the prime p) is computed
without pcbideal: weights with a fraction-free determinant written out
below, invariant factors with sympy. A job is one `pcb` command line; a
round is the whole job list of a workload, run once in a fresh process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"

# Caps on the weight sum sum(nu) of random inputs, fixed before any run.
# decompose realizes d kernels of the curve t -> (c_i t^nu_i); past these
# caps single random jobs run for seconds and swamp the round.
DECOMPOSE_NU_CAP = 12
# decompose realizes one kernel per unit of d, so random n = 3 inputs come in
# equal numbers for each of these d; each has at least 40 inputs under the cap.
# Random n = 4 inputs under the cap have d from 40 to 148, and four of them
# decided a third of a round's time, so that workload draws none.
DECOMPOSE_D_VALUES = tuple(range(3, 11))
VERIFY_FP_NU_CAP = 12
# verify --level full --field fp intersects all components in a chain whose
# cost grows with d: at d = 2, 3 a job costs 16 to 50 ms, at d = 4 25 to
# 165 ms, at d = 6 up to 0.4 s. That workload runs every n = 3 input with
# entries up to 4, d = 2 or 3 and sum(nu) <= 12 (57 besides the golden
# diag_n3), and for a longer chain the first VERIFY_FP_FIXED_PER_D such
# inputs, in enumeration order, of each d in VERIFY_FP_FIXED_D_VALUES. Every
# seed runs the same inputs; the seed sets their order. d = 1 has only six
# such inputs, and random n = 4 inputs under the weight cap have d of at
# least 22, whose chain runs for seconds.
VERIFY_FP_D_VALUES = (2, 3)
VERIFY_FP_FIXED_D_VALUES = (4, 5, 6, 8)
VERIFY_FP_FIXED_PER_D = 4

# A random n = 8 verify costs 15 to 90 ms, by how long the minor-gcd ladder
# scans before its gcd reaches 1; thirty of them put a seed-dependent number
# of such jobs at the tail, so invariants draws ten.
WORKLOADS = ("invariants", "decompose_fp", "verify_full_fp", "verify_full_q")


@dataclass(frozen=True)
class Facts:
    """Reference invariants of one input, computed outside pcbideal."""

    n: int
    m: Tuple[int, ...]
    d: int
    nu: Tuple[int, ...]
    factors: Tuple[int, ...]
    p: int
    closed_form: bool


@dataclass
class Input:
    name: str
    rows: List[List[int]]
    path: str = ""
    sha256: str = ""
    facts: Optional[Facts] = None


@dataclass
class Job:
    input: Input
    args: Tuple[str, ...]  # everything after the input path

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def argv(self) -> List[str]:
        return [self.args[0], self.input.path, *self.args[1:]]

    @property
    def key(self) -> str:
        """Identifies the job across runs: input bytes plus command line."""
        return " ".join((self.input.sha256, *self.args))


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def weights(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], int, Tuple[int, ...]]:
    """(m, d, nu): m_j is the cofactor of entry (j, n) of L, a row of adj(L)."""
    n = len(rows)
    m = tuple(
        (-1) ** (j + n - 1) * det([r[:-1] for i, r in enumerate(rows) if i != j])
        for j in range(n)
    )
    d = math.gcd(*m)
    return m, d, tuple(v // d for v in m)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def least_prime(r: int) -> int:
    """The least odd prime p with p = 1 (mod r)."""
    p = 3
    while not (is_prime(p) and (p - 1) % r == 0):
        p += 2
    return p


def facts_of(rows: List[List[int]]) -> Facts:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    n = len(rows)
    m, d, nu = weights(rows)
    D = smith_normal_form(Matrix(rows), domain=ZZ)
    factors = tuple(sorted(abs(int(D[i, i])) for i in range(n) if D[i, i] != 0))
    entry_gcd = math.gcd(*(v for r in rows for v in r))
    closed = n == 2 or (n == 3 and math.gcd(rows[2][0], rows[2][1]) == entry_gcd)
    return Facts(n, m, d, nu, factors, least_prime(factors[-1]), closed)


def complete_graph(n: int) -> List[List[int]]:
    return [[n - 1 if i == j else -1 for j in range(n)] for i in range(n)]


def pcb_rows(off_diagonal: Sequence[Sequence[int]]) -> List[List[int]]:
    """The matrix whose row i has off-diagonal magnitudes off_diagonal[i],
    with the diagonal absorbing the row sum."""
    rows = []
    for i, off in enumerate(off_diagonal):
        row = list(off[:i]) + [sum(off)] + list(off[i:])
        rows.append([v if j == i else -v for j, v in enumerate(row)])
    return rows


def random_rows(rng: random.Random, n: int, max_entry: int) -> List[List[int]]:
    """The random_pcb recipe of the test suite."""
    return pcb_rows([[rng.randint(1, max_entry) for _ in range(n - 1)] for _ in range(n)])


def golden(names: Sequence[str]) -> List[Input]:
    out = []
    for name in names:
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        out.append(Input(name, doc["L"], path=str(GOLDEN / f"{name}.json")))
    return out


def _random_inputs(
    rng: random.Random,
    n: int,
    count: int,
    max_entry: int,
    seen: set,
    nu_cap: Optional[int] = None,
    d: Optional[int] = None,
) -> List[Input]:
    """count new random inputs, with sum(nu) at most nu_cap and torsion
    order exactly d when these are given."""
    out = []
    for _ in range(200_000):
        if len(out) == count:
            return out
        rows = random_rows(rng, n, max_entry)
        key = tuple(map(tuple, rows))
        if key in seen:
            continue
        if nu_cap is not None or d is not None:
            _, torsion, nu = weights(rows)
            if (nu_cap is not None and sum(nu) > nu_cap) or (d is not None and torsion != d):
                continue
        seen.add(key)
        out.append(Input(f"random_n{n}_{len(seen)}", rows))
    raise RuntimeError(f"found only {len(out)} of {count} random n = {n} inputs under the caps")


def _enumerated(n: int, max_entry: int, seen: set, nu_cap: int) -> List[Tuple[Input, int]]:
    """Every input random_rows can draw with sum(nu) <= nu_cap, with its d,
    in a fixed order."""
    out = []
    for offs in itertools.product(range(1, max_entry + 1), repeat=n * (n - 1)):
        rows = pcb_rows([offs[i * (n - 1):(i + 1) * (n - 1)] for i in range(n)])
        key = tuple(map(tuple, rows))
        _, d, nu = weights(rows)
        if key not in seen and sum(nu) <= nu_cap:
            seen.add(key)
            out.append((Input(f"every_n{n}_{len(seen)}", rows), d))
    return out


def _inputs(name: str, rng: random.Random) -> Tuple[List[Input], List[Tuple[str, ...]]]:
    """The inputs of a workload and the command each of them runs."""
    if name == "invariants":
        inputs = [Input(f"K{n}", complete_graph(n)) for n in range(4, 10)]
        seen = {tuple(map(tuple, i.rows)) for i in inputs}
        for n in range(4, 9):
            inputs += _random_inputs(rng, n, 10 if n == 8 else 30, 9, seen)
        return inputs, [("analyze",), ("snf",), ("verify",)]
    if name == "decompose_fp":
        inputs = golden(["diag_n3", "diag_n5", "n3_doubled", "n3_mixed", "onecomp_n4", "simplest_n4"])
        seen = {tuple(map(tuple, i.rows)) for i in inputs}
        for d in DECOMPOSE_D_VALUES:
            inputs += _random_inputs(rng, 3, 20, 4, seen, nu_cap=DECOMPOSE_NU_CAP, d=d)
        return inputs, [("decompose", "--field", "fp:{p}")]
    if name == "verify_full_fp":
        # diag_n5 is left out: its prime-field chain runs past 300 s.
        inputs = golden(["diag_n3", "n3_doubled", "n3_mixed", "onecomp_n4", "simplest_n4"])
        seen = {tuple(map(tuple, i.rows)) for i in inputs}
        pool = _enumerated(3, 4, seen, VERIFY_FP_NU_CAP)
        inputs += [inp for inp, d in pool if d in VERIFY_FP_D_VALUES]
        for fixed_d in VERIFY_FP_FIXED_D_VALUES:
            inputs += [inp for inp, d in pool if d == fixed_d][:VERIFY_FP_FIXED_PER_D]
        return inputs, [("verify", "--level", "full", "--field", "fp:{p}")]
    if name == "verify_full_q":
        inputs = golden(["diag_n3", "diag_n5", "n3_doubled", "n3_mixed", "onecomp_n4", "simplest_n4"])
        seen = {tuple(map(tuple, i.rows)) for i in inputs}
        inputs += _random_inputs(rng, 3, 60, 4, seen)
        inputs += _random_inputs(rng, 4, 4, 2, seen)
        return inputs, [("verify", "--level", "full")]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def build(name: str, seed: int, workdir: Path) -> List[Job]:
    """The job list of one round; random inputs are written under workdir."""
    rng = random.Random(f"{name}:{seed}")
    inputs, commands = _inputs(name, rng)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for inp in inputs:
        if not inp.path:
            inp.path = str(workdir / f"{inp.name}.json")
            Path(inp.path).write_text(json.dumps({"n": len(inp.rows), "L": inp.rows}))
        inp.sha256 = hashlib.sha256(Path(inp.path).read_bytes()).hexdigest()
        inp.facts = facts_of(inp.rows)
        for cmd in commands:
            jobs.append(Job(inp, tuple(a.format(p=inp.facts.p) for a in cmd)))
    rng.shuffle(jobs)
    return jobs
