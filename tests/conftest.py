import itertools
import json
import random
from pathlib import Path
from typing import List, Sequence

import pytest

from pcbideal import PcbMatrix, hull, validate
from pcbideal.oracle import Ideal, Polynomial

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

# d = 1 and nu = (75, 61, 52, 63): a curve of large weights whose kernel
# once ran for minutes under the general Buchberger
LARGE_WEIGHTS = [[4, -1, -1, -2], [-2, 5, -2, -1], [-1, -2, 5, -2], [-2, -2, -1, 5]]


def load_golden(name: str) -> PcbMatrix:
    doc = json.loads((GOLDEN / name).read_text())
    return validate(doc["L"])


def golden_path(name: str) -> str:
    return str(GOLDEN / name)


def random_pcb(rng: random.Random, n: int, max_entry: int = 4) -> PcbMatrix:
    """Any choice of positive off-diagonal magnitudes gives a valid matrix
    once the diagonal absorbs the row sum."""
    rows = []
    for i in range(n):
        off = [rng.randint(1, max_entry) for _ in range(n - 1)]
        row = off[:i] + [sum(off)] + off[i:]
        rows.append([v if j == i else -v for j, v in enumerate(row)])
    return validate(rows)


def diagonal_prime_gens(P: PcbMatrix, field) -> List[Polynomial]:
    """Generators x_i - x_n of the prime fixing the all-ones point."""
    n = P.n
    last = tuple(1 if i == n - 1 else 0 for i in range(n))
    return [
        Polynomial.from_terms(
            field, n, [(1, tuple(1 if j == i else 0 for j in range(n))), (-1, last)]
        )
        for i in range(n - 1)
    ]


def _power_inside(S: Ideal, gens: Sequence[Polynomial], power: int) -> bool:
    for combo in itertools.combinations_with_replacement(gens, power):
        product = combo[0]
        for f in combo[1:]:
            product = product * f
        if not S.contains(product):
            return False
    return True


def prime_power_in_hull(P: PcbMatrix, field, power: int) -> bool:
    """Whether every product of `power` generators of the diagonal prime
    lands in the hull. Checking generator products suffices because they
    generate the ordinary power."""
    return _power_inside(hull(P, field), diagonal_prime_gens(P, field), power)


@pytest.fixture
def simplest():
    return load_golden("simplest_n4.json")


@pytest.fixture
def onecomp():
    return load_golden("onecomp_n4.json")
