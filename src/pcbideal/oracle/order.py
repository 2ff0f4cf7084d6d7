"""Monomial orders.

Each order turns an exponent tuple into a sort key; a larger key means a
larger monomial. Keys produced by one order are mutually comparable for any
number of variables, which is all the Buchberger engine needs.
"""

from __future__ import annotations

from operator import index, mul, neg
from typing import Sequence


class MonomialOrder:
    label: str = "?"

    def key(self, exps: Sequence[int]):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self.label == other.label

    def __hash__(self) -> int:
        return hash(self.label)

    def __repr__(self) -> str:
        return self.label


class Lex(MonomialOrder):
    label = "lex"

    def key(self, exps):
        return tuple(exps)


class DegRevLex(MonomialOrder):
    """Total degree first; ties go to the smaller last nonzero difference."""

    label = "degrevlex"

    def key(self, exps):
        return (sum(exps), tuple(map(neg, reversed(exps))))


class BlockElimination(MonomialOrder):
    """Eliminates the first `block` variables: lex on them, degrevlex after.

    Any monomial touching the leading block outranks every monomial that
    stays out of it, which is what makes elimination by intersection with
    the tail subring work.
    """

    def __init__(self, block: int):
        if block < 1:
            raise ValueError("elimination block must have at least one variable")
        self.block = block
        self.label = f"elim({block})"

    def key(self, exps):
        head = tuple(exps[: self.block])
        tail = exps[self.block :]
        return (head, (sum(tail), tuple(map(neg, reversed(tail)))))


class WeightedRevLex(MonomialOrder):
    """Weighted degree w.e first; ties go to reverse lex with x_last the
    smallest variable: less x_last wins, then the smaller last nonzero
    difference over the other variables, as in degrevlex.

    The weights must be positive, so each degree holds finitely many
    monomials and the order is a well-order. For a polynomial homogeneous
    for w, the leading monomial therefore has the least x_last-exponent of
    its terms, which is what colon and saturation by a monomial use (see
    oracle.ideal.colon).
    """

    def __init__(self, weights: Sequence[int], last: int):
        self.weights = tuple(map(index, weights))
        if not self.weights or min(self.weights) <= 0:
            raise ValueError("weights must be positive")
        if not 0 <= last < len(self.weights):
            raise ValueError("the last variable is out of range")
        self.label = f"wrevlex({','.join(map(str, self.weights))};{last})"
        self._revlex = (last,) + tuple(i for i in reversed(range(len(self.weights))) if i != last)

    def key(self, exps):
        return (sum(map(mul, self.weights, exps)), tuple(map(neg, map(exps.__getitem__, self._revlex))))


LEX = Lex()
DEGREVLEX = DegRevLex()
