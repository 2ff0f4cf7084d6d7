"""Monomial orders.

Each order turns an exponent tuple into a sort key; a larger key means a
larger monomial. Keys produced by one order are mutually comparable for any
number of variables, which is all the Buchberger engine needs.
"""

from __future__ import annotations

from operator import neg
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


LEX = Lex()
DEGREVLEX = DegRevLex()
