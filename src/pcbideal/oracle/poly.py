"""Sparse multivariate polynomials over an exact coefficient field.

A polynomial is a mapping from exponent tuples to nonzero coefficients.
Instances are immutable by convention; arithmetic returns fresh objects.
"""

from __future__ import annotations

from operator import index
from typing import Dict, Iterable, Sequence, Tuple

from .field import QQ
from .order import MonomialOrder


class Polynomial:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: Dict[Tuple[int, ...], object]):
        self.field = field
        self.nvars = nvars
        self.terms = terms

    # construction helpers

    @classmethod
    def zero(cls, field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars: int, value) -> "Polynomial":
        c = field.of(value)
        if c == field.zero:
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, field, nvars: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        exps = tuple(map(index, exps))
        if len(exps) != nvars:
            raise ValueError("exponent vector length does not match nvars")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        c = field.of(coeff)
        if c == field.zero:
            return cls.zero(field, nvars)
        return cls(field, nvars, {exps: c})

    @classmethod
    def variable(cls, field, nvars: int, index: int) -> "Polynomial":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {exps: field.one})

    @classmethod
    def from_terms(cls, field, nvars: int, items: Iterable[Tuple[object, Sequence[int]]]) -> "Polynomial":
        terms: Dict[Tuple[int, ...], object] = {}
        zero = field.zero
        for coeff, exps in items:
            exps = tuple(map(index, exps))
            if len(exps) != nvars:
                raise ValueError("exponent vector length does not match nvars")
            c = field.add(terms.get(exps, zero), field.of(coeff))
            if c == zero:
                terms.pop(exps, None)
            else:
                terms[exps] = c
        return cls(field, nvars, terms)

    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def leading_term(self, order: MonomialOrder) -> Tuple[Tuple[int, ...], object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # arithmetic

    def _check_ring(self, other: "Polynomial") -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        field = self.field
        zero = field.zero
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(terms.get(e, zero), c)
            if s == zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(field, self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        neg = self.field.neg
        return Polynomial(self.field, self.nvars, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        field = self.field
        zero = field.zero
        terms: Dict[Tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = field.add(terms.get(e, zero), field.mul(c1, c2))
                if s == zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Polynomial(field, self.nvars, terms)

    def scale(self, coeff) -> "Polynomial":
        field = self.field
        c = field.of(coeff)
        if c == field.zero:
            return Polynomial.zero(field, self.nvars)
        return Polynomial(field, self.nvars, {e: field.mul(v, c) for e, v in self.terms.items()})

    def monic(self, order: MonomialOrder) -> "Polynomial":
        _, lc = self.leading_term(order)
        if lc == self.field.one:
            return self
        return self.scale(self.field.inv(lc))

    def substitute_powers(self, weights: Sequence[int]) -> "Polynomial":
        """Image under x_i -> t^{weights[i]}, as a univariate polynomial."""
        if len(weights) != self.nvars:
            raise ValueError("weight vector length does not match nvars")
        out: Dict[Tuple[int, ...], object] = {}
        field = self.field
        zero = field.zero
        for e, c in self.terms.items():
            w = (sum(a * b for a, b in zip(weights, e)),)
            s = field.add(out.get(w, zero), c)
            if s == zero:
                out.pop(w, None)
            else:
                out[w] = s
        return Polynomial(field, 1, out)

    def __repr__(self) -> str:
        from .order import DEGREVLEX

        return f"Polynomial({render(self, DEGREVLEX)!r})"


def render(f: Polynomial, order: MonomialOrder) -> str:
    """Canonical one-line form: field tag, then signed terms in descending order."""
    if not f.terms:
        return f"{f.field.tag}| 0"
    parts = []
    for e in sorted(f.terms, key=order.key, reverse=True):
        c = str(f.terms[e])
        if not c.startswith("-"):
            c = "+" + c
        parts.append(f"{c} [{','.join(str(v) for v in e)}]")
    return f"{f.field.tag}| " + " ".join(parts)
