"""Coefficient fields for the polynomial oracle.

Two fields are supported: the exact rationals and prime fields F_p with
p < 2**31. Field objects are stateless arithmetic providers; coefficients
are plain Fraction or int values, which keeps the inner loops cheap.

Only Q needs fractions, and importing it loads decimal and numbers too, so
this module does not import it. RationalField's zero, one, of and inv are
bound once, on their first use, as class attributes (_bind_rationals);
from then on they are ordinary attribute lookups, and Q's arithmetic makes
no import per call. A process that works only over F_p or over the
integers never loads fractions.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, exact below 3.3e24:
    3317044064679887385961981 is the least strong pseudoprime to all of them."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """Arbitrary-precision exact rationals, as fractions.Fraction values.

    zero, one, of and inv are missing until the first lookup of any of
    them, which reaches __getattr__ and binds all four (_bind_rationals)."""

    tag = "Q"

    def __getattr__(self, name):
        if name not in ("zero", "one", "of", "inv"):
            raise AttributeError(name)
        _bind_rationals()
        return getattr(self, name)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash(self.tag)

    def __repr__(self) -> str:
        return "QQ"


def _bind_rationals() -> None:
    from fractions import Fraction

    def of(n) -> Fraction:
        """n as a Fraction; n must be an int or a Fraction, so a float or a
        string raises TypeError instead of being read as a binary fraction
        or parsed."""
        return n if isinstance(n, Fraction) else Fraction(index(n))

    def inv(a) -> Fraction:
        return 1 / of(a)

    RationalField.zero = Fraction(0)
    RationalField.one = Fraction(1)
    RationalField.of = staticmethod(of)
    RationalField.inv = staticmethod(inv)


QQ = RationalField()


class PrimeField:
    """F_p with coefficients normalized to range(p)."""

    __slots__ = ("p", "tag")

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= 2**31:
            raise ValueError(f"modulus {p} out of range, need p < 2**31")
        self.p = p
        self.tag = f"F{p}"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of(self, n) -> int:
        """n modulo p; n must be an integer, so a float or a Fraction
        raises TypeError instead of being truncated."""
        return index(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)
