"""Exact scalars over the rationals and over prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always stored reduced with positive denominator) and canonical residues in
``range(p)`` over a prime field.  A :class:`FieldSpec` names the field, reads
and writes its scalars and carries their arithmetic; the linear algebra of
:mod:`hopflab.linalg` computes on plain numbers and reduces each result into
the field by its characteristic.  There is no floating point anywhere; every
comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError

Scalar = Union[Fraction, int]

RATIONALS = "Q"
PRIME_FIELD = "Fp"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Base field: the rationals (characteristic 0) or F_p (p prime)."""

    kind: str
    characteristic: int = 0

    def __post_init__(self) -> None:
        if self.kind == RATIONALS:
            if self.characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        elif self.kind == PRIME_FIELD:
            if not is_prime(self.characteristic):
                raise ValueError(
                    f"prime field needs a prime characteristic, got {self.characteristic}"
                )
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(RATIONALS, 0)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(PRIME_FIELD, p)

    @property
    def is_rational(self) -> bool:
        return self.kind == RATIONALS

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.is_rational else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.is_rational else 1

    def coerce(self, x) -> Scalar:
        """Normalize ``x`` (int, str, Fraction) to a canonical scalar."""
        if self.is_rational:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, (int, str)):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, Fraction):
            if x.denominator % self.characteristic == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.characteristic}")
            x = x.numerator * pow(x.denominator, -1, self.characteristic)
        if not isinstance(x, int):
            raise TypeError(f"cannot coerce {x!r} into F_{self.characteristic}")
        return x % self.characteristic

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        s = a + b
        return s if self.is_rational else s % self.characteristic

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        s = a - b
        return s if self.is_rational else s % self.characteristic

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        s = a * b
        return s if self.is_rational else s % self.characteristic

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.is_rational else (-a) % self.characteristic

    def inv(self, a: Scalar) -> Scalar:
        if self.is_rational:
            return 1 / Fraction(a)
        return pow(a, -1, self.characteristic)

    def scalar_to_json(self, a: Scalar):
        """Rationals go out as reduced strings "a/b" (or "a"), residues as ints."""
        return str(a) if self.is_rational else int(a)

    def scalar_from_json(self, x) -> Scalar:
        return self.coerce(x)

    def to_json(self) -> dict:
        if self.is_rational:
            return {"kind": "Q"}
        return {"kind": "Fp", "p": self.characteristic}

    @staticmethod
    def from_json(data: dict) -> "FieldSpec":
        from .serialize import _read

        if data["kind"] == "Q":
            return FieldSpec.rationals()
        if data["kind"] == "Fp":
            return FieldSpec.prime(_read(data["p"], "field p"))
        raise ValueError(f"unknown field kind {data['kind']!r}")

    def __str__(self) -> str:
        return "Q" if self.is_rational else f"F{self.characteristic}"


def same_field(*fields: FieldSpec) -> FieldSpec:
    """Return the common field of the arguments, or raise FieldMismatchError."""
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise FieldMismatchError(f"field mismatch: {first} vs {f}")
    return first
