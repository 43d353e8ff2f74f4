"""Coefficient fields: prime fields GF(p) and the rationals."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotPrime, ParameterOutOfRange


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """p is the characteristic; None selects the rationals."""

    p: Optional[int] = 2

    def __post_init__(self):
        if self.p is None:
            return
        if not 2 <= self.p < 2 ** 31:
            raise ParameterOutOfRange(f"characteristic {self.p} out of range")
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"


def parse_field(text: str) -> FieldSpec:
    t = text.strip().lower()
    if t == "q":
        return FieldSpec(None)
    if t.startswith("gf:"):
        try:
            return FieldSpec(int(t[3:]))
        except ValueError:
            raise ParameterOutOfRange(f"bad field spec {text!r}") from None
    raise ParameterOutOfRange(f"bad field spec {text!r} (want 'q' or 'gf:P')")


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
RATIONALS = FieldSpec(None)
