"""Generalized Boolean functions over Z_q and their phase-sequence realizations.

A generalized Boolean function (GBF) maps {0,1}^m into Z_q.  It is stored
symbolically as a normalized sum of coefficient-weighted products of
possibly complemented variables.  Literal and Term are plain named tuples
that keep what they are given; GBF alone normalises its terms.  A GBF is
evaluated only as a whole: its truth table, the length-2^m sequence of its
phases, built array-wide.  unit_values raises a primitive q-th root of
unity to them.

The mapping between a sequence index r in [0, 2^m) and an evaluation point
(r_0, ..., r_{m-1}) needs a bit-order convention.  The default is "lsb"
(r_0 is the least significant bit of r); "msb" is available for comparison.
Every routine that touches indices accepts an explicit override so the two
conventions can be tested side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

BIT_ORDERS = ("lsb", "msb")

DEFAULT_BIT_ORDER = "lsb"


def resolve_bit_order(order: str | None) -> str:
    """Explicit order if given, else DEFAULT_BIT_ORDER."""
    if order is None:
        return DEFAULT_BIT_ORDER
    if order not in BIT_ORDERS:
        raise ValueError(f"bit order must be one of {BIT_ORDERS}, got {order!r}")
    return order


class Literal(NamedTuple):
    """One variable occurrence, plain z_i or complemented (1 - z_i)."""

    var_index: int
    complemented: bool = False


def z(i: int) -> Literal:
    return Literal(i, False)


def zbar(i: int) -> Literal:
    return Literal(i, True)


class Term(NamedTuple):
    """coefficient * product of literals; an empty product is the constant 1."""

    coefficient: int
    literals: tuple[Literal, ...] = ()

    @property
    def degree(self) -> int:
        return len(self.literals)


@dataclass(frozen=True)
class GBF:
    """Function {0,1}^m -> Z_q as a normalized sum of terms.

    Normalization, done here and nowhere else: each term's literals are
    deduped (z_i z_i = z_i) and sorted, a variable outside [0, m) is
    refused, a product holding z_i and 1 - z_i drops out, like terms combine
    mod q, zero coefficients drop out, and terms sort by (degree, literal
    tuple).  Two GBFs computing the same sum of products therefore compare
    equal.
    """

    m: int
    q: int
    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"need at least one variable, got m={self.m}")
        if self.q < 2:
            raise ValueError(f"modulus must be at least 2, got q={self.q}")
        combined: dict[tuple[Literal, ...], int] = {}
        for coefficient, literals in self.terms:
            literals = tuple(sorted(set(literals)))
            variables = [var for var, _ in literals]
            if variables and not 0 <= variables[0] <= variables[-1] < self.m:
                raise ValueError(f"variables {variables} of a term out of range for m={self.m}")
            if len(set(variables)) < len(variables):
                continue  # z_i (1 - z_i) = 0
            combined[literals] = (combined.get(literals, 0) + coefficient) % self.q
        ordered = sorted(combined.items(), key=lambda kv: (len(kv[0]), kv[0]))
        object.__setattr__(self, "terms", tuple(Term(c, lits) for lits, c in ordered if c))

    @property
    def degree(self) -> int:
        return max((t.degree for t in self.terms), default=0)


def index_to_bits(r: int, m: int, order: str | None = None) -> tuple[int, ...]:
    """Bits (r_0, ..., r_{m-1}) of the index r under the given convention.

    lsb: r_0 is the least significant bit of r.
    msb: r_0 is the most significant bit.
    """
    if m < 0:
        raise ValueError(f"bit count must be nonnegative, got {m}")
    if not 0 <= r < (1 << m):
        raise ValueError(f"index {r} out of range for {m} bits")
    order = resolve_bit_order(order)
    return tuple(bit_column(r, i, m, order) for i in range(m))


def _bit_shift(var: int, m: int, order: str) -> int:
    """How far bit z_var of an m-bit index sits above its lowest bit."""
    return m - 1 - var if order == "msb" else var


def bit_column(index, var: int, m: int, order: str):
    """Bit z_var of an m-bit index, or of every index in an array of them."""
    return (index >> _bit_shift(var, m, order)) & 1


def truth_table(f: GBF, order: str | None = None, index: np.ndarray | None = None) -> np.ndarray:
    """Values of f at the m-bit indices in index, all 2^m by default.

    Returns an int64 array t with t[r] = f(index_to_bits(index[r], m,
    order)).  A term is nonzero at r exactly when r's bits under its
    literals read 1 for plain and 0 for complemented ones, one mask test, so
    the work memory is three arrays of the index's length for any m.  A q
    whose sums could overflow int64 raises ValueError before any allocation.
    """
    if f.q * max(1, len(f.terms)) >> 63:
        raise ValueError(f"modulus q = {f.q} overflows int64 with {len(f.terms)} terms")
    order = resolve_bit_order(order)
    if index is None:
        index = np.arange(1 << f.m, dtype=np.int64)
    acc = np.zeros_like(index)
    masked, hit = np.empty_like(index), np.empty(index.shape, bool)
    for coefficient, literals in f.terms:
        mask = plain = 0
        for var, complemented in literals:
            bit = 1 << _bit_shift(var, f.m, order)
            mask, plain = mask | bit, plain if complemented else plain | bit
        np.equal(np.bitwise_and(index, mask, out=masked), plain, out=hit)
        np.add(acc, coefficient, out=acc, where=hit)
    acc %= f.q
    return acc


def unit_values(q: int, phases: np.ndarray) -> np.ndarray:
    """Values omega_q^{phase} of an integer phase array, same shape.

    The package's one phase-to-value table.  For q in {1, 2} the values
    are real and come back as float64 +-1; for q = 4 they are the complex
    Gaussian integers 1, i, -1, -i.  Both are exact, not computed through
    exp(); every other modulus looks its values up in a table of exp over
    Z_q, or calls exp per phase when that table would outgrow the result.
    """
    if q <= 2:  # q = 1 phases are all 0
        return (1 - 2 * phases).astype(np.float64)
    if q == 4:
        return np.array([1 + 0j, 0 + 1j, -1 + 0j, 0 - 1j])[phases]
    if q > phases.size:
        return np.exp(2j * np.pi * phases / q)
    return np.exp(2j * np.pi * np.arange(q) / q)[phases]

