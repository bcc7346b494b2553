"""Generalized Boolean functions over Z_q and their phase-sequence realizations.

A generalized Boolean function (GBF) maps {0,1}^m into Z_q.  It is stored
symbolically as a sum of coefficient-weighted products of possibly
complemented variables, so that complement substitutions stay exact and
inspectable.  A GBF is realized as a length-2^m sequence of phases, its
truth table; unit_values raises a primitive q-th root of unity to them.

The mapping between a sequence index r in [0, 2^m) and an evaluation point
(r_0, ..., r_{m-1}) needs a bit-order convention.  The default is "lsb"
(r_0 is the least significant bit of r); "msb" is available for comparison.
Every routine that touches indices accepts an explicit override so the two
conventions can be tested side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, order=True)
class Literal:
    """One variable occurrence, plain z_i or complemented (1 - z_i)."""

    var_index: int
    complemented: bool = False

    def __post_init__(self) -> None:
        if self.var_index < 0:
            raise ValueError(f"variable index must be nonnegative, got {self.var_index}")

    def complement(self) -> "Literal":
        return Literal(self.var_index, not self.complemented)


def z(i: int) -> Literal:
    return Literal(i, False)


def zbar(i: int) -> Literal:
    return Literal(i, True)


@dataclass(frozen=True)
class Term:
    """coefficient * product of literals; an empty product is the constant 1."""

    coefficient: int
    literals: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        # z_i * z_i == z_i, so duplicates collapse; order is canonical.
        object.__setattr__(self, "literals", tuple(sorted(set(self.literals))))

    @property
    def degree(self) -> int:
        return len(self.literals)

    def is_always_zero(self) -> bool:
        """True when the product contains both z_i and its complement."""
        plain = {l.var_index for l in self.literals if not l.complemented}
        comp = {l.var_index for l in self.literals if l.complemented}
        return bool(plain & comp)

    def evaluate(self, point: tuple[int, ...]) -> int:
        val = self.coefficient
        for lit in self.literals:
            b = point[lit.var_index]
            val *= (1 - b) if lit.complemented else b
        return val


@dataclass(frozen=True)
class GBF:
    """Function {0,1}^m -> Z_q as a normalized sum of terms.

    Normalization: like terms combine, coefficients reduce mod q, zero
    coefficients and always-zero products drop out, and terms sort by
    (degree, literal tuple).  Two GBFs computing the same sum of products
    therefore compare equal.
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
        for t in self.terms:
            if t.is_always_zero():
                continue
            for lit in t.literals:
                if lit.var_index >= self.m:
                    raise ValueError(
                        f"literal z_{lit.var_index} out of range for m={self.m}"
                    )
            combined[t.literals] = (combined.get(t.literals, 0) + t.coefficient) % self.q
        normalized = tuple(
            Term(c, lits)
            for lits, c in sorted(combined.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if c != 0
        )
        object.__setattr__(self, "terms", normalized)

    @classmethod
    def zero(cls, m: int, q: int) -> "GBF":
        return cls(m, q, ())

    @classmethod
    def constant(cls, m: int, q: int, c: int) -> "GBF":
        return cls(m, q, (Term(c),))

    def __add__(self, other: "GBF") -> "GBF":
        if not isinstance(other, GBF):
            return NotImplemented
        if (self.m, self.q) != (other.m, other.q):
            raise ValueError(
                f"cannot add GBFs over different domains: "
                f"(m={self.m}, q={self.q}) vs (m={other.m}, q={other.q})"
            )
        return GBF(self.m, self.q, self.terms + other.terms)

    def scale(self, factor: int) -> "GBF":
        return GBF(self.m, self.q, tuple(Term(factor * t.coefficient, t.literals) for t in self.terms))

    @property
    def degree(self) -> int:
        return max((t.degree for t in self.terms), default=0)

    def evaluate(self, point: tuple[int, ...]) -> int:
        return eval_gbf(self, point)


def eval_gbf(f: GBF, point: tuple[int, ...]) -> int:
    """Evaluate f at one point of {0,1}^m; result lies in [0, q)."""
    if len(point) != f.m:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.m}")
    for b in point:
        if b not in (0, 1):
            raise ValueError(f"point coordinates must be 0 or 1, got {b!r}")
    return sum(t.evaluate(tuple(point)) for t in f.terms) % f.q


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
    if order == "lsb":
        return tuple((r >> i) & 1 for i in range(m))
    return tuple((r >> (m - 1 - i)) & 1 for i in range(m))


def bits_to_index(bits: tuple[int, ...], order: str | None = None) -> int:
    """Inverse of index_to_bits."""
    order = resolve_bit_order(order)
    r = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        shift = i if order == "lsb" else len(bits) - 1 - i
        r |= b << shift
    return r


def bit_column(index: np.ndarray, var: int, m: int, order: str) -> np.ndarray:
    """Bit z_var of every index in an array of m-bit indices, under order."""
    return (index >> (m - 1 - var if order == "msb" else var)) & 1


def truth_table(f: GBF, order: str | None = None) -> np.ndarray:
    """All 2^m values of f, indexed by the bit-order convention.

    Returns an int64 array t with t[r] = f(index_to_bits(r, m, order)).
    Each literal's bit column is shifted out of one index array into a
    reused buffer, so the work memory is four length-2^m arrays for any m.
    """
    msb = resolve_bit_order(order) == "msb"
    index = np.arange(1 << f.m, dtype=np.int64)
    acc = np.zeros_like(index)
    prod, bit = np.empty_like(index), np.empty_like(index)
    for t in f.terms:
        prod.fill(t.coefficient)
        for lit in t.literals:
            np.right_shift(index, f.m - 1 - lit.var_index if msb else lit.var_index, out=bit)
            bit &= 1
            if lit.complemented:
                bit ^= 1
            prod *= bit
        acc += prod
    acc %= f.q
    return acc


def unit_values(q: int, phases: np.ndarray) -> np.ndarray:
    """Values omega_q^{phase} of an integer phase array, same shape.

    The package's one phase-to-value table.  For q in {1, 2} the values
    are real and come back as float64 +-1; for q = 4 they are the complex
    Gaussian integers 1, i, -1, -i.  Both are exact, not computed through
    exp(); every other modulus uses exp.
    """
    if q == 1:
        return np.ones(phases.shape)
    if q == 2:
        return (1 - 2 * phases).astype(np.float64)
    if q == 4:
        return np.array([1 + 0j, 0 + 1j, -1 + 0j, 0 - 1j])[phases]
    return np.exp(2j * np.pi * phases / q)


def substitute_complement(f: GBF) -> GBF:
    """Replace every z_i by 1 - z_i and vice versa, symbolically.

    Constants are untouched.  Applying twice gives back the original.
    """
    return GBF(
        f.m,
        f.q,
        tuple(Term(t.coefficient, tuple(l.complement() for l in t.literals)) for t in f.terms),
    )
