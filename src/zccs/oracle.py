"""Independent regeneration of code sets from their provenance records.

Everything here is deliberately naive and self-contained: bits come from
shifts, row functions are evaluated pointwise in nested arithmetic form,
and codes are assembled as nested lists with plain loops, wrapped into a
CodeSet only at the end.  No truth-table vectorization, no symbolic term
algebra, no assembly code shared with the generators.  Exact agreement
between this path and the fast one is a strong check on both.

Within one call the oracle does each distinct piece of pointwise work once.
Every row function is the seed function plus linear terms on the deleted
vertices and on the pair end (beta1 for the q-ary family), so

- the seed is evaluated once per point, at the point for the front tables
  (g, f) and at its complement for the back tables (s, h), instead of once
  per (n, row) and point;
- the linear coefficients (q/2)(a[pos] + n[pos]) matter only mod q, so for
  even q the 2^(2k+1) (n, row) pairs share 2^(k+1) distinct row functions.
  Each function's tables are evaluated point by point once and shared by
  every row with that function.

These caches live in local variables and are rebuilt from the provenance on
every call; nothing is kept between calls.  The oracle therefore stays an
independent check: it evaluates the seed in nested arithmetic form at every
point and adds the linear terms point by point, where the generators add
label-matrix offsets to one vectorized truth table and reverse it for the
partners.
"""

from __future__ import annotations

import copy

import numpy as np

from .constructions import CodeSet

_BINARY_FIELDS = ("m1", "quadratic", "d_vec", "d", "deleted", "beta1", "pair_end")
_QARY_FIELDS = ("q", "m2", "f_terms", "deleted", "beta1")
_CHAIN_FIELDS = ("l", "R", "s_r")


def _bits(value: int, width: int, order: str) -> list[int]:
    if order == "lsb":
        return [(value >> i) & 1 for i in range(width)]
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def _row_label(index: int, width: int) -> list[int]:
    # Row labels enumerate with the leftmost coordinate slowest.  This is a
    # fixed ordering convention, not tied to the index bit convention.
    return [(index >> (width - 1 - pos)) & 1 for pos in range(width)]


# ---------------------------------------------------------------------------
# row functions, both families


def _front_phase(q: int, seed: int, point: list[int], deleted, coeffs, end_vertex: int, end: int) -> int:
    """g (binary) or f (q-ary) at one point: the seed's value there plus
    the row's linear terms on the deleted vertices and the pair end."""
    total = seed
    for c, vertex in zip(coeffs, deleted):
        total += c * point[vertex]
    total += (q // 2) * end * point[end_vertex]
    return total % q


def _back_phase(q: int, seed_c: int, point: list[int], deleted, coeffs, end_vertex: int, end: int) -> int:
    """s (binary) or h (q-ary) at one point: the seed's value at the
    complemented point plus the row's complemented linear terms."""
    total = seed_c
    for c, vertex in zip(coeffs, deleted):
        total += c * (1 - point[vertex])
    total += (q // 2) * (1 - end) * point[end_vertex]
    return total % q


def _row_tables(doc: dict, order: str, q: int, m: int, seed_eval, end_vertex: int, front_at, back_at):
    """Front tables over the indices front_at and back tables over back_at,
    nested [n][row].

    Row (n, a) adds (q/2)(a[pos] + n[pos]) times deleted vertex pos, and a
    pair-end term picked by a[-1].  Those coefficients mod q and a[-1] key
    the memo of (front, back) table pairs, so rows with the same function
    share one pair of lists.
    """
    half = q // 2
    deleted = doc["deleted"]
    k = len(deleted)
    front_points = [_bits(t, m, order) for t in front_at]
    back_points = [_bits(t, m, order) for t in back_at]
    front_seed = [seed_eval(doc, p) for p in front_points]
    back_seed = [seed_eval(doc, [1 - b for b in p]) for p in back_points]
    memo = {}
    fronts, backs = [], []
    for n in range(1 << k):
        nb = _bits(n, k, order)
        fn, bn = [], []
        for row in range(1 << (k + 1)):
            a = _row_label(row, k + 1)
            key = (tuple(half * (a[pos] + nb[pos]) % q for pos in range(k)), a[-1])
            if key not in memo:
                coeffs, end = key
                memo[key] = (
                    [
                        _front_phase(q, s, p, deleted, coeffs, end_vertex, end)
                        for s, p in zip(front_seed, front_points)
                    ],
                    [
                        _back_phase(q, s, p, deleted, coeffs, end_vertex, end)
                        for s, p in zip(back_seed, back_points)
                    ],
                )
            front, back = memo[key]
            fn.append(front)
            bn.append(back)
        fronts.append(fn)
        backs.append(bn)
    return fronts, backs


# ---------------------------------------------------------------------------
# binary family


def _seed_eval(doc: dict, point: list[int]) -> int:
    """The binary seed function at one point, patches kept in nested form."""
    m1 = doc["m1"]
    total = doc["d"]
    for i, j, w in doc["quadratic"]:
        total += w * point[i] * point[j]
    for i, di in enumerate(doc["d_vec"]):
        total += di * point[i]
    v1, v2, v3, v4 = m1 - 1, m1 - 2, m1 - 3, m1 - 4
    b1 = doc["beta1"]
    t = point
    alpha = (1 - t[v1]) * ((1 - t[v4]) * (t[v3] + t[v2]) + t[v2] * t[v3])
    beta = t[b1] * (
        (1 - t[v1]) * (t[v2] * (1 - t[v3]) * (1 - t[v4]) + t[v2] * t[v3])
        + t[v1] * (1 - t[v2]) * (1 - t[v3])
    )
    return total + alpha + beta


def _binary_row_tables(doc: dict, order: str):
    """Per (n, row): the prefix phases of g and suffix phases of s."""
    m1 = doc["m1"]
    gamma = (1 << (m1 - 1)) + (1 << (m1 - 3))
    full = 1 << m1
    fronts, backs = _row_tables(
        doc, order, 2, m1, _seed_eval, doc["pair_end"], range(gamma), range(full - gamma, full)
    )
    return gamma, fronts, backs


# ---------------------------------------------------------------------------
# q-ary family


def _terms_eval(doc: dict, point: list[int]) -> int:
    total = 0
    for term in doc["f_terms"]:
        prod = term["coefficient"]
        for var, complemented in term["literals"]:
            prod *= (1 - point[var]) if complemented else point[var]
        total += prod
    return total


def _qary_row_tables(doc: dict, order: str):
    """Per (n, row): the phases of f and of its partner h."""
    length = 1 << doc["m2"]
    points = range(length)
    fronts, backs = _row_tables(doc, order, doc["q"], doc["m2"], _terms_eval, doc["beta1"], points, points)
    return length, fronts, backs


# ---------------------------------------------------------------------------
# assembly


def _parity(c: list[int], block: int, l: int, order: str) -> int:
    rb = _bits(block, l, order)
    return sum(ci * bi for ci, bi in zip(c, rb)) % 2


def _chain(q: int, fronts, backs, flips: list[list[int]]) -> list:
    """Codes as nested lists: for each n and each flip pattern, the front
    rows repeated once per block, block b shifted by q/2 when flips[b] is
    1; then the conjugates of the same patterns over the back rows."""
    half = q // 2
    front, back = [], []
    for n in range(len(fronts)):
        for pattern in flips:
            front.append([[(p + half * f) % q for f in pattern for p in row] for row in fronts[n]])
            back.append([[(-(p + half * f)) % q for f in pattern for p in row] for row in backs[n]])
    return front + back


def oracle_regenerate(code_set: CodeSet) -> CodeSet:
    """Rebuild a code set from its provenance alone, the slow way.

    The result carries a copy of the provenance, so a faithful generator
    satisfies oracle_regenerate(cs) == cs.  Raises ValueError when the set
    has no provenance, names an unknown construction or bit order, or its
    parameters are not an object holding every field the construction needs.
    """
    prov = code_set.provenance
    if not prov:
        raise ValueError("code set carries no provenance to regenerate from")
    try:
        construction = prov["construction"]
        order = prov["bit_order"]
        doc = prov["parameters"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"provenance record is incomplete: {exc}") from exc
    if construction not in ("lemma1", "thm1", "thm3", "lemma2", "thm2"):
        raise ValueError(f"unknown construction {construction!r}")
    if order not in ("lsb", "msb"):
        raise ValueError(f"unknown bit order {order!r}")
    qary = construction in ("lemma2", "thm2")
    fields = (_QARY_FIELDS if qary else _BINARY_FIELDS) + (
        _CHAIN_FIELDS if construction in ("thm1", "thm2") else ()
    )
    if not isinstance(doc, dict):
        raise ValueError(f"provenance record is incomplete: parameters must be an object, got {doc!r}")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise ValueError(f"provenance record is incomplete: parameters lack {', '.join(missing)}")
    if qary:
        q = doc["q"]
        seed_length, fronts, backs = _qary_row_tables(doc, order)
    else:
        q = 2
        seed_length, fronts, backs = _binary_row_tables(doc, order)
    zone = seed_length
    if construction in ("thm1", "thm2"):
        flips = [[_parity(c, rr, doc["l"], order) for rr in range(doc["R"])] for c in doc["s_r"]]
    elif construction == "thm3":
        flips = [[0, 0, 1]]
        zone = 2 * seed_length
    else:
        flips = [[0]]
    codes = _chain(q, fronts, backs, flips)
    return CodeSet(q=q, zcz=zone, phases=codes, provenance=copy.deepcopy(prov))


def phase_mismatches(first: CodeSet, second: CodeSet) -> list[tuple[int, int, int]]:
    """(code, row, position) triples where two same-shaped sets disagree."""
    if first.dims != second.dims or first.q != second.q:
        raise ValueError(f"shape mismatch: {first.q}-ary {first.dims} vs {second.q}-ary {second.dims}")
    return [tuple(int(v) for v in idx) for idx in np.argwhere(first.phases != second.phases)]
