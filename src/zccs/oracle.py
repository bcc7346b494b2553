"""Independent regeneration of code sets from their provenance records.

Everything here is deliberately naive and self-contained: bits come from
shifts, row functions are evaluated pointwise in nested arithmetic form,
and codes are assembled as nested lists with plain loops, wrapped into a
CodeSet only at the end.  No truth-table vectorization, no symbolic term
algebra, no assembly code shared with the generators.  Exact agreement
between this path and the fast one is a strong check on both.
"""

from __future__ import annotations

import copy

import numpy as np

from .constructions import CodeSet


def _bits(value: int, width: int, order: str) -> list[int]:
    if order == "lsb":
        return [(value >> i) & 1 for i in range(width)]
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def _row_label(index: int, width: int) -> list[int]:
    # Row labels enumerate with the leftmost coordinate slowest.  This is a
    # fixed ordering convention, not tied to the index bit convention.
    return [(index >> (width - 1 - pos)) & 1 for pos in range(width)]


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


def _g_phase(doc: dict, a: list[int], nb: list[int], index: int, order: str) -> int:
    point = _bits(index, doc["m1"], order)
    total = _seed_eval(doc, point)
    for pos, vertex in enumerate(doc["deleted"]):
        total += (a[pos] + nb[pos]) * point[vertex]
    total += a[-1] * point[doc["pair_end"]]
    return total % 2


def _s_phase(doc: dict, a: list[int], nb: list[int], index: int, order: str) -> int:
    point = _bits(index, doc["m1"], order)
    total = _seed_eval(doc, [1 - b for b in point])
    for pos, vertex in enumerate(doc["deleted"]):
        total += (a[pos] + nb[pos]) * (1 - point[vertex])
    total += (1 - a[-1]) * point[doc["pair_end"]]
    return total % 2


def _binary_row_tables(doc: dict, order: str):
    """Per (n, row): the prefix phases of g and suffix phases of s."""
    m1 = doc["m1"]
    gamma = (1 << (m1 - 1)) + (1 << (m1 - 3))
    full = 1 << m1
    k = len(doc["deleted"])
    prefixes, suffixes = [], []
    for n in range(1 << k):
        nb = _bits(n, k, order)
        pn, sn = [], []
        for row in range(1 << (k + 1)):
            a = _row_label(row, k + 1)
            pn.append([_g_phase(doc, a, nb, t, order) for t in range(gamma)])
            sn.append([_s_phase(doc, a, nb, full - gamma + t, order) for t in range(gamma)])
        prefixes.append(pn)
        suffixes.append(sn)
    return gamma, prefixes, suffixes


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


def _f_phase(doc: dict, a: list[int], nb: list[int], index: int, order: str) -> int:
    q = doc["q"]
    point = _bits(index, doc["m2"], order)
    total = _terms_eval(doc, point)
    for pos, vertex in enumerate(doc["deleted"]):
        total += (q // 2) * (a[pos] + nb[pos]) * point[vertex]
    total += (q // 2) * a[-1] * point[doc["beta1"]]
    return total % q


def _h_phase(doc: dict, a: list[int], nb: list[int], index: int, order: str) -> int:
    q = doc["q"]
    point = _bits(index, doc["m2"], order)
    total = _terms_eval(doc, [1 - b for b in point])
    for pos, vertex in enumerate(doc["deleted"]):
        total += (q // 2) * (a[pos] + nb[pos]) * (1 - point[vertex])
    total += (q // 2) * (1 - a[-1]) * point[doc["beta1"]]
    return total % q


def _qary_row_tables(doc: dict, order: str):
    length = 1 << doc["m2"]
    k = len(doc["deleted"])
    f_tabs, h_tabs = [], []
    for n in range(1 << k):
        nb = _bits(n, k, order)
        fn, hn = [], []
        for row in range(1 << (k + 1)):
            a = _row_label(row, k + 1)
            fn.append([_f_phase(doc, a, nb, t, order) for t in range(length)])
            hn.append([_h_phase(doc, a, nb, t, order) for t in range(length)])
        f_tabs.append(fn)
        h_tabs.append(hn)
    return length, f_tabs, h_tabs


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
    has no provenance or names an unknown construction.
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
    if construction in ("lemma2", "thm2"):
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
