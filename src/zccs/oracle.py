"""Independent regeneration of code sets from their provenance records.

The oracle works from the formulas alone: its own shifts take the bits of
every point index, the seed and each row function are evaluated in nested
arithmetic form over int64 point columns (one column per variable, so one
evaluation covers a chunk of points), and its own gather chains the rows
into codes.  It uses no generator or `gbf` code: no truth tables, no symbolic
term algebra, no label-matrix products, no shared chaining.  Exact agreement
between this path and the generators' is a strong check on both.

Each construction chains after a K x R pattern over Z_4 of its own, which
gives the set's dims, zone and gather alike: block value 0, 1, 2 or 3 is
+A_n, +B_n, -A_n or -B_n, with A_n a front, B_n its negated back, "-" q/2.

Within one call each distinct piece of work is done once.  Every row
function is the seed plus linear terms on the deleted vertices and on the
pair end (beta1 for the q-ary family), so

- the seed is evaluated once, over the front tables' points (g, f) and over
  the complements of the back tables' points (s, h);
- for even q the coefficient (q/2)(a[pos] + n[pos]) of row (n, a) on
  deleted vertex pos takes its value through a[pos] xor n[pos] alone, so
  the 2^(2k+1) (n, row) pairs of a side share 2^(k+1) distinct row
  functions.  They are built once for each of the four block values, the
  turned ones as a copy shifted by q/2, and an xor index gathers every row
  of the set from them straight into its blocks.

Nothing is kept between calls.  Every integer of the record is reduced mod q
before it meets an array, so huge forged coefficients act as their residues.
"""

import copy

import numpy as np

from .constructions import CodeSet

_BINARY_FIELDS = ("m1", "quadratic", "d_vec", "d", "deleted", "beta1", "pair_end")
_QARY_FIELDS = ("q", "m2", "f_terms", "deleted", "beta1")
_CHAIN_FIELDS = ("l", "R", "s_r")


def _bits(value, width: int, order: str) -> list:
    """The width bits of an int, or of an index array as one column per bit."""
    if order == "lsb":
        return [(value >> i) & 1 for i in range(width)]
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


# ---------------------------------------------------------------------------
# row functions, both families


def _row_tables(doc: dict, order: str, q: int, m: int, seed_eval, end_vertex: int, width: int, back_start: int):
    """The distinct row functions of each block value and the index of every row.

    tables[v, c, e], v = 2 turn + side, is a row function over the width
    points from 0 (side 0, the fronts g or f) or from back_start (side 1, the
    backs s or h over the complemented point columns, negated as they stand
    in the set): the seed plus (q/2) times deleted vertex pos where bit
    k-1-pos of c is 1, plus the pair-end term where e is 1 (fronts) or 0
    (backs), plus q/2 where turn is 1, all mod q.  Row (n, a), a's label
    leftmost slowest, takes c's bit k-1-pos = a[pos] xor n[pos] and e =
    a[-1], so index[n, a], its function in tables[v].reshape(2^(k+1), -1),
    is a xor n's bits moved likewise.
    """
    half, deleted = q // 2, doc["deleted"]
    k = len(deleted)
    complement = (1 << m) - 1
    tables = np.empty((4, 1 << k, 2, width), dtype=np.int64)
    # The point columns and the seed's temporaries, about 30 int64 a point,
    # cover one chunk of points at a time: below the tables' size at k = 0.
    chunk = max(1024, -(-width // 8))
    for side, first in enumerate((0, back_start)):
        by_bit = tables[side].reshape((2,) * k + (2, width))
        for start in range(0, width, chunk):
            stop = min(start + chunk, width)
            point = _bits(np.arange(first + start, first + stop) ^ side * complement, m, order)
            table, bits = tables[side, ..., start:stop], by_bit[..., start:stop]
            # A back is negated: its seed here, while the q/2 terms are
            # their own negatives mod q.
            table[...] = (1 - 2 * side) * seed_eval(doc, point)
            for pos, v in enumerate(deleted):
                bits[(slice(None),) * pos + (1,)] += half * point[v]
            table[:, 1 - side] += half * (point[end_vertex] ^ side)
    np.add(tables[:2], half, out=tables[2:])
    tables %= q
    n = np.arange(1 << k)
    n_label = sum((b << (k - pos) for pos, b in enumerate(_bits(n, k, order))), np.zeros_like(n))
    return tables, np.arange(2 << k) ^ n_label[:, None]


# ---------------------------------------------------------------------------
# binary family


def _seed_eval(doc: dict, point: list):
    """The binary seed function over the bit columns point, patches kept in
    nested form."""
    m1 = doc["m1"]
    total = doc["d"] % 2
    for i, j, w in doc["quadratic"]:
        total += w % 2 * point[i] * point[j]
    for i, di in enumerate(doc["d_vec"]):
        total += di % 2 * point[i]
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
    """The row tables over the prefix points of g and suffix points of s."""
    m1 = doc["m1"]
    gamma = (1 << (m1 - 1)) + (1 << (m1 - 3))
    return _row_tables(doc, order, 2, m1, _seed_eval, doc["pair_end"], gamma, (1 << m1) - gamma)


# ---------------------------------------------------------------------------
# q-ary family


def _terms_eval(doc: dict, point: list):
    total = 0
    for term in doc["f_terms"]:
        prod = term["coefficient"] % doc["q"]
        for var, complemented in term["literals"]:
            prod *= (1 - point[var]) if complemented else point[var]
        total += prod
    return total


def _qary_row_tables(doc: dict, order: str):
    """The row tables of f and of its partner h over every point."""
    return _row_tables(doc, order, doc["q"], doc["m2"], _terms_eval, doc["beta1"], 1 << doc["m2"], 0)


# ---------------------------------------------------------------------------
# assembly


def _record_fields(doc: dict, qary: bool) -> tuple[list, list]:
    """The vertex indices and the other integers a seed record holds, taken
    apart as the formulas take them apart; a field of another shape raises
    TypeError, KeyError or ValueError."""
    vertices = [*doc["deleted"], doc["beta1"]]
    if qary:
        numbers = [term["coefficient"] for term in doc["f_terms"]]
        vertices += [var for term in doc["f_terms"] for var, _ in term["literals"]]
    else:
        edges = [(i, j, w) for i, j, w in doc["quadratic"]]
        numbers = [w for _, _, w in edges] + [*doc["d_vec"], doc["d"]]
        vertices += [v for i, j, _ in edges for v in (i, j)]
        vertices += [doc["pair_end"], *range(len(doc["d_vec"]))]
    return vertices, numbers


def _pattern(construction: str, doc: dict, order: str) -> tuple[np.ndarray, int]:
    """The K x R block pattern over Z_4 by which the construction chains the
    seed codes, and its zone in blocks.  thm1 and thm2 chain P = [2F; 2F + 1]
    with F[c, b] the parity of label c of s_r against the l bits of b.  Label
    position i meets bit i of b (lsb) or bit l-1-i (msb), and only b's low
    (R - 1).bit_length() bits can be 1, so each label is read as the integer
    of those positions alone and F is the parity of its and with b."""
    if construction == "thm3":
        return np.array([[0, 0, 2], [1, 1, 3]]), 2
    if construction not in ("thm1", "thm2"):
        return np.array([[0], [1]]), 1
    blocks = np.arange(doc["R"])
    width = (doc["R"] - 1).bit_length()
    labels = [c if order == "lsb" else c[::-1] for c in doc["s_r"]]
    masks = np.array([sum(ci % 2 << i for i, ci in enumerate(c[:width])) for c in labels])
    flips = np.bitwise_count(masks[:, None] & blocks).astype(np.int64) % 2
    return np.concatenate((2 * flips, 2 * flips + 1)), 1


def _described_dims(construction: str, doc: dict, order: str, dims: tuple[int, int, int]):
    """((M, N, L), pattern, zone in blocks) of the set the parameters describe,
    or None when they cannot describe one of the stored (M, L).  m is held to
    L's bit length before any power of two is formed; R to R seed lengths = L,
    l to every label's length and the label count to 1..M before the pattern
    is.  Every vertex named must be one of the seed's m variables and every
    other number an int, so no loop meets a field it cannot index or reduce."""
    set_size, _, length = dims
    qary = construction in ("lemma2", "thm2")
    m = doc["m2"] if qary else doc["m1"]
    if type(m) is not int or not (1 if qary else 5) <= m <= length.bit_length():
        return None
    vertices, numbers = _record_fields(doc, qary)
    seed_length = 1 << m if qary else (1 << (m - 1)) + (1 << (m - 3))
    if construction in ("thm1", "thm2"):
        labels, blocks, l = doc["s_r"], doc["R"], doc["l"]
        if (type(blocks) is not int or type(l) is not int or blocks * seed_length != length
                or not 0 < len(labels) <= set_size or any(len(c) != l for c in labels)):
            return None
        numbers += [b for c in labels for b in c]
    if any(type(v) is not int for v in vertices + numbers) or not all(0 <= v < m for v in vertices):
        return None
    pattern, zone_blocks = _pattern(construction, doc, order)
    rows = 2 << len(doc["deleted"])
    return (len(pattern) * rows // 2, rows, pattern.shape[1] * seed_length), pattern, zone_blocks


def _chain(tables, index, pattern) -> np.ndarray:
    """Codes as one (M, N, L) array: code (pattern half h, n, pattern row x)
    is, block by block, the rows of code n from tables[P[h K/2 + x, r]]."""
    patterns, blocks = pattern.shape
    n, rows = index.shape
    width = tables.shape[-1]
    # (half, n, pattern row, row, block) -> row of the flattened tables
    functions = pattern.reshape(2, 1, patterns // 2, 1, blocks) * rows + index[:, None, :, None]
    # Gathered through a block view and handed over read-only, so CodeSet
    # keeps this array instead of copying it.
    phases = np.empty((n * patterns, rows, blocks * width), dtype=np.int64)
    codes = phases.reshape(2, n, patterns // 2, rows, blocks, width)
    # every index is in range; a clipping take writes out unbuffered
    np.take(tables.reshape(-1, width), functions, axis=0, out=codes, mode="clip")
    phases.setflags(write=False)
    return phases


def oracle_regenerate(code_set: CodeSet) -> CodeSet:
    """Rebuild a code set from its provenance alone, independently.

    The result carries a copy of the provenance, so a faithful generator
    satisfies oracle_regenerate(cs) == cs.  Raises ValueError when the set
    has no provenance, names an unknown construction or bit order, or its
    parameters are not an object holding every field the construction needs,
    in the shapes its formulas read, and describing a set of the stored
    (M, N, L) and, for the q-ary family, the stored q, which must be even.
    Those checks come before any loop, so a forged record can neither size
    the work nor break it midway.
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
    dims = code_set.dims[:3]
    try:
        described = _described_dims(construction, doc, order, dims)
    except (TypeError, KeyError, ValueError):
        described = None
    if described is None or described[0] != dims:
        raise ValueError(
            f"provenance record is incomplete: its parameters do not describe an "
            f"(M, N, L) = {dims} set"
        )
    if qary:
        q = doc["q"]
        # A phase adds fewer than q per f term, per deleted vertex, for the
        # pair end and for the block's turn, so this bound keeps int64 exact.
        terms = len(doc["f_terms"]) + len(doc["deleted"]) + 2
        if type(q) is not int or q != code_set.q:
            raise ValueError(f"provenance record is incomplete: q = {q!r} is not the set's {code_set.q}")
        if (q * terms) >> 63:
            raise ValueError(f"provenance record is incomplete: q = {q} overflows int64")
        if q % 2:
            raise ValueError(f"provenance record is incomplete: q = {q} is odd")
        tables, index = _qary_row_tables(doc, order)
    else:
        q = 2
        tables, index = _binary_row_tables(doc, order)
    _, pattern, zone_blocks = described
    codes = _chain(tables, index, pattern)
    return CodeSet(q=q, zcz=zone_blocks * tables.shape[-1], phases=codes, provenance=copy.deepcopy(prov))


def phase_mismatches(first: CodeSet, second: CodeSet) -> list[tuple[int, int, int]]:
    """(code, row, position) triples where two same-shaped sets disagree."""
    if first.dims != second.dims or first.q != second.q:
        raise ValueError(f"shape mismatch: {first.q}-ary {first.dims} vs {second.q}-ary {second.dims}")
    return [tuple(int(v) for v in idx) for idx in np.argwhere(first.phases != second.phases)]
