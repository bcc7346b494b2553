"""Independent regeneration of code sets from their provenance records.

The oracle works from the formulas alone: its own shifts take the bits of
every point index, the seed and each row function are evaluated in nested
arithmetic form over int64 point columns (one column per variable, so one
evaluation covers every point), and its own broadcasting chains the rows
into codes.  It uses no generator or `gbf` code: no truth tables, no
symbolic term algebra, no label-matrix offsets, no shared chaining.  Exact
agreement between this path and the generators' is a strong check on both.

Within one call each distinct piece of work is done once.  Every row
function is the seed plus linear terms on the deleted vertices and on the
pair end (beta1 for the q-ary family), so

- the seed is evaluated once, over the front tables' points (g, f) and over
  the complements of the back tables' points (s, h);
- the linear coefficients (q/2)(a[pos] + n[pos]) matter only mod q, so for
  even q the 2^(2k+1) (n, row) pairs share 2^(k+1) distinct row functions,
  each evaluated once and shared by every row with that function.

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


def _row_label(index: int, width: int) -> list[int]:
    # Row labels enumerate with the leftmost coordinate slowest.  This is a
    # fixed ordering convention, not tied to the index bit convention.
    return [(index >> (width - 1 - pos)) & 1 for pos in range(width)]


# ---------------------------------------------------------------------------
# row functions, both families


def _row_phase(q: int, seed, columns: list, coeffs, end_column, end: int):
    """A row function over a table's points: the seed's values plus c times
    each deleted-vertex column and (q/2) * end times the pair-end column.
    Backs (s, h) pass the complemented deleted-vertex columns and 1 - end."""
    total = seed + (q // 2) * end * end_column  # a new array; seed is shared
    for c, column in zip(coeffs, columns):
        total += c * column
    return total % q


def _row_tables(doc: dict, order: str, q: int, m: int, seed_eval, end_vertex: int, front_at, back_at):
    """Front tables over the index array front_at and back tables over
    back_at, nested [n][row], one int64 array per table.

    Row (n, a) adds (q/2)(a[pos] + n[pos]) times deleted vertex pos, and a
    pair-end term picked by a[-1].  Those coefficients mod q and a[-1] key
    the memo of (front, back) table pairs, so rows with the same function
    share one pair of arrays.
    """
    half = q // 2
    deleted = doc["deleted"]
    k = len(deleted)
    front_point = _bits(front_at, m, order)
    back_point = _bits(back_at, m, order)
    front_seed = seed_eval(doc, front_point)
    back_seed = seed_eval(doc, [1 - b for b in back_point])
    front_columns = [front_point[v] for v in deleted]
    back_columns = [1 - back_point[v] for v in deleted]
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
                    _row_phase(q, front_seed, front_columns, coeffs, front_point[end_vertex], end),
                    _row_phase(q, back_seed, back_columns, coeffs, back_point[end_vertex], 1 - end),
                )
            front, back = memo[key]
            fn.append(front)
            bn.append(back)
        fronts.append(fn)
        backs.append(bn)
    return fronts, backs


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
    """Per (n, row): the prefix phases of g and suffix phases of s."""
    m1 = doc["m1"]
    gamma = (1 << (m1 - 1)) + (1 << (m1 - 3))
    full = 1 << m1
    fronts, backs = _row_tables(
        doc, order, 2, m1, _seed_eval, doc["pair_end"], np.arange(gamma), np.arange(full - gamma, full)
    )
    return gamma, fronts, backs


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
    """Per (n, row): the phases of f and of its partner h."""
    length = 1 << doc["m2"]
    points = np.arange(length)
    fronts, backs = _row_tables(doc, order, doc["q"], doc["m2"], _terms_eval, doc["beta1"], points, points)
    return length, fronts, backs


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


def _described_dims(construction: str, doc: dict, length: int) -> tuple[int, int, int] | None:
    """(M, N, L) of the set the parameters describe, or None when they cannot
    describe one of this length.  A seed length is at least 2^(m - 1), so m
    is held to length's bit length before any power of two is formed, and l
    to the length of every stored label.  Every vertex the record names must
    be one of the seed's m variables and every other number an int, so that
    no loop meets a field it cannot index or reduce."""
    qary = construction in ("lemma2", "thm2")
    m = doc["m2"] if qary else doc["m1"]
    if type(m) is not int or not (1 if qary else 5) <= m <= length.bit_length():
        return None
    vertices, numbers = _record_fields(doc, qary)
    seed_length = 1 << m if qary else (1 << (m - 1)) + (1 << (m - 3))
    if construction in ("thm1", "thm2"):
        if type(doc["R"]) is not int or type(doc["l"]) is not int:
            return None
        if any(len(c) != doc["l"] for c in doc["s_r"]):
            return None
        numbers += [b for c in doc["s_r"] for b in c]
        labels, blocks = len(doc["s_r"]), doc["R"]
    else:
        labels, blocks = 1, 3 if construction == "thm3" else 1
    if any(type(v) is not int for v in vertices + numbers) or not all(0 <= v < m for v in vertices):
        return None
    rows = 2 << len(doc["deleted"])
    return rows * labels, rows, blocks * seed_length


def _flips(doc: dict, order: str) -> list:
    """Per label c of s_r, block b's flip: the parity of c against the l
    bits of b."""
    blocks = np.arange(doc["R"])
    bits = _bits(blocks, doc["l"], order)
    return [sum((ci % 2 * bi for ci, bi in zip(c, bits)), np.zeros_like(blocks)) % 2 for c in doc["s_r"]]


def _chain(q: int, fronts, backs, flips) -> np.ndarray:
    """Codes as one (M, N, L) array: for each n and flip pattern, the front
    rows once per block, block b shifted by q/2 when the pattern's entry b
    is 1; then the conjugates of the same patterns over the back rows."""
    fronts, backs = np.array(fronts), np.array(backs)  # (2^k, N, seed length)
    shift = (q // 2) * np.array(flips)[:, None, :, None]  # (patterns, 1, blocks, 1)
    n, rows, width = fronts.shape
    patterns, _, blocks, _ = shift.shape
    # Written through a block view and handed over read-only, so CodeSet
    # keeps this array instead of copying it.
    phases = np.empty((2 * n * patterns, rows, blocks * width), dtype=np.int64)
    codes = phases.reshape(2, n, patterns, rows, blocks, width)
    np.add(fronts[:, None, :, None, :], shift, out=codes[0])
    np.subtract(-shift, backs[:, None, :, None, :], out=codes[1])
    phases %= q
    phases.setflags(write=False)
    return phases


def oracle_regenerate(code_set: CodeSet) -> CodeSet:
    """Rebuild a code set from its provenance alone, independently.

    The result carries a copy of the provenance, so a faithful generator
    satisfies oracle_regenerate(cs) == cs.  Raises ValueError when the set
    has no provenance, names an unknown construction or bit order, or its
    parameters are not an object holding every field the construction needs,
    in the shapes its formulas read, and describing a set of the stored
    (M, N, L) and, for the q-ary family, the stored q.  Those checks come
    before any loop, so a forged record can neither size the work nor break
    it midway.
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
        described = _described_dims(construction, doc, code_set.length)
    except (TypeError, KeyError, ValueError):
        described = None
    if described != dims:
        raise ValueError(
            f"provenance record is incomplete: its parameters do not describe an "
            f"(M, N, L) = {dims} set"
        )
    if qary:
        q = doc["q"]
        # A phase adds fewer than q per f term, per deleted vertex, for the
        # pair end and for the chain's flip, so this bound keeps int64 exact.
        terms = len(doc["f_terms"]) + len(doc["deleted"]) + 2
        if type(q) is not int or q != code_set.q:
            raise ValueError(f"provenance record is incomplete: q = {q!r} is not the set's {code_set.q}")
        if (q * terms) >> 63:
            raise ValueError(f"provenance record is incomplete: q = {q} overflows int64")
        seed_length, fronts, backs = _qary_row_tables(doc, order)
    else:
        q = 2
        seed_length, fronts, backs = _binary_row_tables(doc, order)
    zone = seed_length
    if construction in ("thm1", "thm2"):
        flips = _flips(doc, order)
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
