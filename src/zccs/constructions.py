"""Generators for complementary code sets with zero-correlation zones.

Five related constructions live here.  Two produce complete complementary
codes (every correlation sum vanishes at every nonzero shift): a binary
family seeded by a quadratic form whose graph turns into a path after
deleting k vertices, and a q-ary family with the same graph condition where
every surviving edge must carry weight q/2.  The other three extend those
seeds to longer codes with a guaranteed zero-correlation zone, either by
chaining sign-modulated blocks (``thm1``, ``thm2``) or by the fixed
three-block pattern (P, P, -P) (``thm3``).

All of them hit the size bound M = N * floor(L / Z), so a clean
verification implies optimality.

Every generator is deterministic: same parameters and bit order, same
CodeSet, bit for bit.  The returned CodeSet carries a provenance dict (plain
JSON-ready values) from which an independent reimplementation can rebuild
the whole set; see the oracle module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from .gbf import (
    GBF,
    Term,
    bit_column,
    index_to_bits,
    resolve_bit_order,
    substitute_complement,
    truth_table,
    z,
    zbar,
)
from .graphs import PathCertificate, graph_of_quadratic, validate_deletion_path

# The largest M * N * L a generator builds, 12.8 times the 1.3M phases of
# the (32, 4, 10240) thm1 set; one int64 copy of such a set takes 134 MB.
MAX_PHASES = 1 << 24


@dataclass(frozen=True, eq=False)
class CodeSet:
    """A code set as one read-only integer array of phases in Z_q.

    phases[ci, ri] is row ri of code ci, so the array's shape is
    (set_size, code_size, length).  zcz is the declared zero-correlation
    zone width: the claim under test, not a measured quantity.  For complete
    complementary codes it equals the sequence length.  provenance, when
    present, is a JSON-ready description sufficient to regenerate the set
    from scratch.
    """

    q: int
    zcz: int
    phases: np.ndarray
    provenance: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.phases)
        if arr.ndim != 3 or arr.size == 0 or arr.dtype.kind not in "iu":
            raise ValueError(
                f"phases must be a nonempty 3-D integer array, got shape {arr.shape} "
                f"of {arr.dtype}"
            )
        if arr.min() < 0 or arr.max() >= self.q:
            raise ValueError(f"phases must lie in [0, {self.q}), got [{arr.min()}, {arr.max()}]")
        if not 1 <= self.zcz <= arr.shape[2]:
            raise ValueError(f"declared zone {self.zcz} out of range [1, {arr.shape[2]}]")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "phases", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodeSet):
            return NotImplemented
        return (
            (self.q, self.zcz, self.provenance) == (other.q, other.zcz, other.provenance)
            and np.array_equal(self.phases, other.phases)
        )

    @property
    def set_size(self) -> int:
        return self.phases.shape[0]

    @property
    def code_size(self) -> int:
        return self.phases.shape[1]

    @property
    def length(self) -> int:
        return self.phases.shape[2]

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(M, N, L, Z): set size, code size, length, declared zone."""
        return (self.set_size, self.code_size, self.length, self.zcz)


def _check_binary_entries(values, what: str) -> tuple[int, ...]:
    out = tuple(int(v) for v in values)
    for v in out:
        if v not in (0, 1):
            raise ValueError(f"{what} entries must be 0 or 1, got {v}")
    return out


class SeedParams:
    """All that row functions and assembly read of Lemma1Params and
    Lemma2Params: the modulus q, the seed GBF seed() (build_g(self) or f),
    the path end the row offsets toggle (pair_end or beta1), seed_length
    (gamma or 2^m2: rows keep this prefix of their truth tables, partners
    this suffix), k deleted vertices and the path certificate."""

    @property
    def path(self) -> PathCertificate:
        return self._cert

    @property
    def k(self) -> int:
        return len(self.deleted)

    def _check_seed_size(self, name: str, m: int) -> None:
        """Sort deleted; refuse a seed set over MAX_PHASES before any O(m) work.
        It holds at least 2^(m + 2k + 1) phases, so a huge m fails the exponent
        test unformed, and the message leaves out the count."""
        object.__setattr__(self, "deleted", tuple(sorted(int(v) for v in self.deleted)))
        k = self.k
        if m + 2 * k + 1 > MAX_PHASES.bit_length() or 4 ** (k + 1) * self.seed_length > MAX_PHASES:
            raise ValueError(
                f"set of M * N * L = 4^(k+1) * seed_length phases exceeds the limit "
                f"{MAX_PHASES}: {name} is too large for k={k} deleted vertices"
            )

    def _check_path(self, quadratic: GBF, required_weight: int | None = None) -> None:
        """Run the path test once, keep its certificate on .path, and resolve
        beta1 (None takes the smallest end)."""
        cert = validate_deletion_path(graph_of_quadratic(quadratic), self.deleted, required_weight)
        beta1 = cert.end_vertices[0] if self.beta1 is None else int(self.beta1)
        if beta1 not in cert.end_vertices:
            raise ValueError(
                f"beta1={beta1} is not an end of the residual path; choices: {cert.end_vertices}"
            )
        object.__setattr__(self, "beta1", beta1)
        object.__setattr__(self, "_cert", cert)


@dataclass(frozen=True)
class Lemma1Params(SeedParams):
    """Inputs for the binary seed construction (modulus fixed at 2).

    quadratic is a strictly degree-2 GBF over the low m1 - 4 variables; the
    linear and constant freedom lives in d_vec and d.  deleted names the
    graph vertices removed before the path test, and beta1 picks one end of
    the surviving path (None takes the smallest).  Validation runs the path
    test once and keeps the certificate on .path.

    The two path ends play different roles.  beta1 is wired into the high
    four variables by the seed's patch terms, which makes it an interior
    vertex of the effective chain; the row offsets therefore toggle the
    opposite end (.pair_end, the seed interface's end).  On a single-vertex
    path the two coincide.  Toggling beta1 instead breaks the correlation
    zone as soon as the path has an edge.
    """

    m1: int
    quadratic: GBF
    d_vec: tuple[int, ...]
    d: int = 0
    deleted: tuple[int, ...] = ()
    beta1: int | None = None

    def __post_init__(self) -> None:
        if self.m1 < 5:
            raise ValueError(f"need m1 >= 5, got {self.m1}")
        self._check_seed_size("m1", self.m1)
        nvars = self.m1 - 4
        if self.quadratic.m != nvars:
            raise ValueError(
                f"quadratic form must use {nvars} variables for m1={self.m1}, "
                f"got {self.quadratic.m}"
            )
        if self.quadratic.q != 2:
            raise ValueError(f"quadratic form must be over modulus 2, got {self.quadratic.q}")
        for t in self.quadratic.terms:
            if t.degree != 2:
                raise ValueError(
                    "quadratic form must be homogeneous of degree 2; "
                    "put linear terms in d_vec and the constant in d"
                )
        object.__setattr__(self, "d_vec", _check_binary_entries(self.d_vec, "d_vec"))
        if len(self.d_vec) != nvars:
            raise ValueError(f"d_vec must have {nvars} entries, got {len(self.d_vec)}")
        if self.d not in (0, 1):
            raise ValueError(f"d must be 0 or 1, got {self.d}")
        self._check_path(self.quadratic)

    @property
    def q(self) -> int:
        return 2

    def seed(self) -> GBF:
        return build_g(self)

    @property
    def pair_end(self) -> int:
        """The path end opposite beta1; row offsets toggle this vertex."""
        ends = self.path.end_vertices
        if len(ends) == 1:
            return ends[0]
        return ends[1] if self.beta1 == ends[0] else ends[0]

    @property
    def gamma(self) -> int:
        """Truncation length (1 << (m1 - 1)) + (1 << (m1 - 3))."""
        return (1 << (self.m1 - 1)) + (1 << (self.m1 - 3))

    end, seed_length = pair_end, gamma


def _check_block_choice(l: int, r: int, s_r) -> tuple[tuple[int, ...], ...] | None:
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if r < 2 or r % 2 != 0:
        raise ValueError(f"block count R must be even and at least 2, got {r}")
    if (r - 1) >> l:
        raise ValueError(f"block count R={r} exceeds 2^l for l={l}")
    if s_r is None:
        if r & (r - 1):
            raise ValueError(f"default block labels need R to be a power of two, got R={r}")
        return None
    chosen = tuple(_check_binary_entries(c, "s_r") for c in s_r)
    for c in chosen:
        if len(c) != l:
            raise ValueError(f"s_r vectors must have length l={l}, got {c}")
    if len(set(chosen)) != len(chosen):
        raise ValueError("s_r vectors must be distinct")
    if len(chosen) != r:
        raise ValueError(f"s_r must contain exactly R={r} vectors, got {len(chosen)}")
    return chosen


@dataclass(frozen=True)
class Lemma2Params(SeedParams):
    """Inputs for the q-ary seed construction.

    f may carry any linear and constant terms, but its quadratic part must
    turn into a path after deleting the chosen vertices, with every
    surviving edge weighted exactly q/2.  f is the seed itself, the row
    offsets toggle beta1, and the seed codes keep all 2^m2 positions.
    """

    q: int
    m2: int
    f: GBF
    deleted: tuple[int, ...] = ()
    beta1: int | None = None

    def __post_init__(self) -> None:
        if self.q < 2 or self.q % 2 != 0:
            raise ValueError(f"modulus must be even and at least 2, got {self.q}")
        if self.m2 < 1:
            raise ValueError(f"need m2 >= 1, got {self.m2}")
        self._check_seed_size("m2", self.m2)
        if self.f.m != self.m2 or self.f.q != self.q:
            raise ValueError(
                f"f must map {{0,1}}^{self.m2} into Z_{self.q}, "
                f"got m={self.f.m}, q={self.f.q}"
            )
        self._check_path(self.f, required_weight=self.q // 2)

    def seed(self) -> GBF:
        return self.f

    @property
    def end(self) -> int:
        return self.beta1

    @property
    def seed_length(self) -> int:
        return 1 << self.m2


@dataclass(frozen=True)
class ChainParams:
    """Block-chained extension of either seed construction.

    Each code chains R copies of a seed code, block r multiplied by the sign
    (-1)^<c, bits(r)>; the label c runs over s_r.  A binary base
    (Lemma1Params) gives the thm1 family, a q-ary base (Lemma2Params) the
    thm2 family, where the sign is a phase shift by q/2.  s_r=None defers to
    the default choice, the first R length-l vectors in ascending integer
    order under the active bit convention.  Beware: the zone property needs
    sum over blocks of (-1)^{<c xor c', bits(r)>} to vanish for every pair
    of distinct labels.  The default satisfies this exactly when R is a
    power of two, and any other R with s_r=None raises ValueError: labels 0
    and 2^t, t = floor(log2(R - 1)), sum to 2^(t+1) - R at zero shift.  An
    explicit s_r is taken as given; if it breaks the zone, verification
    will say so.
    """

    base: Lemma1Params | Lemma2Params
    l: int
    r: int
    s_r: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.base, (Lemma1Params, Lemma2Params)):
            raise TypeError(
                f"base must be Lemma1Params or Lemma2Params, got {type(self.base).__name__}"
            )
        object.__setattr__(self, "s_r", _check_block_choice(self.l, self.r, self.s_r))

    def resolved_s_r(self, order: str | None = None) -> tuple[tuple[int, ...], ...]:
        if self.s_r is not None:
            return self.s_r
        return tuple(index_to_bits(v, self.l, order) for v in range(self.r))


# The paper states the binary and q-ary chains as two theorems; both names
# stay for callers written against them.
Theorem1Params = Theorem2Params = ChainParams


# ---------------------------------------------------------------------------
# seed functions


def build_g(params: Lemma1Params) -> GBF:
    """Seed GBF over m1 variables: quadratic core, linear part, and two
    patch products around the top four variables that make the length-gamma
    prefix behave.
    """
    m1 = params.m1
    v1, v2, v3, v4 = m1 - 1, m1 - 2, m1 - 3, m1 - 4
    b = params.beta1
    terms = [*params.quadratic.terms, Term(params.d)]
    terms += [Term(di, (z(i),)) for i, di in enumerate(params.d_vec)]
    terms += [
        Term(1, (zbar(v1), zbar(v4), z(v3))),
        Term(1, (zbar(v1), zbar(v4), z(v2))),
        Term(1, (zbar(v1), z(v2), z(v3))),
        Term(1, (z(b), zbar(v1), z(v2), zbar(v3), zbar(v4))),
        Term(1, (z(b), zbar(v1), z(v2), z(v3))),
        Term(1, (z(b), z(v1), zbar(v2), zbar(v3))),
    ]
    return GBF(m1, 2, tuple(terms))


def _row_gbf(params: SeedParams, a_vec, n: int, bit_order, partner: bool) -> GBF:
    a = _check_binary_entries(a_vec, "a_vec")
    if len(a) != params.k + 1:
        raise ValueError(f"a_vec must have {params.k + 1} entries, got {len(a)}")
    if not 0 <= n < (1 << params.k):
        raise ValueError(f"n={n} out of range for k={params.k}")
    n_bits = index_to_bits(n, params.k, bit_order)
    half = params.q // 2
    seed = substitute_complement(params.seed()) if partner else params.seed()
    lit = zbar if partner else z
    terms = [Term(half * (ai + ni), (lit(p),)) for p, ai, ni in zip(params.deleted, a, n_bits)]
    terms.append(Term(half * (1 - a[-1] if partner else a[-1]), (z(params.end),)))
    return seed + GBF(seed.m, params.q, tuple(terms))


def row_function(params: SeedParams, a_vec, n: int, bit_order: str | None = None) -> GBF:
    """Row a of front code n: the seed plus (q/2)(a_i + n_i) z_{p_i} over the
    deleted vertices p_i and (q/2) a_last z_end.  Its truth table's
    seed_length-prefix is the row."""
    return _row_gbf(params, a_vec, n, bit_order, partner=False)


def partner_function(params: SeedParams, a_vec, n: int, bit_order: str | None = None) -> GBF:
    """Partner of row_function: the complement-substituted seed, the deleted
    offsets on complemented variables, and (q/2)(1 - a_last) z_end.  Row a
    of back code n is the conjugate of its truth table's seed_length-suffix."""
    return _row_gbf(params, a_vec, n, bit_order, partner=True)


# ---------------------------------------------------------------------------
# assembly

# Row order within every code: a-vectors in lexicographic order, last
# coordinate fastest.  This is a fixed convention independent of bit order.


def _row_tables(base: SeedParams, order: str):
    """Phase tables of every row function and its partner, from one seed table.

    Returns (rows, partners) of shape (2^k, 2^(k+1), seed_length): code n,
    row a, the truth tables of row_function and partner_function cut to
    their prefix and suffix.  A partner complements every variable but the
    end's, which reverses the seed and deleted-vertex part of the table
    under both bit orders.  Only the columns of the deleted vertices and of
    the end vertex are built.
    """
    seed_fn = base.seed()
    m, q, k, half, cut = seed_fn.m, base.q, base.k, base.q // 2, base.seed_length
    index = np.arange(1 << m, dtype=np.int64)
    columns = np.array([bit_column(index, p, m, order) for p in base.deleted], dtype=np.int64)
    labels = np.array(list(itertools.product((0, 1), repeat=k + 1)), dtype=np.int64)
    n_bits = np.array([index_to_bits(n, k, order) for n in range(1 << k)], dtype=np.int64)
    coefficients = half * (labels[None, :, :k] + n_bits.reshape(1 << k, 1, k))
    with_deleted = coefficients @ columns.reshape(k, 1 << m)
    with_deleted += truth_table(seed_fn, order)
    end = half * bit_column(index, base.end, m, order)
    tail = labels[:, k:] * end
    rows = with_deleted + tail
    rows %= q
    # the partners reuse with_deleted's memory, reversed: + (end - tail)
    partners = with_deleted[..., ::-1]
    tail -= end
    partners -= tail
    partners %= q
    return rows[..., :cut], partners[..., (1 << m) - cut:]


def _check_size(base: SeedParams, codes: int, blocks: int) -> None:
    """Reject a set of codes * 2^(k+1) codes of 2^(k+1) rows, each blocks seed
    lengths long, whose M * N * L exceeds MAX_PHASES; nothing is built yet."""
    count = codes * 4 ** (base.k + 1) * blocks * base.seed_length
    if count > MAX_PHASES:
        raise ValueError(f"set of M * N * L = {count} phases exceeds the limit {MAX_PHASES}")


def _chained_code_set(
    base: SeedParams,
    order: str,
    signs,
    zone_blocks: int,
    construction: str,
    chain_doc: dict | None = None,
) -> CodeSet:
    """Chain every row table over blocks and wrap the result as a CodeSet.

    signs[c][b] in {0, 1} flips block b of every code with label c by the
    phase q/2.  The front half holds the row tables chained once per label,
    code n-major then label; the back half holds the partner tables chained
    the same way and conjugated.  The declared zone is zone_blocks seed
    lengths.  chain_doc adds block parameters to the provenance record.
    """
    labels, blocks = np.shape(signs)
    _check_size(base, labels, blocks)
    q = base.q
    rows, partners = _row_tables(base, order)
    codes, n_rows, cut = rows.shape
    offsets = q // 2 * np.asarray(signs, dtype=np.int64)[None, :, None, :, None]
    phases = np.empty((2, codes, labels, n_rows, blocks, cut), dtype=np.int64)
    np.add(rows[:, None, :, None, :], offsets, out=phases[0])
    np.subtract(-offsets, partners[:, None, :, None, :], out=phases[1])
    del rows, partners
    phases %= q
    parameters = {**_base_doc(base), **(chain_doc or {})}
    return CodeSet(
        q=q,
        zcz=zone_blocks * cut,
        phases=phases.reshape(-1, n_rows, blocks * cut),
        provenance={"construction": construction, "bit_order": order, "parameters": parameters},
    )


def _base_doc(p: Lemma1Params | Lemma2Params) -> dict:
    if isinstance(p, Lemma1Params):
        return {
            "m1": p.m1,
            "quadratic": [[i, j, w] for i, j, w in graph_of_quadratic(p.quadratic).edges],
            "d_vec": [int(v) for v in p.d_vec],
            "d": int(p.d),
            "deleted": [int(v) for v in p.deleted],
            "beta1": int(p.beta1),
            "pair_end": int(p.pair_end),
        }
    return {
        "q": p.q,
        "m2": p.m2,
        "f_terms": [
            {
                "coefficient": int(t.coefficient),
                "literals": [[l.var_index, bool(l.complemented)] for l in t.literals],
            }
            for t in p.f.terms
        ],
        "deleted": [int(v) for v in p.deleted],
        "beta1": int(p.beta1),
    }


# ---------------------------------------------------------------------------
# generators


def lemma1_ccc(params: Lemma1Params, bit_order: str | None = None) -> CodeSet:
    """Binary complete complementary code of 2^(k+1) codes, length gamma.

    Codes are ordered: the prefix family for n = 0..2^k-1, then the
    conjugated suffix family for the same n range.
    """
    return _chained_code_set(params, resolve_bit_order(bit_order), [[0]], 1, "lemma1")


def lemma2_ccc(params: Lemma2Params, bit_order: str | None = None) -> CodeSet:
    """q-ary complete complementary code of 2^(k+1) codes, length 2^m2."""
    return _chained_code_set(params, resolve_bit_order(bit_order), [[0]], 1, "lemma2")


def theorem3_zccs(params: Lemma1Params, bit_order: str | None = None) -> CodeSet:
    """Binary (2^(k+1), 2^(k+1), 3 gamma, 2 gamma) zero-zone set.

    Each row is the three-block pattern (P, P, -P) over a seed prefix, or
    the conjugate of that pattern over a seed suffix.
    """
    return _chained_code_set(params, resolve_bit_order(bit_order), [[0, 0, 1]], 2, "thm3")


def chained_zccs(params: ChainParams, bit_order: str | None = None) -> CodeSet:
    """Block-chained (R 2^(k+1), 2^(k+1), R L0, L0) zero-zone set.

    L0 is the seed length: gamma for a binary base (construction thm1),
    2^m2 for a q-ary base (thm2).  Code order: all block-chained front codes
    (n-major, then s_r order), followed by the conjugated partner codes in
    the same order.
    """
    order = resolve_bit_order(bit_order)
    _check_size(params.base, params.r, params.r)
    if params.r * params.l > MAX_PHASES:
        raise ValueError(f"R * l = {params.r * params.l} label bits exceed the limit {MAX_PHASES}")
    s_r = params.resolved_s_r(order)
    blocks = np.array([index_to_bits(b, params.l, order) for b in range(params.r)], dtype=np.int64)
    signs = np.array(s_r, dtype=np.int64) @ blocks.T % 2
    doc = {"l": int(params.l), "R": int(params.r), "s_r": [[int(b) for b in c] for c in s_r]}
    construction = "thm1" if isinstance(params.base, Lemma1Params) else "thm2"
    return _chained_code_set(params.base, order, signs, 1, construction, doc)


theorem1_zccs = theorem2_zccs = chained_zccs
