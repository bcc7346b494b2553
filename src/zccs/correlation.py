"""Aperiodic correlation sums and zero-zone verification.

The aperiodic cross-correlation of two length-L sequences u, v at shift tau
is sum_t u[t + tau] * conj(v[t]) over the overlapping window, zero once
|tau| >= L.  Between two codes it is the sum of the row-wise correlations.
Verification checks every code pair of a set at every shift and reports
where the zero-correlation claim breaks.

A sequence is a 1-D integer array of phases in Z_q, a code its (N, L)
rows, and a set the CodeSet's (M, N, L) array.  gbf.unit_values is the one
table from phases to values, and the modulus alone fixes the arithmetic:
integers for q in EXACT_MODULI, complex128 otherwise.

One batched FFT engine, _blocks, computes every pair correlation.  It
transforms the set's whole (M, N, L) value array once, zero-padded to the
smallest n >= 2L - 1 of the form 2^a, 3 * 2^a or 5 * 2^a (_fft_length), at
which circular correlation equals aperiodic correlation.  Code pairs
(i, j), i <= j, are in pair order, the order of np.triu_indices(M).  The
engine computes rows code by code: code i's spectrum times a partner, the
conjugate spectrum of a code j >= i, or, packed (below), of two codes, so
the rows hold one pair or two in pair order.  A block is a chunk of
consecutive rows (about CHUNK_ENTRIES spectrum entries read): their
cross-spectra, summed over the rows of the codes, go code by code into one
buffer, and the rows kept are inverse-transformed in one call, giving a
circular block in which shift tau sits at index tau mod n.  Real value
arrays (q <= 2) use rfft/irfft and give real blocks, complex ones
fft/ifft.  Blocks reach verify_zccs one row per pair, in pair order, as
the rows give them, with the codes (i, j) of each row; it reduces each
as it comes and drops it, so it keeps one number per pair, one table of
the violations it lists (the report's violations) and no profile.  accs
and set_accs compute one shift by direct dot products and share no code
with the engine but unit_values, so the two check each other.

Most pairs of the paper's sets never correlate.  By Parseval a pair's
circular sums have sum_tau |c(tau)|^2 = E / n, where E = sum_f |C(f)|^2
is its cross-spectrum energy (at most twice the sum over the rfft bins),
so every exact sum has modulus at most sqrt(E / n) + b, b =
_rounding_bound.  Below tolerance every sum is zero, as a nonzero one is
at least 1 for q in EXACT_MODULI, where tolerance is 1/4, and at least
4 * tolerance for other q when exact; and the full path would read it as
zero too, each computed value lying within b < tolerance of 0.  So
verify_zccs passes the margin tolerance - b, and the engine leaves a pair
with E < n * margin^2 out of the inverse transform: it gets
first_nonzero = L and no listing.  A margin <= 0 (exact=False, or a failed
bound) leaves nothing out.

A code's autocorrelation at shift 0 is sum_t |u_t|^2 = N * L for every
modulus, as every value has modulus 1, so the peak is an identity, not a
measurement.  Row 0 of code i holds the diagonal pair (i, i), and the
engine takes the spectrum of N * L * delta, the constant N * L in every
bin, off it right after the cross-spectra: the energy test, the inverse
transform and the rounding all see c_ii - N * L * delta, and one zero test
serves every pair.  A diagonal pair below the limit is N * L * delta
exactly, as every code of a complete complementary code, and gets
first_nonzero = L; a complete complementary code runs no inverse
transform.  The report states the peak once, as expected_peak = N * L.

For q in EXACT_MODULI the values are the Gaussian integers +-1 and +-i.
The engine rounds each block to integers and certifies the rounding:
_rounding_bound and the largest observed distance to an integer must both
stay below 1/4, or np.correlate recomputes the block's pairs one by one.

For q in EXACT_MODULI two codes also share a partner.  Every sum has
|Re|, |Im| <= N * L; let B be the smallest power of two above 2 * N * L
(_pack_base).  With X the spectra and X_M = 0, the partner of codes 2g and
2g + 1 is P_g = conj(X_2g) + B * conj(X_(2g+1)), and X_a * P_g is the
spectrum of C_(a,2g) + B * C_(a,2g+1): one row carries pairs (a, 2g) and
(a, 2g + 1), which are consecutive in pair order, so code a's rows, g =
a // 2 .. ceil(M / 2) - 1, give its pairs in order, and about half as many
rows are transformed.  Two halves are dropped: (a, a - 1), the low half
of row 0 of an odd code a, and, for odd M, (a, M), the high half of code
a's last row.  Packed rows are certified as above under the bound
(1 + B) * b, with the margin tolerance - (1 + B) * b, so only a packed sum
of 0 leaves both pairs out; row 0 of an odd code a, whose high half is its
diagonal pair, has B * N * L * delta taken off.  The rounded x splits
back exactly into high = rint(x / B) and low = x - B * high: B is a power
of two, |x| < 2^53 and |low| <= N * L < B / 2.
Packing is used where (1 + B) * b < 1/4: 1.7e-4 for N = 4, L = 1280 and
0.037 for N = 4, L = 10240, but 5.25 for N = 4, L = 65536, which keeps
one row per pair.

One zero test serves every modulus: a nonzero sum in Z[zeta_q] has modulus
at least s (_separation), so its real or imaginary part exceeds s / 2.  A
part above tolerance = max(s / 4, b) counts as nonzero, where the round-off
b is 0 for integer blocks and _rounding_bound otherwise.  The verdict is
exact, certified, when b < s / 4; otherwise a zero sum still never reads
as nonzero, and the report says exact=False.  s = 1 for q in
{1, 2, 3, 4, 6}; q = 5, 8, 10, 12 are certified up to L = 65536, 32768,
16384, 8192, 4096 for N = 1, 2, 4, 8, 16.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np

from .constructions import CodeSet
from .gbf import unit_values

EXACT_MODULI = (1, 2, 4)

# Spectrum entries (pairs times rows times frequencies) one chunk of the
# engine reads.  Blocks this small stay in cache between the einsum, the
# inverse transform and their reduction; 2^20 made verify slower than
# whole-row blocks, 2^15 to 2^16 faster.
CHUNK_ENTRIES = 1 << 16

# verify_zccs lists at most this many violations and counts all of them.
MAX_LISTED_VIOLATIONS = 1000

# verify_zccs's limits, checked before anything is allocated.  At n = 5120
# the spectra of the (256, 4, 2560) thm1 set are 2.6M entries (42 MB as
# complex128) and its M(M+1)/2 * n inverse-transform work is 1.7e8; the
# limits admit three times that work and, for a complex set of those dims
# (5.2M entries), 2^23 entries.  The pair limit bounds first_nonzero (8
# bytes a pair) and the per-code loop where n is too small for the work
# limit to: a (32767, 1, 1) file is 360 KB.  The spectrum count is of the M
# codes; packed (q in EXACT_MODULI), the engine holds their ceil(M / 2)
# partners in the same allocation, up to 1.5 times the entries counted.
MAX_SPECTRUM_ENTRIES = 1 << 23
MAX_TRANSFORM_WORK = 1 << 29
MAX_PAIRS = 1 << 22

# verify_zccs's listing dtypes, for integer and for float parts.
_LISTINGS = {
    exact: np.dtype([(name, np.int64) for name in "i j tau".split()] + [("real", t), ("imag", t)])
    for exact, t in ((True, np.int64), (False, np.float64))
}


class ProfileSizeError(ValueError):
    """The set is over a size limit of verify_zccs."""


class CorrelationValue(NamedTuple):
    """One correlation sum, split into real and imaginary parts.

    Both parts are ints for q in EXACT_MODULI, floats otherwise.
    """

    real: int | float
    imag: int | float

    def as_complex(self) -> complex:
        return complex(self.real, self.imag)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Everything verify_zccs measured about one code set.

    A real or imaginary part beyond tolerance counts as nonzero, and exact
    says the verdict is certified: every zero part reads within tolerance
    and every nonzero one beyond it.  violation_count is the number of
    in-zone violations; violations holds the first MAX_LISTED_VIOLATIONS
    of them in (i, j, |tau|, tau) order, as one read-only structured array
    with the columns i, j, tau (int64), real and imag (int64 for q in
    EXACT_MODULI, float64 otherwise), the pair's sum at tau.  Test it with
    len() or violation_count: a structured array has no truth value, and
    one all-zero record is falsy.  first_nonzero holds, for each code pair
    (i, j), i <= j, in the order of np.triu_indices(M), the smallest |tau|
    at which the pair's sum, less N * L at shift 0 of a diagonal pair, is
    nonzero: L when it never is.  measured_zcz is its minimum, the widest
    zone the data actually support.  expected_peak is N * L, every code's
    autocorrelation at shift 0, as sum_t |u_t|^2 = N * L for unit values; a
    code off it would show as a violation (i, i, 0).  zccs_ok refers to the
    zone that was checked, z_checked.
    """

    set_size: int
    code_size: int
    length: int
    q: int
    z_checked: int
    exact: bool
    tolerance: float
    expected_peak: int
    measured_zcz: int
    violation_count: int
    violations: np.ndarray
    first_nonzero: np.ndarray
    zccs_ok: bool
    optimal: bool

    def listed_rows(self, stop: int | None = None) -> Iterator[tuple]:
        """The first stop rows of violations (all by default) as tuples of Python scalars."""
        table = self.violations
        return zip(*(table[name][:stop].tolist() for name in table.dtype.names))


def is_optimal(set_size: int, code_size: int, length: int, zone: int) -> bool:
    """Whether (M, N, L, Z) meets the size bound M = N * floor(L / Z) exactly."""
    if min(set_size, code_size, length, zone) < 1:
        raise ValueError("all four parameters must be positive")
    if zone > length:
        raise ValueError(f"zone {zone} exceeds length {length}")
    return set_size == code_size * (length // zone)


def _check_float_range(q: int, error: type[ValueError] = ValueError) -> None:
    """Refuse a modulus beyond the float range, over which omega_q^phase cannot be formed."""
    if q > sys.float_info.max:
        raise error(
            f"modulus q of {q.bit_length()} bits is beyond the float range "
            f"(q <= {sys.float_info.max:.6g}) in which its values are formed"
        )


def _phase_row(q: int, row) -> np.ndarray:
    """row as a 1-D int64 array of phases in [0, q); ValueError otherwise."""
    arr = np.asarray(row)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise ValueError(f"need a nonempty 1-D integer phase array, got {arr.shape} {arr.dtype}")
    if arr.min() < 0 or arr.max() >= q:
        raise ValueError(f"phases must lie in [0, {q}), got [{arr.min()}, {arr.max()}]")
    return arr.astype(np.int64)


def accs(q: int, u, v, tau: int) -> CorrelationValue:
    """Aperiodic cross-correlation of two phase rows over Z_q at one shift.

    Computed by direct dot product, deliberately not sharing code with the
    FFT engine (_blocks) so the two can check each other.  The parts are
    ints for q in EXACT_MODULI, whose float partial sums are exact integers
    below 2^53, and floats otherwise.  A modulus beyond the float range
    raises ValueError before anything is allocated.
    """
    _check_float_range(q)
    u, v = _phase_row(q, u), _phase_row(q, v)
    length = len(u)
    if len(v) != length:
        raise ValueError(f"sequences differ in length: {length} vs {len(v)}")
    cast = int if q in EXACT_MODULI else float
    if abs(tau) >= length:
        return CorrelationValue(cast(0), cast(0))
    if tau < 0:
        flipped = accs(q, v, u, -tau)
        return CorrelationValue(flipped.real, -flipped.imag)
    u_values, v_values = unit_values(q, u)[tau:], unit_values(q, v)[: length - tau]
    total = np.vdot(v_values, u_values)
    return CorrelationValue(cast(total.real), cast(total.imag))


def set_accs(q: int, code_u, code_v, tau: int) -> CorrelationValue:
    """Correlation sum between two codes, (N, L) phase rows: row-wise accs, added up."""
    if len(code_u) != len(code_v):
        raise ValueError(f"codes differ in size: {len(code_u)} vs {len(code_v)}")
    parts = [accs(q, su, sv, tau) for su, sv in zip(code_u, code_v)]
    return CorrelationValue(sum(p.real for p in parts), sum(p.imag for p in parts))


@lru_cache(maxsize=256)
def _fft_length(length: int) -> int:
    """Smallest n >= 2L - 1 of the form 2^a, 3 * 2^a or 5 * 2^a.

    At any n >= 2L - 1 circular correlation equals aperiodic correlation
    for every |tau| < L: shift tau sits at index tau mod n.  pocketfft has
    native radix-3 and radix-5 passes, and the paper's lengths R * gamma,
    gamma = 5 * 2^(m1 - 3), pad to 5 * 2^a instead of 8 * 2^a.
    """
    # r * 2^a >= 2L - 1 exactly when 2^a > (2L - 2) // r
    return min(r << ((2 * length - 2) // r).bit_length() for r in (1, 3, 5))


@lru_cache(maxsize=256)
def _rounding_bound(code_size: int, length: int) -> float:
    """A-priori bound on |FFT value - exact sum| for any entry of a block.

    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Theorem 24.2: a length-n radix-2 FFT has normwise relative error at
    most log2(n) * eta / (1 - log2(n) * eta), where eta <= 4 eps for
    accurately computed twiddle factors.  Rows have unit-modulus entries,
    so ||x||_2 = sqrt(L) and every spectrum entry is at most ||x||_1 = L.
    Carried through the two forward transforms, the product, the sum over
    N rows and the inverse transform, this bounds every entry by
    eps * N * L^(3/2) * (12 log2(n) + N + 2).

    pocketfft factors n into radix-4 and radix-2 passes and, for the
    lengths of _fft_length, one radix-3 or radix-5 pass.  Each pass is
    charged as radix-2 stages by the roundings on the path from one input
    to one output, where a radix-2 stage has one addition and one twiddle
    product, and an addition plus a product by a real constant of modulus
    below 1 round no more than a twiddle product:
    - radix 4: two additions, a free product by i, one twiddle; two stages;
    - radix 3: three additions, one real product, one twiddle; two stages;
    - radix 5: four additions, one real product, one twiddle; three stages.
    So log2(n) becomes ceil(log2 n).  For every n of _fft_length that is
    log2 of the smallest power of two P >= 2L - 1, as P / 2 < 2L - 1 <= n
    <= P: the bound is the one padding to P had.  The real-input transforms
    are not plain radix-2; the factor 16 in place of 12 is a margin for
    them, not a proof, and the observed-residual check does not rest on it.

    A packed row (_pack_base) is the product of a code's spectrum with a
    partner conj(X_2g) + B * conj(X_(2g+1)): the conjugate transform of
    x_2g + B * x_(2g+1), whose entries have modulus at most 1 + B, so every
    term above scales by 1 + B, and (1 + B) times this bound bounds its
    entries.  The partner is formed from the two transforms; conjugating
    and multiplying by the power of two B are exact, so its error is
    X_2g's plus B times X_(2g+1)'s, and the addition rounds once more,
    relative eps: a quarter of one radix-2 stage's eta, so 12 log2(n)
    becomes 12 log2(n) + 1, charged to the same margin of 16 over 12.

    Row 0 of each code has the spectrum of K * delta, the exact integer K =
    N * L (B * N * L for the high half of a packed row) in every bin, taken
    off.  K is exact in float64, so the subtraction rounds once, relative
    eps, like the partner addition: 12 log2(n) + 2, charged to the same
    margin.  The observed-residual check of _round_certified backs it.
    """
    log_n = (_fft_length(length) - 1).bit_length()
    eps = float(np.finfo(np.float64).eps)
    return 16 * eps * (log_n + code_size) * code_size * length**1.5


def _round_certified(block: np.ndarray, bound: float, direct) -> np.ndarray:
    """A float FFT block rounded to integers, or direct() when not certified.

    Rounding is certified when the a-priori bound and the largest observed
    distance to an integer are both below 1/4.  direct computes the same
    block in integer arithmetic.  block is overwritten.
    """
    rounded = np.rint(block)
    residual = np.abs(np.subtract(block, rounded, out=block), out=block)
    if bound < 0.25 and residual.max(initial=0.0) < 0.25:
        return rounded
    return direct()


def _direct_block(values: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The block of the code pairs (first[r], second[r]), in integer arithmetic.

    It is the block the engine gives: a diagonal pair (i, i) has N * L taken
    off at shift 0, where every code's autocorrelation is N * L.  values is
    the set's exact (M, N, L) value array; its real and imaginary parts are
    integers, so every float partial sum below 2^53 is exact.
    np.correlate(a, v, "full") lists sum_t a[t + tau] * conj(v[t]) for tau
    from -(L - 1) to L - 1 in ascending order; tau goes to index tau mod n.
    """
    _, code_size, length = values.shape
    n = _fft_length(length)
    block = np.zeros((len(first), n), dtype=values.dtype)
    for row, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
        sums = sum(np.correlate(u, v, "full") for u, v in zip(values[i], values[j]))
        block[row, :length] = sums[length - 1 :]
        block[row, n - length + 1 :] = sums[: length - 1]
    block[first == second, 0] -= code_size * length
    return block


def _energy_limit(n: int, margin: float) -> float:
    """Cross-spectrum energy E below which a pair's n circular sums are all
    under margin: sum |c(tau)|^2 = E / n.  A margin <= 0 certifies nothing."""
    return n * margin * margin if margin > 0 else 0.0


def _pair_starts(set_size: int) -> np.ndarray:
    """Pair (i, i)'s number, for i = 0..M; code i's pairs (i, j >= i) follow."""
    return np.array([i * set_size - i * (i - 1) // 2 for i in range(set_size + 1)])


def _pack_base(code_size: int, length: int) -> int:
    """B, the power of two by which code 2g + 1 rides on code 2g in the
    partner they share, or 0 to pack nothing.

    B is the smallest power of two above 2 * N * L.  Every sum of two codes
    has parts |Re|, |Im| <= N * L < B / 2, so a packed sum x = c + B * d
    splits back exactly: d = rint(x / B), c = x - B * d.  Packing scales
    the round-off bound by 1 + B (see _rounding_bound) and is used only
    where that stays below 1/4.
    """
    base = 1 << (2 * code_size * length).bit_length()
    return base if (1 + base) * _rounding_bound(code_size, length) < 0.25 else 0


def _blocks(code_set: CodeSet, margin: float = 0.0) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(first, second, block) for each chunk of the engine's rows.

    Row r of block holds, at index tau mod n, the sum over rows of codes
    first[r] <= second[r] at shift tau, less N * L at shift 0 when the two
    are one code.  Each pair kept is yielded once, in the order of
    np.triu_indices(M).  A block is real for q <= 2 and complex otherwise,
    and for q in EXACT_MODULI rounded to certified integers.  A pair below
    _energy_limit(n, margin) is left out; margin 0 keeps all.

    The engine's rows run code by code.  The partners are the codes'
    conjugate spectra, or, for q in EXACT_MODULI where _pack_base gives
    B > 0, P_g = conj(X_2g) + B * conj(X_(2g+1)), X the spectra and
    X_M = 0, one for every two codes; w is the number of codes per partner.
    Code a's rows are X_a times the partners g >= a // w: packed, row g is
    the spectrum of pair (a, 2g)'s sums plus B times pair (a, 2g + 1)'s.
    Row after row, the pairs come in pair order.  Packed rows are tested
    and rounded with the margin less B * b and the bound (1 + B) * b, and
    the halves (a, a - 1) and (a, M) are dropped.  Row 0 of code a holds
    its diagonal pair and has N * L * delta taken off, or, for odd a
    packed, B * N * L * delta.
    """
    q, phases = code_set.q, code_set.phases
    set_size, code_size, length = phases.shape
    values = unit_values(q, phases)
    n = _fft_length(length)
    real = not np.iscomplexobj(values)
    forward, inverse = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    bound = _rounding_bound(code_size, length)
    base = _pack_base(code_size, length) if q in EXACT_MODULI else 0
    width = 2 if base else 1
    # Spectra and partners share one allocation, the transform written into
    # its head: a second array, or a copy of a returned one, costs fresh
    # pages that outweigh the einsum work packing saves.
    bins = n // 2 + 1 if real else n
    buffer = np.empty((set_size + (set_size + 1) // 2 if base else set_size, code_size, bins), complex)
    spectra = forward(values, n, out=buffer[:set_size])
    del values
    # Kept conjugated, so each code's einsum conjugates a copy of its own
    # (N, bins) rows only, never the whole set.
    np.conjugate(spectra, out=spectra)
    partners = spectra
    if base:
        partners, half = buffer[set_size:], set_size // 2
        np.multiply(spectra[1::2], base, out=partners[:half])
        partners[:half] += spectra[: 2 * half : 2]
        partners[half:] = spectra[2 * half :]
        margin -= base * bound
        bound *= 1 + base
    # A real block's bins f and n - f have one modulus and rfft keeps
    # f <= n / 2, so twice the energy of its bins bounds E.
    limit = _energy_limit(n, margin) / (2 if real else 1)
    peak = code_size * length
    # Code a's rows are row_list[a] <= r < row_list[a + 1].
    row_list = list(accumulate((len(partners) - a // width for a in range(set_size)), initial=0))
    row_starts, total = np.array(row_list), row_list[-1]
    chunk = max(1, CHUNK_ENTRIES // spectra[0].size)
    cross = np.empty((min(chunk, total), bins), complex)
    for r0 in range(0, total, chunk):
        r1 = min(r0 + chunk, total)
        rows, kept = cross[: r1 - r0], np.arange(r0, r1)
        # one einsum per code with rows in the chunk
        for a in range(bisect_right(row_list, r0) - 1, bisect_left(row_list, r1)):
            s0, s1 = max(r0, row_list[a]) - r0, min(r1, row_list[a + 1]) - r0
            g0 = a // width + s0 + r0 - row_list[a]
            np.einsum("nf,gnf->gf", spectra[a].conj(), partners[g0 : g0 + s1 - s0], out=rows[s0:s1])
            if row_list[a] >= r0:  # row 0, less the spectrum of c_aa's peak
                rows[s0] -= peak * (base if a % width else 1)
        if limit > 0:
            parts = rows.view(np.float64)
            keep = np.einsum("pf,pf->p", parts, parts) >= limit
            if not keep.all():
                rows, kept = rows[keep], kept[keep]
        if not kept.size:
            continue
        # Row r of code a is partner g = a // w + r - row_starts[a]: its halves
        # are pairs (a, j), j = w * g .. w * g + w - 1, each kept if a <= j < M.
        code = np.searchsorted(row_starts, kept, "right") - 1
        second = (width * (code // width + kept - row_starts[code])[:, None] + np.arange(width)).ravel()
        first = np.repeat(code, width)
        halves = (first <= second) & (second < set_size)
        block = inverse(rows, n)
        if q in EXACT_MODULI:

            def direct():
                """The rows' sums, packed as the rows are; exact below 2^53."""
                sums = np.zeros((first.size, n), block.dtype)
                sums[halves] = _direct_block(unit_values(q, phases), first[halves], second[halves])
                return np.dot((1, base)[:width], sums.reshape(-1, width, n)).view(np.float64)

            # real and imaginary parts rounded alike, through a float64 view
            parts = _round_certified(block.view(np.float64), bound, direct)
            if base:  # row r's low half to row 2r, its high half to row 2r + 1
                split = np.empty((len(parts), 2, parts.shape[1]))
                np.rint(np.divide(parts, base, out=split[:, 1]), out=split[:, 1])
                np.subtract(parts, base * split[:, 1], out=split[:, 0])
                parts = split
            block = parts.view(block.dtype).reshape(-1, n)
        if not halves.all():
            first, second, block = first[halves], second[halves], block[halves]
        # only the rows yielded stay alive while the caller reduces them
        rows = parts = split = None
        yield first, second, block


@lru_cache(maxsize=256)
def _separation(q: int, code_size: int, length: int) -> float:
    """Lower bound s on |S| for a nonzero sum or peak difference S in Z[zeta_q].

    The embeddings zeta -> zeta^k of S, k <= q / 2 coprime to q, are r
    conjugate pairs (r = 1 for q <= 2) of modulus at most 2 * N * L whose
    product is a nonzero integer (Washington, Introduction to Cyclotomic
    Fields, ch. 2), so |S| >= (2 * N * L)^(1 - r).  For q > 2^15,
    phi(q) >= sqrt(q / 2) > 128 puts s / 4 below 2^-66, under any
    _rounding_bound, so s is taken as 0 there.
    """
    if q > 1 << 15:
        return 0.0
    pairs = max(1, int(np.count_nonzero(np.gcd(np.arange(1, q // 2 + 1), q) == 1)))
    return float(2 * code_size * length) ** (1 - pairs)


def verify_zccs(code_set: CodeSet, z: int | None = None) -> CorrelationReport:
    """Check the zero-correlation-zone claim of a code set exhaustively.

    z defaults to the declared zone.  Every unordered code pair is checked
    at every shift, one engine block at a time; see CorrelationReport for
    what is measured.  A set whose spectra would exceed
    MAX_SPECTRUM_ENTRIES, whose M(M+1)/2 * n inverse-transform work would
    exceed MAX_TRANSFORM_WORK or whose M(M+1)/2 code pairs would exceed
    MAX_PAIRS raises ProfileSizeError, a ValueError, before anything is
    allocated; so does a modulus beyond the float range, over which the
    values omega_q^phase cannot be formed.
    """
    set_size, code_size, length, declared = code_set.dims
    _check_float_range(code_set.q, ProfileSizeError)
    n = _fft_length(length)
    spectrum = set_size * code_size * (n // 2 + 1 if code_set.q <= 2 else n)
    pairs = set_size * (set_size + 1) // 2
    work = pairs * n
    if spectrum > MAX_SPECTRUM_ENTRIES or work > MAX_TRANSFORM_WORK or pairs > MAX_PAIRS:
        raise ProfileSizeError(
            f"(M, N, L) = ({set_size}, {code_size}, {length}) needs {spectrum} spectrum "
            f"entries and {work} inverse-transform work for {pairs} code pairs, over the "
            f"limits {MAX_SPECTRUM_ENTRIES}, {MAX_TRANSFORM_WORK} and {MAX_PAIRS} pairs"
        )
    zone = declared if z is None else int(z)
    if not 1 <= zone <= length:
        raise ValueError(f"zone {zone} out of range [1, {length}]")
    integer = code_set.q in EXACT_MODULI
    quarter = _separation(code_set.q, code_size, length) / 4
    bound = _rounding_bound(code_size, length)
    roundoff = 0.0 if integer else bound
    tolerance, exact = max(quarter, roundoff), roundoff < quarter
    expected_peak = code_size * length

    # Zone columns in listing order, shifts 0, -1, 1, -2, 2, ...: position
    # p holds |tau| = (p + 1) // 2.
    taus = np.zeros(2 * zone - 1, dtype=np.int64)
    taus[1::2], taus[2::2] = -np.arange(1, zone), np.arange(1, zone)
    columns = taus % n
    starts = _pair_starts(set_size)
    first_nonzero = np.full(pairs, length, dtype=np.int64)
    listing = _LISTINGS[integer]
    tables, count, room = [np.empty(0, listing)], 0, MAX_LISTED_VIOLATIONS
    # A pair the engine leaves out has every exact sum below tolerance, so
    # zero, and the rows below would have read it as zero throughout.
    for first_code, second_code, block in _blocks(code_set, tolerance - bound):
        if integer:
            nonzero = block != 0
        else:
            parts = np.abs(block.view(np.float64)) > tolerance
            nonzero = parts[:, 0::2] | parts[:, 1::2]
        ahead = nonzero[:, :length]
        near = np.where(ahead.any(axis=1), ahead.argmax(axis=1), length)
        if length > 1:
            # shifts -1, -2, ..., -(L - 1) at indices n - 1, n - 2, ...
            behind = nonzero[:, n - 1 : n - length : -1]
            near = np.minimum(near, np.where(behind.any(axis=1), behind.argmax(axis=1) + 1, length))
        first_nonzero[starts[first_code] + second_code - first_code] = near
        hit = np.flatnonzero(near < zone)
        if not hit.size:
            continue
        in_zone = nonzero[hit[:, None], columns]
        count += int(np.count_nonzero(in_zone))
        if room > 0:
            row, position = (index[:room] for index in np.nonzero(in_zone))
            row = hit[row]
            values = block[row, columns[position]]
            found = np.empty(row.size, listing)
            found["i"], found["j"] = first_code[row], second_code[row]
            found["tau"] = taus[position]
            found["real"], found["imag"] = values.real, values.imag
            tables.append(found)
            room -= row.size
    violations = np.concatenate(tables)
    violations.setflags(write=False)
    first_nonzero.setflags(write=False)
    ok = count == 0
    return CorrelationReport(
        set_size=set_size,
        code_size=code_size,
        length=length,
        q=code_set.q,
        z_checked=zone,
        exact=exact,
        tolerance=tolerance,
        expected_peak=expected_peak,
        measured_zcz=int(first_nonzero.min()),
        violation_count=count,
        violations=violations,
        first_nonzero=first_nonzero,
        zccs_ok=ok,
        optimal=ok and is_optimal(set_size, code_size, length, zone),
    )
