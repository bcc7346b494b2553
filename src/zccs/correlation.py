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

verify_zccs computes every pair profile with one batched FFT engine.  It
transforms the set's whole (M, N, L) value array once, zero-padded to the
power of two n >= 2L - 1 at which circular correlation equals aperiodic
correlation.  Then, code i at a time, it sums the cross-spectra against
every code j >= i over the rows and inverse-transforms them in one call.
Real value arrays (q <= 2) use rfft/irfft, complex ones fft/ifft.
accs and set_accs compute one shift by direct dot products and share no
code with the engine but unit_values, so the two check each other.

For q in EXACT_MODULI the values are the Gaussian integers +-1 and +-i.
The engine rounds each code's block of profiles to integers and certifies
the rounding: _rounding_bound and the largest observed distance to an
integer must both stay below 1/4, or np.correlate recomputes the block.

One zero test serves every modulus: a nonzero sum in Z[zeta_q] has modulus
at least s (_separation), so its real or imaginary part exceeds s / 2.  A
part above tolerance = max(s / 4, b) counts as nonzero, where the round-off
b is 0 for integer profiles and _rounding_bound otherwise.  The verdict is
exact, certified, when b < s / 4; otherwise a zero sum still never reads
as nonzero, and the report says exact=False.  s = 1 for q in
{1, 2, 3, 4, 6}; q = 5, 8, 10, 12 are certified up to L = 65536, 32768,
16384, 8192, 4096 for N = 1, 2, 4, 8, 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constructions import CodeSet
from .gbf import unit_values

EXACT_MODULI = (1, 2, 4)

# The most profile entries M(M+1)/2 * (2L - 1) verify allocates, 1.55 times
# the 10.8M of the (32, 4, 10240) thm1 set; as float64 pairs they take 268 MB.
MAX_PROFILE_ENTRIES = 1 << 24


class ProfileSizeError(ValueError):
    """The set's profiles would exceed MAX_PROFILE_ENTRIES."""


class CorrelationValue(NamedTuple):
    """One correlation sum, split into real and imaginary parts.

    Both parts are ints for q in EXACT_MODULI, floats otherwise.
    """

    real: int | float
    imag: int | float

    def as_complex(self) -> complex:
        return complex(self.real, self.imag)

    def magnitude(self) -> float:
        return float(np.hypot(self.real, self.imag))


class Violation(NamedTuple):
    """Nonzero correlation where the zone demands zero.

    A violation at (i, i, 0) means the autocorrelation peak missed its
    expected value; everywhere else it is a plain nonzero sum in the zone.
    """

    i: int
    j: int
    tau: int
    value: CorrelationValue


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Everything verify_zccs measured about one code set.

    profiles is one (M(M+1)/2, 2L-1, 2) array, with one row per code pair
    (i, j), i <= j, in the order of np.triu_indices(M).  It holds integers
    for q in EXACT_MODULI (int32 unless N * L needs int64), float64
    otherwise.  profiles[p, t] holds the real and imaginary parts of the
    pair's sum at shift tau = t - (L - 1).  A part beyond tolerance counts
    as nonzero, and exact says the verdict is certified: every zero part
    reads within tolerance and every nonzero one beyond it.
    measured_zcz is the widest zone the data actually supports: the
    smallest |tau| at which any pair turns nonzero (L when none does), or 0
    when some peak misses.  zccs_ok refers to the zone that was checked,
    z_checked.
    """

    set_size: int
    code_size: int
    length: int
    q: int
    z_checked: int
    exact: bool
    tolerance: float
    expected_peak: int
    peaks: tuple[CorrelationValue, ...]
    measured_zcz: int
    violations: tuple[Violation, ...]
    zccs_ok: bool
    optimal: bool
    profiles: np.ndarray

    def profile_value(self, i: int, j: int, tau: int) -> CorrelationValue:
        """Correlation sum between codes i and j at shift tau (i <= j)."""
        if not 0 <= i <= j < self.set_size:
            raise ValueError(f"need 0 <= i <= j < {self.set_size}, got i={i}, j={j}")
        if abs(tau) >= self.length:
            return CorrelationValue(*np.zeros(2, self.profiles.dtype).tolist())
        pair = i * self.set_size - i * (i - 1) // 2 + j - i
        return CorrelationValue(*self.profiles[pair, tau + self.length - 1].tolist())


def is_optimal(set_size: int, code_size: int, length: int, zone: int) -> bool:
    """Whether (M, N, L, Z) meets the size bound M = N * floor(L / Z) exactly."""
    if min(set_size, code_size, length, zone) < 1:
        raise ValueError("all four parameters must be positive")
    if zone > length:
        raise ValueError(f"zone {zone} exceeds length {length}")
    return set_size == code_size * (length // zone)


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
    batched profile path so the two can check each other.  The parts are
    ints for q in EXACT_MODULI, whose float partial sums are exact integers
    below 2^53, and floats otherwise.
    """
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


def _fft_length(length: int) -> int:
    """Smallest power of two n >= 2L - 1.

    At that length circular correlation equals aperiodic correlation for
    every |tau| < L: shift tau sits at index tau mod n.
    """
    return 1 << (2 * length - 2).bit_length()


def _rounding_bound(code_size: int, length: int) -> float:
    """A-priori bound on |FFT value - exact sum| for any entry of a profile.

    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Theorem 24.2: a length-n radix-2 FFT has normwise relative error at
    most log2(n) * eta / (1 - log2(n) * eta), where eta <= 4 eps for
    accurately computed twiddle factors.  Rows have unit-modulus entries,
    so ||x||_2 = sqrt(L) and every spectrum entry is at most ||x||_1 = L.
    Carried through the two forward transforms, the product, the sum over
    N rows and the inverse transform, this bounds every entry by
    eps * N * L^(3/2) * (12 log2(n) + N + 2).  The real-input transforms
    are not plain radix-2; the factor 16 in place of 12 is a margin for
    them, not a proof, and the observed-residual check does not rest on it.
    """
    log_n = _fft_length(length).bit_length() - 1
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


def _direct_block(i: int, values: np.ndarray) -> np.ndarray:
    """(M - i, 2L - 1, 2) integer profiles of the pairs (i, j >= i).

    values is the set's exact (M, N, L) value array; its real and imaginary
    parts are integers, so every float partial sum below 2^53 is exact.
    np.correlate(a, v, "full") lists sum_t a[t + tau] * conj(v[t]) for tau
    from -(L - 1) to L - 1 in ascending order, which is the profile's order.
    """
    set_size, _, length = values.shape
    block = np.empty((set_size - i, 2 * length - 1, 2), dtype=np.int64)
    for j in range(i, set_size):
        sums = sum(np.correlate(u, v, "full") for u, v in zip(values[i], values[j]))
        block[j - i, :, 0], block[j - i, :, 1] = sums.real, sums.imag
    return block


def _exact_dtype(code_size: int, length: int) -> type:
    """Narrowest of int32 and int64 that holds every sum; |sum| <= N * L."""
    return np.int32 if code_size * length <= np.iinfo(np.int32).max else np.int64


def _profiles(code_set: CodeSet, integer: bool) -> np.ndarray:
    """Every pair profile of the set; see CorrelationReport.profiles."""
    q, phases = code_set.q, code_set.phases
    set_size, code_size, length = phases.shape
    values = unit_values(q, phases)
    n = _fft_length(length)
    if np.iscomplexobj(values):
        forward, inverse = np.fft.fft, np.fft.ifft
    else:
        forward, inverse = np.fft.rfft, np.fft.irfft
    spectra = forward(values, n)
    del values
    # Kept conjugated, so each code's einsum conjugates a copy of its own
    # (N, n) rows only, never the whole set.
    np.conjugate(spectra, out=spectra)

    profiles = np.empty(
        (set_size * (set_size + 1) // 2, 2 * length - 1, 2),
        dtype=_exact_dtype(code_size, length) if integer else np.float64,
    )
    start = 0
    for i in range(set_size):
        stop = start + set_size - i
        sums = inverse(np.einsum("nf,jnf->jf", spectra[i].conj(), spectra[i:]), n)
        block = np.empty(profiles[start:stop].shape) if integer else profiles[start:stop]
        # shift tau sits at index tau mod n of the circular correlation
        block[:, : length - 1, 0] = sums[:, n - length + 1 :].real
        block[:, length - 1 :, 0] = sums[:, :length].real
        block[:, : length - 1, 1] = sums[:, n - length + 1 :].imag
        block[:, length - 1 :, 1] = sums[:, :length].imag
        del sums
        if integer:
            profiles[start:stop] = _round_certified(
                block,
                _rounding_bound(code_size, length),
                lambda: _direct_block(i, unit_values(q, phases)),
            )
        start = stop
    return profiles


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


def _nonzero(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Whether the real or the imaginary part (last axis) exceeds the tolerance."""
    outside = (values > tolerance) | (values < -tolerance)
    return outside[..., 0] | outside[..., 1]


def verify_zccs(code_set: CodeSet, z: int | None = None) -> CorrelationReport:
    """Check the zero-correlation-zone claim of a code set exhaustively.

    z defaults to the declared zone.  Every unordered code pair is profiled
    over all shifts; violations list the in-zone failures, measured_zcz the
    zone the data would actually support.  A set of more than
    MAX_PROFILE_ENTRIES profile entries raises ProfileSizeError, a
    ValueError, before anything is allocated.
    """
    set_size, code_size, length, declared = code_set.dims
    entries = set_size * (set_size + 1) // 2 * (2 * length - 1)
    if entries > MAX_PROFILE_ENTRIES:
        raise ProfileSizeError(
            f"(M, L) = ({set_size}, {length}) needs {entries} profile entries, "
            f"over the limit {MAX_PROFILE_ENTRIES}"
        )
    zone = declared if z is None else int(z)
    if not 1 <= zone <= length:
        raise ValueError(f"zone {zone} out of range [1, {length}]")
    integer = code_set.q in EXACT_MODULI
    quarter = _separation(code_set.q, code_size, length) / 4
    roundoff = 0.0 if integer else _rounding_bound(code_size, length)
    tolerance, exact = max(quarter, roundoff), roundoff < quarter
    profiles = _profiles(code_set, integer)

    center = length - 1
    expected_peak = code_size * length
    first, second = np.triu_indices(set_size)
    diag = np.flatnonzero(first == second)
    peaks = profiles[diag, center]
    # A peak counts as nonzero where it misses N * L, so shift 0 of a
    # diagonal pair is a violation exactly when its peak is off.
    nonzero = _nonzero(profiles, tolerance)
    nonzero[diag, center] = _nonzero(peaks - np.array([expected_peak, 0]), tolerance)
    taus = np.arange(1 - length, length)
    measured = int(np.abs(taus[nonzero.any(axis=0)]).min(initial=length))

    pair, col = np.nonzero(nonzero[:, center - zone + 1 : center + zone])
    tau = col - (zone - 1)
    order = np.lexsort((tau, np.abs(tau), pair))
    pair, tau = pair[order], tau[order]
    values = profiles[pair, tau + center].tolist()
    violations = tuple(
        Violation(int(first[p]), int(second[p]), t, CorrelationValue(*v))
        for p, t, v in zip(pair.tolist(), tau.tolist(), values)
    )
    ok = not violations
    return CorrelationReport(
        set_size=set_size,
        code_size=code_size,
        length=length,
        q=code_set.q,
        z_checked=zone,
        exact=exact,
        tolerance=tolerance,
        expected_peak=expected_peak,
        peaks=tuple(CorrelationValue(*v) for v in peaks.tolist()),
        measured_zcz=measured,
        violations=violations,
        zccs_ok=ok,
        optimal=ok and is_optimal(set_size, code_size, length, zone),
        profiles=profiles,
    )


def measure_zcz(code_set: CodeSet) -> int:
    """Widest zone the set actually supports; 0 when a peak is off."""
    return verify_zccs(code_set, z=1).measured_zcz
