"""Aperiodic correlation sums and zero-zone verification.

The aperiodic cross-correlation of two length-L sequences u, v at shift tau
is sum_t u[t + tau] * conj(v[t]) over the overlapping window, zero once
|tau| >= L.  Between two codes it is the sum of the row-wise correlations.
Verification checks every code pair of a set at every shift and reports
where the zero-correlation claim breaks.

A sequence is a 1-D integer array of phases in Z_q, a code its (N, L)
rows, and a set the CodeSet's (M, N, L) array.  gbf.unit_values is the one
table from phases to values, and the modulus alone fixes the arithmetic:
exact for q in EXACT_MODULI, complex128 with a tolerance otherwise.

verify_zccs computes every pair profile with one batched FFT engine.  It
transforms the set's whole (M, N, L) value array once, zero-padded to the
power of two n >= 2L - 1 at which circular correlation equals aperiodic
correlation.  Then, code i at a time, it sums the cross-spectra against
every code j >= i over the rows and inverse-transforms them in one call.
Real value arrays (q <= 2) use rfft/irfft, complex ones fft/ifft.
accs and set_accs compute one shift by direct dot products and share no
code with the engine but unit_values, so the two check each other.

Arithmetic is exact for moduli 1, 2 and 4, whose values are the Gaussian
integers +-1 and +-i.  The engine rounds each code's block of profiles to
integers and certifies the rounding: an a-priori round-off bound
(_rounding_bound) and the largest observed distance to an integer must
both stay below 1/4.  A block that fails either check is recomputed
in integers by np.correlate.  A zero test is then literal equality.

Other moduli are checked in complex128 with an absolute tolerance of
1e-6 * N * L, and their reports say exact=False.  The tolerance sits far
above the round-off, but it does not sit below every nonzero sum: for
phi(q) > 2 a nonzero sum of q-th roots of unity can be arbitrarily small.
One q = 8 pair of rows with N = 1 and L = 3363 (u holding 1393 zeros, 985
fives and 985 threes, v all zeros) has the cross sum 1393 - 985 * sqrt(2),
about -3.6e-4, at shift 0.  Its tolerance is 3.4e-3, so verify_zccs passes
that set although the sum violates the zone.  Exact checking for every
modulus is the ROADMAP.md item "Exact verification for every modulus".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constructions import CodeSet
from .gbf import unit_values

EXACT_MODULI = (1, 2, 4)

FLOAT_TOLERANCE_SCALE = 1e-6


class CorrelationValue(NamedTuple):
    """One correlation sum, split into real and imaginary parts.

    Both parts are ints when produced by the exact engine, floats otherwise.
    """

    real: int | float
    imag: int | float

    def as_complex(self) -> complex:
        return complex(self.real, self.imag)

    def magnitude(self) -> float:
        return float(np.hypot(self.real, self.imag))

    def is_zero(self, tolerance: float = 0.0) -> bool:
        return abs(self.real) <= tolerance and abs(self.imag) <= tolerance


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
    when exact (int32 unless N * L needs int64), float64 otherwise.
    profiles[p, t] holds the real and imaginary parts of the pair's sum at
    shift tau = t - (L - 1).  measured_zcz is the widest zone the data
    actually supports: the smallest |tau| at which any pair turns nonzero
    (L when none does), or 0 when some peak misses.
    zccs_ok refers to the zone that was checked, z_checked.
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
            return CorrelationValue(0, 0) if self.exact else CorrelationValue(0.0, 0.0)
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
    ints for q in EXACT_MODULI, floats otherwise.
    """
    u, v = _phase_row(q, u), _phase_row(q, v)
    length = len(u)
    if len(v) != length:
        raise ValueError(f"sequences differ in length: {length} vs {len(v)}")
    exact = q in EXACT_MODULI
    if abs(tau) >= length:
        return CorrelationValue(0, 0) if exact else CorrelationValue(0.0, 0.0)
    if tau < 0:
        flipped = accs(q, v, u, -tau)
        return CorrelationValue(flipped.real, -flipped.imag)
    u_values, v_values = unit_values(q, u)[tau:], unit_values(q, v)[: length - tau]
    if exact:
        ur, ui = u_values.real.astype(np.int64), u_values.imag.astype(np.int64)
        vr, vi = v_values.real.astype(np.int64), v_values.imag.astype(np.int64)
        return CorrelationValue(int(ur @ vr) + int(ui @ vi), int(ui @ vr) - int(ur @ vi))
    total = np.vdot(v_values, u_values)
    return CorrelationValue(float(total.real), float(total.imag))


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
    n = _fft_length(length)
    eps = float(np.finfo(np.float64).eps)
    return 16 * eps * (np.log2(n) + code_size) * code_size * length**1.5


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
    parts are integers.  np.correlate(a, v, "full") lists
    sum_t a[t + tau] * v[t] for tau from -(L - 1) to L - 1 in ascending
    order, which is the profile's order.
    """
    real, imag = values.real.astype(np.int64), values.imag.astype(np.int64)
    set_size, _, length = real.shape
    block = np.zeros((set_size - i, 2 * length - 1, 2), dtype=np.int64)
    for j in range(i, set_size):
        for ur, ui, vr, vi in zip(real[i], imag[i], real[j], imag[j]):
            block[j - i, :, 0] += np.correlate(ur, vr, "full") + np.correlate(ui, vi, "full")
            block[j - i, :, 1] += np.correlate(ui, vr, "full") - np.correlate(ur, vi, "full")
    return block


def _exact_dtype(code_size: int, length: int) -> type:
    """Narrowest of int32 and int64 that holds every sum; |sum| <= N * L."""
    return np.int32 if code_size * length <= np.iinfo(np.int32).max else np.int64


def _profiles(code_set: CodeSet, exact: bool) -> np.ndarray:
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
        dtype=_exact_dtype(code_size, length) if exact else np.float64,
    )
    start = 0
    for i in range(set_size):
        stop = start + set_size - i
        sums = inverse(np.einsum("nf,jnf->jf", spectra[i].conj(), spectra[i:]), n)
        block = np.empty(profiles[start:stop].shape) if exact else profiles[start:stop]
        # shift tau sits at index tau mod n of the circular correlation
        block[:, : length - 1, 0] = sums[:, n - length + 1 :].real
        block[:, length - 1 :, 0] = sums[:, :length].real
        block[:, : length - 1, 1] = sums[:, n - length + 1 :].imag
        block[:, length - 1 :, 1] = sums[:, :length].imag
        del sums
        if exact:
            profiles[start:stop] = _round_certified(
                block,
                _rounding_bound(code_size, length),
                lambda: _direct_block(i, unit_values(q, phases)),
            )
        start = stop
    return profiles


def _nonzero(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Whether the real or the imaginary part (last axis) exceeds the tolerance."""
    outside = (values > tolerance) | (values < -tolerance)
    return outside[..., 0] | outside[..., 1]


def verify_zccs(code_set: CodeSet, z: int | None = None) -> CorrelationReport:
    """Check the zero-correlation-zone claim of a code set exhaustively.

    z defaults to the declared zone.  Every unordered code pair is profiled
    over all shifts; violations list the in-zone failures, measured_zcz the
    zone the data would actually support.
    """
    set_size, code_size, length, declared = code_set.dims
    zone = declared if z is None else int(z)
    if not 1 <= zone <= length:
        raise ValueError(f"zone {zone} out of range [1, {length}]")
    exact = code_set.q in EXACT_MODULI
    tolerance = 0.0 if exact else FLOAT_TOLERANCE_SCALE * code_size * length
    profiles = _profiles(code_set, exact)

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
