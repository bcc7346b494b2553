"""Aperiodic correlation sums and zero-zone verification.

The aperiodic cross-correlation of two length-L sequences u, v at shift tau
is sum_t u[t + tau] * conj(v[t]) over the overlapping window, zero once
|tau| >= L.  Between two codes it is the sum of the row-wise correlations.
Verification checks every code pair of a set at every shift and reports
where the zero-correlation claim breaks.

Arithmetic is exact for moduli 1, 2, and 4: values are Gaussian integers,
so each correlation splits into integer component correlations and a zero
test is literal equality.  Other moduli go through complex128 with an
absolute tolerance of 1e-6 * N * L, far above accumulated rounding error
for any set this package produces and far below the smallest value a true
violation can take.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constructions import CodeSet
from .gbf import PhaseSequence, unit_values

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

    profiles maps each pair (i, j), i <= j, to a (2L-1, 2) array of real and
    imaginary parts; row t holds the sum at shift tau = t - (L - 1).
    measured_zcz is the widest zone the data actually supports: the smallest
    |tau| at which any pair turns nonzero (L when none does), or 0 when some
    peak misses.  zccs_ok refers to the zone that was checked, z_checked.
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
    profiles: dict[tuple[int, int], np.ndarray]

    def profile_value(self, i: int, j: int, tau: int) -> CorrelationValue:
        """Correlation sum between codes i and j at shift tau (i <= j)."""
        if abs(tau) >= self.length:
            return CorrelationValue(0, 0) if self.exact else CorrelationValue(0.0, 0.0)
        row = self.profiles[(i, j)][tau + self.length - 1]
        if self.exact:
            return CorrelationValue(int(row[0]), int(row[1]))
        return CorrelationValue(float(row[0]), float(row[1]))


def is_optimal(set_size: int, code_size: int, length: int, zone: int) -> bool:
    """Whether (M, N, L, Z) meets the size bound M = N * floor(L / Z) exactly."""
    if min(set_size, code_size, length, zone) < 1:
        raise ValueError("all four parameters must be positive")
    if zone > length:
        raise ValueError(f"zone {zone} exceeds length {length}")
    return set_size == code_size * (length // zone)


def _use_exact(q: int, method: str) -> bool:
    if method == "auto":
        return q in EXACT_MODULI
    if method == "exact":
        if q not in EXACT_MODULI:
            raise ValueError(f"exact arithmetic supports moduli {EXACT_MODULI}, not q={q}")
        return True
    if method == "float":
        return False
    raise ValueError(f"method must be auto, exact, or float, got {method!r}")


def _gauss_components(q: int, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer real and imaginary parts; only defined for moduli 1, 2, 4."""
    if q == 1:
        return np.ones_like(phases), np.zeros_like(phases)
    if q == 2:
        return 1 - 2 * phases, np.zeros_like(phases)
    if q == 4:
        return (
            np.array([1, 0, -1, 0], dtype=np.int64)[phases],
            np.array([0, 1, 0, -1], dtype=np.int64)[phases],
        )
    raise ValueError(f"no Gaussian-integer form for q={q}")


def _check_same_shape(u: PhaseSequence, v: PhaseSequence) -> None:
    if u.q != v.q:
        raise ValueError(f"sequences use different moduli: {u.q} vs {v.q}")
    if len(u) != len(v):
        raise ValueError(f"sequences differ in length: {len(u)} vs {len(v)}")


def accs(u: PhaseSequence, v: PhaseSequence, tau: int, method: str = "auto") -> CorrelationValue:
    """Aperiodic cross-correlation of two sequences at one shift.

    Computed by direct dot product, deliberately not sharing code with the
    batched profile path so the two can check each other.
    """
    _check_same_shape(u, v)
    length = len(u)
    exact = _use_exact(u.q, method)
    if abs(tau) >= length:
        return CorrelationValue(0, 0) if exact else CorrelationValue(0.0, 0.0)
    if tau < 0:
        flipped = accs(v, u, -tau, method)
        return CorrelationValue(flipped.real, -flipped.imag)
    if exact:
        ur, ui = _gauss_components(u.q, np.asarray(u.phases, dtype=np.int64))
        vr, vi = _gauss_components(v.q, np.asarray(v.phases, dtype=np.int64))
        head = slice(tau, length)
        tail = slice(0, length - tau)
        re = int(ur[head] @ vr[tail]) + int(ui[head] @ vi[tail])
        im = int(ui[head] @ vr[tail]) - int(ur[head] @ vi[tail])
        return CorrelationValue(re, im)
    total = np.vdot(v.values()[: length - tau], u.values()[tau:])
    return CorrelationValue(float(total.real), float(total.imag))


def set_accs(code_u, code_v, tau: int, method: str = "auto") -> CorrelationValue:
    """Correlation sum between two codes: row-wise accs, added up."""
    if len(code_u) != len(code_v):
        raise ValueError(f"codes differ in size: {len(code_u)} vs {len(code_v)}")
    parts = [accs(su, sv, tau, method) for su, sv in zip(code_u, code_v)]
    return CorrelationValue(sum(p.real for p in parts), sum(p.imag for p in parts))


def _pair_profile(i: int, j: int, parts: tuple[np.ndarray, ...]) -> np.ndarray:
    """(2L-1, 2) real/imag profile of the correlation sum of codes i and j.

    parts holds whole-set arrays of shape (M, N, L): the integer real and
    imaginary Gaussian components for exact arithmetic (the imaginary one
    omitted when the set is real), or the complex values otherwise.
    np.correlate already conjugates its second argument; its full output
    indexes shifts in descending order, hence the final reversal.
    """
    if parts[0].dtype == np.complex128:
        vals = parts[0]
        acc = sum(np.correlate(u, v, "full") for u, v in zip(vals[i], vals[j]))
        rev = acc[::-1]
        return np.stack([rev.real.copy(), rev.imag.copy()], axis=1)
    re = np.zeros(2 * parts[0].shape[2] - 1, dtype=np.int64)
    im = np.zeros_like(re)
    if len(parts) == 1:
        for ur, vr in zip(parts[0][i], parts[0][j]):
            re += np.correlate(ur, vr, "full")
    else:
        real, imag = parts
        for ur, ui, vr, vi in zip(real[i], imag[i], real[j], imag[j]):
            re += np.correlate(ur, vr, "full")
            re += np.correlate(ui, vi, "full")
            im += np.correlate(ui, vr, "full")
            im -= np.correlate(ur, vi, "full")
    return np.stack([re[::-1], im[::-1]], axis=1)


def verify_zccs(
    code_set: CodeSet,
    z: int | None = None,
    method: str = "auto",
    workers: int = 1,
) -> CorrelationReport:
    """Check the zero-correlation-zone claim of a code set exhaustively.

    z defaults to the declared zone.  Every unordered code pair is profiled
    over all shifts; violations list the in-zone failures, measured_zcz the
    zone the data would actually support.  workers > 1 profiles pairs in a
    thread pool; results are identical to the serial path.
    """
    set_size, code_size, length, declared = code_set.dims
    zone = declared if z is None else int(z)
    if not 1 <= zone <= length:
        raise ValueError(f"zone {zone} out of range [1, {length}]")
    exact = _use_exact(code_set.q, method)
    tolerance = 0.0 if exact else FLOAT_TOLERANCE_SCALE * code_size * length

    if not exact:
        parts = (unit_values(code_set.q, code_set.phases),)
    elif code_set.q <= 2:
        parts = _gauss_components(code_set.q, code_set.phases)[:1]
    else:
        parts = _gauss_components(code_set.q, code_set.phases)
    pairs = [(i, j) for i in range(set_size) for j in range(i, set_size)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            profiles = dict(zip(pairs, pool.map(lambda ij: _pair_profile(*ij, parts), pairs)))
    else:
        profiles = {(i, j): _pair_profile(i, j, parts) for i, j in pairs}

    center = length - 1
    expected_peak = code_size * length

    def value_at(prof: np.ndarray, idx: int) -> CorrelationValue:
        if exact:
            return CorrelationValue(int(prof[idx, 0]), int(prof[idx, 1]))
        return CorrelationValue(float(prof[idx, 0]), float(prof[idx, 1]))

    peaks = []
    peaks_ok = True
    violations: list[Violation] = []
    for i in range(set_size):
        val = value_at(profiles[(i, i)], center)
        peaks.append(val)
        if not CorrelationValue(val.real - expected_peak, val.imag).is_zero(tolerance):
            peaks_ok = False
            violations.append(Violation(i, i, 0, val))

    clean_until = length
    for (i, j), prof in profiles.items():
        if exact:
            nonzero = (prof[:, 0] != 0) | (prof[:, 1] != 0)
        else:
            nonzero = (np.abs(prof[:, 0]) > tolerance) | (np.abs(prof[:, 1]) > tolerance)
        for idx in np.nonzero(nonzero)[0]:
            tau = int(idx) - center
            if i == j and tau == 0:
                continue
            clean_until = min(clean_until, abs(tau))
            if abs(tau) < zone:
                violations.append(Violation(i, j, tau, value_at(prof, int(idx))))

    violations.sort(key=lambda v: (v.i, v.j, abs(v.tau), v.tau))
    measured = 0 if not peaks_ok else clean_until
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
        peaks=tuple(peaks),
        measured_zcz=measured,
        violations=tuple(violations),
        zccs_ok=ok,
        optimal=ok and is_optimal(set_size, code_size, length, zone),
        profiles=profiles,
    )


def measure_zcz(code_set: CodeSet, method: str = "auto", workers: int = 1) -> int:
    """Widest zone the set actually supports; 0 when a peak is off."""
    return verify_zccs(code_set, z=1, method=method, workers=workers).measured_zcz
