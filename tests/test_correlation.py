"""Correlation engine against a from-the-definition reference."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from zccs import (
    ChainParams,
    CodeSet,
    CorrelationValue,
    GBF,
    Lemma1Params,
    Lemma2Params,
    Term,
    accs,
    is_optimal,
    lemma1_ccc,
    lemma2_ccc,
    set_accs,
    theorem1_zccs,
    theorem2_zccs,
    theorem3_zccs,
    verify_zccs,
    z,
)
from zccs import correlation
from zccs.correlation import (
    MAX_LISTED_VIOLATIONS,
    ProfileSizeError,
    Violation,
    _direct_block,
    _fft_length,
    _round_certified,
    _rounding_bound,
)
from zccs.gbf import unit_values

from conftest import (
    brute_accs,
    brute_nonzero,
    brute_set_accs,
    brute_values,
    mutate_one_phase,
    quadratic_gbf,
    q8_counterexample,
)


def random_seq(rng, q, length):
    return rng.integers(0, q, size=length)


def random_set(rng, q, set_size, code_size, length):
    """Uniformly random phases: no complementarity, so most sums are nonzero."""
    return CodeSet(q, 1, rng.integers(0, q, size=(set_size, code_size, length)))


def assembled_profiles(code_set, blocks):
    """Whole pair profiles from (first, second, block) items in the engine's layout.

    One (M(M+1)/2, 2L-1, 2) array, one row per code pair (i, j), i <= j, in
    the order of np.triu_indices(M), int64 for q in (1, 2, 4) and float64
    otherwise: profiles[p, t] holds the real and imaginary parts of the
    pair's sum at shift tau = t - (L - 1), less N * L at shift 0 of a
    diagonal pair, as the engine gives it.
    """
    set_size, _, length = code_set.phases.shape
    n = _fft_length(length)
    profiles = np.zeros(
        (set_size * (set_size + 1) // 2, 2 * length - 1, 2),
        dtype=np.int64 if code_set.q in (1, 2, 4) else np.float64,
    )
    number = np.full((set_size, set_size), -1)
    number[np.triu_indices(set_size)] = np.arange(len(profiles))
    for first, second, block in blocks:
        pairs = number[first, second]
        for part, values in enumerate((block.real, block.imag)):
            profiles[pairs, : length - 1, part] = values[:, n - length + 1 :]
            profiles[pairs, length - 1 :, part] = values[:, :length]
    return profiles


def engine_profiles(code_set):
    """Every pair profile from the FFT engine, which without a margin leaves no pair out."""
    return assembled_profiles(code_set, correlation._blocks(code_set))


def direct_profiles(code_set):
    """Every pair profile from _direct_block: np.correlate, which shares
    nothing with the FFT, so it is the reference the reductions are tested
    against."""
    first, second = np.triu_indices(code_set.set_size)
    block = _direct_block(unit_values(code_set.q, code_set.phases), first, second)
    return assembled_profiles(code_set, [(first, second, block)])


def profile_value(profiles, set_size, i, j, tau):
    """Pair (i, j)'s sum at tau, read from a whole-profile array."""
    first, second = np.triu_indices(set_size)
    pair = np.flatnonzero((first == i) & (second == j))[0]
    return CorrelationValue(*profiles[pair, tau + profiles.shape[1] // 2].tolist())


def reduce_profiles(profiles, set_size, tolerance, zone):
    """first_nonzero and every in-zone violation, derived from whole profiles.

    The reduction verify_zccs made over the stored profile array before it
    went block by block: a part beyond tolerance is nonzero, violations in
    (pair, |tau|, tau) order.  A diagonal pair's shift 0 holds its peak's
    deviation from N * L, so it is nonzero where the peak misses.
    """
    center = profiles.shape[1] // 2
    first, second = np.triu_indices(set_size)
    nonzero = (np.abs(profiles) > tolerance).any(axis=2)
    taus = np.arange(-center, center + 1)
    first_nonzero = [int(np.abs(taus[row]).min(initial=center + 1)) for row in nonzero]
    pair, col = np.nonzero(nonzero[:, center - zone + 1 : center + zone])
    tau = col - (zone - 1)
    order = np.lexsort((tau, np.abs(tau), pair))
    violations = [
        Violation(int(first[p]), int(second[p]), int(t), CorrelationValue(*profiles[p, center + t]))
        for p, t in zip(pair[order].tolist(), tau[order].tolist())
    ]
    return first_nonzero, violations


@pytest.fixture(scope="module")
def small_ccc():
    """(2, 2, 4, 4) binary complete set from a weight-1 two-vertex path."""
    f = GBF(2, 2, (Term(1, (z(0), z(1))),))
    return lemma2_ccc(Lemma2Params(2, 2, f))


@pytest.fixture(scope="module")
def quaternary_ccc():
    """(4, 4, 8, 8) quaternary complete set; one deleted vertex."""
    f = GBF(3, 4, (Term(2, (z(0), z(1))), Term(2, (z(1), z(2))), Term(1, (z(2),))))
    return lemma2_ccc(Lemma2Params(4, 3, f, deleted=(0,)))


class TestAccs:
    def test_hand_worked_binary_pair(self):
        a = [0, 0]  # values (+1, +1)
        b = [0, 1]  # values (+1, -1)
        assert accs(2, a, a, 0) == CorrelationValue(2, 0)
        assert accs(2, a, a, 1) == CorrelationValue(1, 0)
        assert accs(2, b, b, 1) == CorrelationValue(-1, 0)
        # complementary pair: shifted sums cancel
        assert accs(2, a, a, 1).real + accs(2, b, b, 1).real == 0
        assert accs(2, a, b, 0) == CorrelationValue(0, 0)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_exact_matches_brute_force(self, q):
        rng = np.random.default_rng(100 + q)
        for _ in range(20):
            length = int(rng.integers(1, 12))
            u = random_seq(rng, q, length)
            v = random_seq(rng, q, length)
            for tau in range(-length - 1, length + 2):
                got = accs(q, u, v, tau)
                assert isinstance(got.real, int) and isinstance(got.imag, int)
                want = brute_accs(brute_values(q, u), brute_values(q, v), tau)
                assert got.as_complex() == pytest.approx(want, abs=1e-9)

    def test_float_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            length = int(rng.integers(2, 10))
            u = random_seq(rng, 8, length)
            v = random_seq(rng, 8, length)
            for tau in range(-length, length + 1):
                got = accs(8, u, v, tau).as_complex()
                want = brute_accs(brute_values(8, u), brute_values(8, v), tau)
                assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_conjugate_symmetry(self, q):
        rng = np.random.default_rng(200 + q)
        u = random_seq(rng, q, 16)
        v = random_seq(rng, q, 16)
        for tau in range(-16, 17):
            lhs = accs(q, u, v, -tau).as_complex()
            rhs = accs(q, v, u, tau).as_complex().conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_zero_outside_overlap(self):
        u = (0, 1, 2)
        assert accs(4, u, u, 3) == CorrelationValue(0, 0)
        assert accs(4, u, u, -3) == CorrelationValue(0, 0)
        assert accs(4, u, u, 100) == CorrelationValue(0, 0)
        far = accs(8, u, u, 3)
        assert far == CorrelationValue(0.0, 0.0)
        assert isinstance(far.real, float)

    def test_shape_checks(self):
        for u, v in (
            ((0,), (0, 1)),  # unequal lengths
            (((0, 1),), ((0, 1),)),  # not 1-D
            ((0.0, 1.0), (0, 1)),  # not integers
        ):
            with pytest.raises(ValueError):
                accs(2, u, v, 0)
            with pytest.raises(ValueError):
                accs(2, v, u, 0)

    @pytest.mark.parametrize("q", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_modulus_beyond_float_range_is_refused(self, q):
        # omega_q^phase is formed in floats, which q must fit, as in verify_zccs
        match = f"modulus q of {q.bit_length()} bits is beyond the float range"
        with pytest.raises(ValueError, match=match):
            accs(q, [0, 1], [0, 1], 1)
        with pytest.raises(ValueError, match=match):
            set_accs(q, [[0, 1]], [[0, 1]], 0)

    def test_modulus_at_the_float_range_is_formed(self):
        # one product omega^1 * conj(omega^0), just off the real axis
        value = accs(2**1023, [0, 1], [0, 1], 1)
        assert value.real == 1.0 and 0 < value.imag < 1e-306


class TestSetAccs:
    def test_is_sum_of_rows(self, small_ccc):
        c0, c1 = small_ccc.phases[0], small_ccc.phases[1]
        for tau in range(-4, 5):
            want = sum(accs(2, u, v, tau).as_complex() for u, v in zip(c0, c1))
            assert set_accs(2, c0, c1, tau).as_complex() == want

    def test_size_mismatch(self, small_ccc):
        with pytest.raises(ValueError):
            set_accs(2, small_ccc.phases[0], small_ccc.phases[0][:1], 0)

    def test_matches_brute_force(self, quaternary_ccc):
        c0, c2 = quaternary_ccc.phases[0], quaternary_ccc.phases[2]
        for tau in (-7, -3, -1, 0, 1, 2, 5):
            got = set_accs(4, c0, c2, tau).as_complex()
            assert got == pytest.approx(brute_set_accs(4, c0, c2, tau), abs=1e-9)


class TestIsOptimal:
    def test_known_cases(self):
        assert is_optimal(16, 8, 320, 160)
        assert is_optimal(8, 8, 480, 320)
        assert is_optimal(4, 4, 80, 80)
        assert not is_optimal(8, 8, 320, 160)
        assert not is_optimal(4, 2, 10, 3)  # floor gives 6

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            is_optimal(0, 1, 4, 2)
        with pytest.raises(ValueError):
            is_optimal(1, 1, 4, 5)


class TestVerify:
    def test_complete_set_passes(self, small_ccc):
        report = verify_zccs(small_ccc)
        assert report.zccs_ok and report.optimal and report.exact
        assert report.violations == ()
        assert report.measured_zcz == 4
        assert report.expected_peak == 8
        assert report.tolerance == 0.25

    def test_profiles_match_brute_force(self, quaternary_ccc):
        profiles = engine_profiles(quaternary_ccc)
        set_size, length = quaternary_ccc.set_size, quaternary_ccc.length
        assert profiles.shape == (set_size * (set_size + 1) // 2, 2 * length - 1, 2)
        for (i, j) in ((0, 0), (0, 1), (1, 3), (2, 2)):
            for tau in range(-length + 1, length):
                got = profile_value(profiles, set_size, i, j, tau).as_complex()
                want = brute_set_accs(4, quaternary_ccc.phases[i], quaternary_ccc.phases[j], tau)
                if i == j and tau == 0:
                    want -= quaternary_ccc.code_size * length
                assert got == pytest.approx(want, abs=1e-9)

    def test_single_flip_is_caught(self, quaternary_ccc):
        bad = mutate_one_phase(quaternary_ccc, ci=1, ri=0, pos=3, delta=2)
        report = verify_zccs(bad)
        assert not report.zccs_ok
        assert not report.optimal
        assert report.violations
        for v in report.violations:
            assert v.i <= v.j
            assert abs(v.tau) < bad.zcz
            assert v.value != (0, 0)
        assert report.measured_zcz < bad.length

    def test_violations_sorted_and_cross_at_zero(self, small_ccc):
        bad = mutate_one_phase(small_ccc, ci=0, ri=1, pos=0)
        report = verify_zccs(bad)
        keys = [(v.i, v.j, abs(v.tau), v.tau) for v in report.violations]
        assert keys == sorted(keys)
        assert any(v.tau == 0 and v.i != v.j for v in report.violations)

    def test_zone_argument(self, small_ccc):
        narrow = verify_zccs(small_ccc, z=2)
        assert narrow.z_checked == 2
        assert narrow.zccs_ok
        # narrower zone than length breaks the equality bound
        assert not narrow.optimal
        with pytest.raises(ValueError):
            verify_zccs(small_ccc, z=0)
        with pytest.raises(ValueError):
            verify_zccs(small_ccc, z=small_ccc.length + 1)

    def test_violation_tau_sign(self):
        # u = (+1, +1), v = (+1, -1): sum_t u[t + tau] v[t] is +1 at tau = 1
        # and -1 at tau = -1.
        report = verify_zccs(CodeSet(2, 2, np.array([[[0, 0]], [[0, 1]]])))
        cross = [(v.tau, v.value) for v in report.violations if (v.i, v.j) == (0, 1)]
        assert cross == [(-1, CorrelationValue(-1, 0)), (1, CorrelationValue(1, 0))]

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_violation_parts_are_int_or_float(self, q):
        report = verify_zccs(random_set(np.random.default_rng(q), q, 3, 2, 16), z=8)
        assert report.violations
        part = int if q in (1, 2, 4) else float
        assert report.listed["real"].dtype == (np.int64 if part is int else np.float64)
        for v in report.violations:
            assert type(v.value.real) is part and type(v.value.imag) is part
            assert all(type(index) is int for index in v[:3])

    def test_measure_zcz(self, small_ccc):
        assert verify_zccs(small_ccc, z=1).measured_zcz == small_ccc.length
        mutant = mutate_one_phase(small_ccc, 0, 0, 1)
        assert verify_zccs(mutant, z=1).measured_zcz < small_ccc.length


class TestFloatOnlyModuli:
    def test_octary_sequence_fails_beyond_trivial_zone(self):
        cs = CodeSet(8, 1, np.array([[[0, 1, 2, 3]]]))
        trivial = verify_zccs(cs)
        assert trivial.exact
        assert trivial.tolerance == 1 / (8 * cs.code_size * cs.length)
        assert trivial.zccs_ok  # zone 1 only demands the peak
        assert trivial.expected_peak == 4 and trivial.violation_count == 0
        wider = verify_zccs(cs, z=2)
        assert not wider.zccs_ok
        assert wider.violations[0].tau in (-1, 1)
        # linear phase ramp: shift-1 sum has magnitude 3
        assert abs(wider.violations[0].value.as_complex()) == pytest.approx(3.0, abs=1e-9)


def near_cancelling_row(rng, q, length):
    """Phases whose running sum of values stays near zero: each step takes the
    phase that brings it closest, ties broken at random."""
    row, total = [], 0j
    for _ in range(length):
        gaps = [abs(total + np.exp(2j * np.pi * p / q)) for p in range(q)]
        best = [p for p in range(q) if gaps[p] <= min(gaps) + 1e-9]
        row.append(int(rng.choice(best)))
        total += np.exp(2j * np.pi * row[-1] / q)
    return row


class TestDerivedZeroTest:
    """One zero test for every q: parts beyond max(s / 4, round-off) are nonzero."""

    def test_q8_counterexample_is_caught(self):
        report = verify_zccs(q8_counterexample())
        assert report.exact and not report.zccs_ok
        assert [(v.i, v.j, v.tau) for v in report.violations] == [(0, 1, 0)]
        value = report.violations[0].value
        assert value.real == pytest.approx(1393 - 985 * math.sqrt(2), abs=1e-9)
        assert value.real == pytest.approx(-3.6e-4, abs=1e-5)

    @pytest.mark.parametrize("q", [3, 5, 6, 8, 10, 12])
    def test_near_cancelling_profiles_match_embeddings(self, q):
        # Code 0 holds near-cancelling rows u, code 1 the rows u + c mod q,
        # code 2 the constant rows c, so the cross sums with code 2 are
        # running sums of u that stay near zero or hit it.
        rng = np.random.default_rng(400 + q)
        for trial in range(4):
            code_size, length = int(rng.integers(1, 3)), int(rng.integers(8, 41))
            c = int(rng.integers(0, q))
            u = np.array([near_cancelling_row(rng, q, length) for _ in range(code_size)])
            phases = np.stack([u, (u + c) % q, np.full_like(u, c)])
            if trial % 2:
                ci, ri, pos = (int(rng.integers(0, s)) for s in phases.shape)
                phases[ci, ri, pos] = (phases[ci, ri, pos] + int(rng.integers(1, q))) % q
            report = verify_zccs(CodeSet(q, 1, phases))
            assert report.exact
            profiles = engine_profiles(CodeSet(q, 1, phases))
            peak = code_size * length
            for i, j in itertools.combinations_with_replacement(range(3), 2):
                for tau in range(1 - length, length):
                    offset = peak if i == j and tau == 0 else 0
                    got = profile_value(profiles, 3, i, j, tau)
                    nonzero = max(abs(got.real), abs(got.imag)) > report.tolerance
                    assert nonzero == brute_nonzero(q, phases[i], phases[j], tau, offset)

    def test_beyond_certified_range_is_not_exact(self):
        report = verify_zccs(random_set(np.random.default_rng(16), 16, 2, 1, 512))
        assert not report.exact
        assert report.tolerance == _rounding_bound(1, 512)

    def test_exact_and_tolerance_are_builtin(self):
        for q in (2, 6, 8, 16):
            report = verify_zccs(random_set(np.random.default_rng(q), q, 2, 1, 512))
            assert type(report.exact) is bool and type(report.tolerance) is float


class TestSizeGuard:
    @pytest.mark.parametrize("q, entries", [(2, 3 * 2 * 9), (4, 3 * 2 * 16)])
    def test_verify_counts_real_and_complex_spectra(self, monkeypatch, q, entries):
        # L = 7 pads to n = 16: rfft keeps 9 bins, fft all 16
        cs = random_set(np.random.default_rng(2), q, 3, 2, 7)
        monkeypatch.setattr(correlation, "MAX_SPECTRUM_ENTRIES", entries - 1)
        with pytest.raises(ProfileSizeError, match=f"needs {entries} spectrum entries"):
            verify_zccs(cs)
        monkeypatch.setattr(correlation, "MAX_SPECTRUM_ENTRIES", entries)
        assert verify_zccs(cs).set_size == 3

    def test_verify_limits_fit_the_largest_sets(self, monkeypatch):
        class Admitted(Exception):
            pass

        def admit(code_set, margin):
            raise Admitted

        monkeypatch.setattr(correlation, "_blocks", admit)
        for q in (2, 4):
            with pytest.raises(Admitted):
                verify_zccs(CodeSet(q, 40, np.zeros((256, 4, 2560), np.int8)))
        # 134M pairs * n = 8 is over the work limit; 537M pairs at n = 1 and
        # 128M at n = 2 are within it but over the pair limit.  All are
        # refused before anything is allocated.
        for shape, need in [
            ((16384, 1, 4), "1073807360 inverse-transform work"),
            ((32767, 1, 1), "for 536854528 code pairs"),
            ((16000, 1, 2), "for 128008000 code pairs"),
        ]:
            tiny = CodeSet(2, 1, np.zeros(shape, np.int8))
            tracemalloc.start()
            try:
                with pytest.raises(ProfileSizeError, match=need):
                    verify_zccs(tiny)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16


class TestFftLength:
    """Padding to 2^a, 3 * 2^a or 5 * 2^a, with the radix-2 rounding bound kept."""

    LENGTHS = np.arange(1, (1 << 17) + 1)

    def test_smallest_of_the_three_families(self):
        family = np.sort([r << a for r in (1, 3, 5) for a in range(20)])
        powers = np.array([1 << a for a in range(20)])
        need = 2 * self.LENGTHS - 1
        got = np.array([_fft_length(length) for length in self.LENGTHS.tolist()])
        assert (got >= need).all()
        assert np.array_equal(got, family[np.searchsorted(family, need)])
        assert (got <= powers[np.searchsorted(powers, need)]).all()

    @pytest.mark.parametrize("code_size", [1, 2, 4, 16])
    def test_rounding_bound_is_the_radix_2_one(self, code_size):
        eps = float(np.finfo(np.float64).eps)
        for length in self.LENGTHS.tolist():
            log_power = (2 * length - 2).bit_length()
            want = 16 * eps * (log_power + code_size) * code_size * length**1.5
            assert _rounding_bound(code_size, length) == want


class TestEngineDifferential:
    """The FFT engine against accs/set_accs and the brute force, shift by shift.

    Random sets are not complementary, so their off-peak sums are nonzero
    and a profile read at -tau instead of tau, or conjugated, shows.
    """

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8])
    def test_random_sets(self, q):
        # L = 5, 10, 12 and 80 pad to n = 10, 20, 24 and 160, radix 3 and 5
        rng = np.random.default_rng(300 + q)
        exact = q in (1, 2, 4)
        lengths = (1, 2, 5, 7, 10, 12, 64, 80)
        for set_size, code_size, length in itertools.product((1, 3), (1, 2, 3), lengths):
            cs = random_set(rng, q, set_size, code_size, length)
            assert verify_zccs(cs).exact
            profiles = engine_profiles(cs)
            assert np.issubdtype(profiles.dtype, np.integer) == exact
            # brute_set_accs with each code's brute_values computed once
            values = [[brute_values(q, row) for row in code] for code in cs.phases]
            pairs = itertools.combinations_with_replacement(range(set_size), 2)
            for pair, (i, j) in enumerate(pairs):
                rows_i, rows_j = cs.phases[i], cs.phases[j]
                for tau in range(1 - length, length):
                    got = CorrelationValue(*profiles[pair, tau + length - 1].tolist())
                    # the engine gives a diagonal pair's peak less N * L
                    peak = code_size * length if i == j and tau == 0 else 0
                    direct = set_accs(q, rows_i, rows_j, tau)
                    direct = CorrelationValue(direct.real - peak, direct.imag)
                    brute = sum(brute_accs(u, v, tau) for u, v in zip(values[i], values[j])) - peak
                    if exact:
                        assert got == direct
                        assert isinstance(got.real, int) and isinstance(got.imag, int)
                    else:
                        assert got.as_complex() == pytest.approx(direct.as_complex(), abs=1e-9)
                    assert got.as_complex() == pytest.approx(brute, abs=1e-9)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_exact_profiles_are_int64(self, q):
        # small sets too, whose sums would fit a narrower integer: verify
        # keeps the engine's sums as int64 listings
        cs = random_set(np.random.default_rng(q), q, 2, 2, 3)
        report = verify_zccs(cs, z=3)
        assert report.listed.size
        assert report.listed["real"].dtype == report.listed["imag"].dtype == np.int64


def counted_direct_block(monkeypatch):
    """Patch _direct_block to record, per call, the (i, j) pairs it computes."""
    calls = []
    direct = correlation._direct_block

    def counted(values, first, second):
        calls.append(list(zip(first.tolist(), second.tolist())))
        return direct(values, first, second)

    monkeypatch.setattr(correlation, "_direct_block", counted)
    return calls


class TestRoundingCertificate:
    @pytest.fixture()
    def exact_block(self):
        """A (3, 16) complex block as its (3, 32) float64 view of parts."""
        cs = random_set(np.random.default_rng(17), 4, 3, 2, 7)
        first, second = np.zeros(3, np.int64), np.arange(3)
        return _direct_block(unit_values(4, cs.phases), first, second).view(np.float64)

    def test_direct_block_matches_set_accs(self):
        # L = 7 pads to n = 16: shift tau sits at index tau mod 16
        cs = random_set(np.random.default_rng(18), 4, 3, 2, 7)
        first, second = np.array([2, 0, 1, 0]), np.array([2, 1, 1, 0])
        block = _direct_block(unit_values(4, cs.phases), first, second)
        assert block.shape == (4, 16)
        assert not block[:, 7:10].any()
        for row, tau in itertools.product(range(4), range(-6, 7)):
            want = set_accs(4, cs.phases[first[row]], cs.phases[second[row]], tau).as_complex()
            # rows 0, 2 and 3 are diagonal pairs, whose peak N * L = 14 is taken off
            assert block[row, tau % 16] == want - (14 if first[row] == second[row] and tau == 0 else 0)

    @pytest.mark.parametrize("q", [2, 4])
    def test_forced_fallback_at_a_radix_5_length(self, monkeypatch, q):
        # L = 80 pads to n = 160 = 5 * 2^5
        cs = random_set(np.random.default_rng(22 + q), q, 3, 2, 80)
        values = unit_values(q, cs.phases)
        block = _direct_block(values, np.array([1, 1]), np.array([1, 2]))
        assert block.shape == (2, 160)
        assert not block[:, 80:81].any()
        for j, tau in itertools.product(range(1, 3), range(-79, 80)):
            want = set_accs(q, cs.phases[1], cs.phases[j], tau).as_complex()
            # pair (1, 1) has its peak N * L = 160 taken off
            assert block[j - 1, tau % 160] == want - (160 if j == 1 and tau == 0 else 0)
        default = engine_profiles(cs)
        monkeypatch.setattr(correlation, "_rounding_bound", lambda code_size, length: 1.0)
        calls = counted_direct_block(monkeypatch)
        assert np.array_equal(engine_profiles(cs), default)
        # all six pairs fit in one chunk
        assert calls == [[(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]]

    def test_engine_matches_direct_block(self):
        cs = random_set(np.random.default_rng(19), 4, 3, 2, 7)
        profiles = engine_profiles(cs)
        block = _direct_block(unit_values(4, cs.phases), *np.triu_indices(3))
        linear = np.concatenate([block[:, 10:], block[:, :7]], axis=1)
        assert np.array_equal(profiles, np.stack([linear.real, linear.imag], axis=-1))
        assert np.array_equal(profiles, direct_profiles(cs))

    def test_clean_block_is_rounded(self, exact_block):
        calls = []
        noisy = exact_block + 1e-9
        got = _round_certified(noisy, 1e-6, lambda: calls.append(1))
        assert calls == []
        assert np.array_equal(got, exact_block)

    def test_perturbed_entry_falls_back(self, exact_block):
        calls = []

        def direct():
            calls.append(1)
            return exact_block

        perturbed = exact_block.copy()
        perturbed[1, 4] += 0.3
        got = _round_certified(perturbed, 1e-6, direct)
        assert calls == [1]
        assert got is exact_block

    def test_failed_bound_falls_back(self, exact_block):
        calls = []
        _round_certified(exact_block.astype(np.float64), 0.25, lambda: calls.append(1))
        assert calls == [1]

    def test_bound_holds_for_long_set(self):
        assert _rounding_bound(4, 10240) < 0.25


def report_fields(report):
    """Every field of a report; first_nonzero as a list, the listed table as
    its dtype and its rows."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    fields["first_nonzero"] = report.first_nonzero.tolist()
    fields["listed"] = report.listed.tolist()
    fields["listed_dtype"] = report.listed.dtype
    return fields


def assert_same_report(got, want, q):
    """Reports agree field for field, the listing's dtype too; for q outside
    (1, 2, 4) the listed float values may differ by 1e-9, as float sums may
    round differently in another batching."""
    got, want = report_fields(got), report_fields(want)
    if q not in (1, 2, 4):
        got_rows, want_rows = got.pop("listed"), want.pop("listed")
        assert [row[:3] for row in got_rows] == [row[:3] for row in want_rows]
        assert np.allclose(
            [complex(*row[3:]) for row in got_rows], [complex(*row[3:]) for row in want_rows],
            rtol=0, atol=1e-9,
        )
    assert got == want


def assert_same_violations(got, want, q):
    """The same (i, j, tau) rows; their values equal for q in (1, 2, 4) and
    within 1e-9 otherwise, as np.correlate and the FFT round float sums
    differently."""
    assert [v[:3] for v in got] == [v[:3] for v in want]
    if q in (1, 2, 4):
        assert list(got) == want
    else:
        values = [[v.value.as_complex() for v in rows] for rows in (got, want)]
        assert np.allclose(*values, rtol=0, atol=1e-9)


class TestBlocks:
    """verify_zccs reduces one engine block at a time; chunking changes nothing."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8])
    def test_one_row_chunks_give_the_same_report(self, monkeypatch, q):
        rng = np.random.default_rng(300 + q)
        for set_size, code_size, length in itertools.product((1, 3), (1, 2, 3), (1, 2, 7, 64)):
            cs = random_set(rng, q, set_size, code_size, length)
            zone = max(1, length // 2)
            default = verify_zccs(cs, z=zone)
            monkeypatch.setattr(correlation, "CHUNK_ENTRIES", 1)
            split = verify_zccs(cs, z=zone)
            monkeypatch.undo()
            profiles = direct_profiles(cs)
            first_nonzero, violations = reduce_profiles(profiles, set_size, split.tolerance, zone)
            assert split.first_nonzero.tolist() == first_nonzero
            assert split.measured_zcz == min(first_nonzero)
            assert_same_violations(split.violations, violations, q)
            assert split.violation_count == len(violations)
            assert_same_report(split, default, q)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_forced_fallback_in_split_chunks(self, monkeypatch, q):
        cs = random_set(np.random.default_rng(20 + q), q, 5, 2, 9)
        default = report_fields(verify_zccs(cs, z=5))
        # L = 9 pads to n = 20; two pairs' spectra per chunk
        n = _fft_length(9)
        bins = n // 2 + 1 if q <= 2 else n
        monkeypatch.setattr(correlation, "CHUNK_ENTRIES", 2 * 2 * bins)
        monkeypatch.setattr(correlation, "_rounding_bound", lambda code_size, length: 1.0)
        calls = counted_direct_block(monkeypatch)
        forced = verify_zccs(cs, z=5)
        # a failed bound leaves no pair out: 15 pairs in chunks of two
        pairs = list(zip(*(index.tolist() for index in np.triu_indices(5))))
        assert calls == [pairs[p : p + 2] for p in range(0, 15, 2)]
        assert report_fields(forced) == default

    @pytest.mark.parametrize("q", [2, 4])
    def test_forced_residual_failure_of_packed_chunks(self, monkeypatch, q):
        cs = random_set(np.random.default_rng(20 + q), q, 5, 2, 9)
        default = report_fields(verify_zccs(cs, z=5))
        # two rows per chunk; every inverse transform is off by 0.3 at one
        # entry, so no chunk's rounding is certified
        n = _fft_length(9)
        bins = n // 2 + 1 if q <= 2 else n
        monkeypatch.setattr(correlation, "CHUNK_ENTRIES", 2 * 2 * bins)
        for name in ("irfft", "ifft"):

            def perturbed(spectra, n, inverse=getattr(np.fft, name)):
                block = inverse(spectra, n)
                block[0, 1] += 0.3
                return block

            monkeypatch.setattr(np.fft, name, perturbed)
        calls = counted_direct_block(monkeypatch)
        forced = verify_zccs(cs, z=5)
        # Packed, 5 codes make 11 rows, each code against the partners of
        # codes (0, 1), (2, 3) and (4, -): codes 0 and 1 on all three,
        # codes 2 and 3 on the last two, code 4 on the last.  Each chunk's
        # pairs are recomputed one by one, in pair order, without the
        # dropped halves (1, 0), (3, 2) and (a, 5).
        assert correlation._pack_base(2, 9) == 64
        assert calls == [
            [(0, 0), (0, 1), (0, 2), (0, 3)],
            [(0, 4), (1, 1)],
            [(1, 2), (1, 3), (1, 4)],
            [(2, 2), (2, 3), (2, 4)],
            [(3, 3), (3, 4)],
            [(4, 4)],
        ]
        assert report_fields(forced) == default

    @pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
    @pytest.mark.parametrize("q, set_size", [(2, 8), (2, 7), (4, 7)])
    def test_listing_stops_at_the_cap(self, monkeypatch, q, set_size, rows_per_chunk):
        # With an odd M the last partner holds one code; chunks of one and
        # three rows end inside a code's rows and split the cap across
        # chunks.
        cs = random_set(np.random.default_rng(21), q, set_size, 2, 64)
        if rows_per_chunk:
            bins = _fft_length(64) // 2 + 1 if q <= 2 else _fft_length(64)
            monkeypatch.setattr(correlation, "CHUNK_ENTRIES", rows_per_chunk * 2 * bins)
        assert correlation._pack_base(2, 64)
        report = verify_zccs(cs, z=64)
        first_nonzero, violations = reduce_profiles(direct_profiles(cs), set_size, report.tolerance, 64)
        assert len(violations) > MAX_LISTED_VIOLATIONS
        assert report.violation_count == len(violations)
        assert report.listed.tolist() == [
            (v.i, v.j, v.tau, *v.value) for v in violations[:MAX_LISTED_VIOLATIONS]
        ]
        assert list(report.violations) == violations[:MAX_LISTED_VIOLATIONS]
        assert report.first_nonzero.tolist() == first_nonzero
        assert not report.zccs_ok and not report.optimal


def path_quadratic(nvars, q=2):
    """Path 0-1-...-(nvars - 1) with every edge of weight q / 2."""
    return GBF(nvars, q, tuple(Term(q // 2, (z(i), z(i + 1))) for i in range(nvars - 1)))


def construction_sets():
    """One small set of each construction: lemma1, thm1 and thm3 binary,
    lemma2 and thm2 at q = 2, 4, 6 and 8."""
    binary = Lemma1Params(6, path_quadratic(2), (0, 1), deleted=(0,), beta1=1)
    sets = [lemma1_ccc(binary), theorem1_zccs(ChainParams(binary, l=1, r=2))]
    sets.append(theorem3_zccs(binary))
    for q in (2, 4, 6, 8):
        base = Lemma2Params(q, 4, path_quadratic(4, q), deleted=(0,), beta1=1)
        sets += [lemma2_ccc(base), theorem2_zccs(ChainParams(base, l=1, r=2))]
    return sets


def ccc_sets():
    """Complete complementary codes, whose every code has autocorrelation
    N * L * delta: lemma1 on the README base and on a path, and lemma2 at
    q = 2 and 4 in both bit orders."""
    readme = quadratic_gbf(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    sets = [
        lemma1_ccc(Lemma1Params(8, readme, (1, 1, 1, 1), deleted=(0, 1), beta1=2)),
        lemma1_ccc(Lemma1Params(6, path_quadratic(2), (0, 1), deleted=(0,), beta1=1)),
    ]
    for q in (2, 4):
        sets.append(lemma2_ccc(Lemma2Params(q, 4, path_quadratic(4, q), deleted=(0,), beta1=1)))
        sets.append(lemma2_ccc(Lemma2Params(q, 3, path_quadratic(3, q)), "msb"))
    return sets


def counted_inverse_rows(monkeypatch):
    """Patch the inverse transforms to record how many rows each call gets."""
    rows = []
    for name in ("irfft", "ifft"):

        def counted(spectra, n, inverse=getattr(np.fft, name)):
            rows.append(len(spectra))
            return inverse(spectra, n)

        monkeypatch.setattr(np.fft, name, counted)
    return rows


def kept_pairs(code_set, margin):
    """The (i, j) code pairs _blocks yields at margin, in order."""
    return [
        pair
        for first, second, _ in correlation._blocks(code_set, margin)
        for pair in zip(first.tolist(), second.tolist())
    ]


class TestZeroPairCertificate:
    """Pairs whose cross-spectrum energy certifies every sum zero, diagonal
    pairs taken less N * L * delta, are left out of the inverse transform;
    nothing a report says may change."""

    @staticmethod
    def no_skip(monkeypatch):
        monkeypatch.setattr(correlation, "_energy_limit", lambda n, margin: 0.0)

    def test_skip_never_changes_a_report(self, monkeypatch):
        rng = np.random.default_rng(23)
        sets = []
        for cs in construction_sets() + ccc_sets():
            m, n, length = cs.phases.shape
            ci, ri, pos = (int(rng.integers(size)) for size in (m, n, length))
            delta = int(rng.integers(1, cs.q))
            sets += [cs, mutate_one_phase(cs, ci, ri, pos, delta)]
        sets += [random_set(rng, q, 4, 2, 24) for q in (1, 2, 3, 4, 6, 8)]
        skipped = 0
        for cs in sets:
            for zone in (None, 1):
                fast = verify_zccs(cs, z=zone)
                # one pair per chunk: whole chunks are left out
                monkeypatch.setattr(correlation, "CHUNK_ENTRIES", 1)
                split = verify_zccs(cs, z=zone)
                self.no_skip(monkeypatch)
                full = verify_zccs(cs, z=zone)
                monkeypatch.undo()
                assert_same_report(fast, full, cs.q)
                assert_same_report(split, full, cs.q)
                skipped += int(np.count_nonzero(fast.first_nonzero == cs.length))
        # the construction sets are mostly uncorrelated pairs
        assert skipped > len(sets)

    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("code_size", [1, 3, 5])
    def test_a_unit_sum_at_one_shift_is_kept(self, monkeypatch, q, code_size):
        # Code 1's first row is phase 1 and its other rows cancel in pairs,
        # so pair (0, 1) sums to -1 (q = 2) or -i (q = 4) at tau = 0, its
        # only shift.  By Parseval its E / n is 1, over any limit n * margin^2
        # with margin <= 1/4.
        phases = np.zeros((2, code_size, 1), np.int64)
        phases[1, 0, 0] = 1
        phases[1, 2::2, 0] = q // 2
        cs = CodeSet(q, 1, phases)

        # Packed, pair (0, 0) shares code 0's row with pair (0, 1), which
        # keeps the row and yields both; code 1's row holds (1, 0), dropped,
        # and (1, 1), whose deviation from N * L * delta is (1, 0)'s sum.
        assert kept_pairs(cs, 0.25) == [(0, 0), (0, 1), (1, 1)]
        # One pair per row: at L = 1 either code's autocorrelation is
        # N * L * delta, so pairs (0, 0) and (1, 1) are left out.
        monkeypatch.setattr(correlation, "_pack_base", lambda code_size, length: 0)
        assert kept_pairs(cs, 0.25) == [(0, 1)]
        monkeypatch.undo()
        report = verify_zccs(cs)
        assert report.first_nonzero.tolist() == [1, 0, 1]
        unit = CorrelationValue(-1, 0) if q == 2 else CorrelationValue(0, -1)
        assert report.violations == (Violation(0, 1, 0, unit),)

    @pytest.mark.parametrize("chunk_entries", [None, 1])
    def test_complete_complementary_codes_run_no_inverse_transform(self, monkeypatch, chunk_entries):
        # in one-row chunks too, where row 0 of an odd code, holding its
        # diagonal pair in the high half, starts a chunk
        if chunk_entries:
            monkeypatch.setattr(correlation, "CHUNK_ENTRIES", chunk_entries)
        rows = counted_inverse_rows(monkeypatch)
        for cs in ccc_sets():
            report = verify_zccs(cs)
            assert report.zccs_ok and report.optimal and report.exact
            assert report.first_nonzero.tolist() == [cs.length] * len(report.first_nonzero)
        assert rows == []

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_every_peak_is_n_times_l(self, q):
        # The premise of taking N * L * delta off every diagonal pair: unit
        # values make sum_t |u_t|^2 = N * L, whatever the phases.
        rng = np.random.default_rng(500 + q)
        for code_size, length in ((1, 1), (2, 7), (3, 40), (4, 64)):
            code = rng.integers(0, q, (code_size, length))
            peak = set_accs(q, code, code, 0)
            if q in (1, 2, 4):
                assert peak == (code_size * length, 0)
            else:
                assert peak.as_complex() == pytest.approx(code_size * length, abs=1e-9)
            # and the diagonal rows of _direct_block read 0 at shift 0
            cs = random_set(rng, q, 3, code_size, length)
            block = _direct_block(unit_values(q, cs.phases), *np.triu_indices(3))
            centres = block[[0, 3, 5], 0]
            assert not centres.any() if q in (1, 2, 4) else np.abs(centres).max() < 1e-9

    @pytest.mark.parametrize("q", [6, 8])
    def test_other_moduli_certify_diagonal_pairs_too(self, monkeypatch, q):
        # float moduli take N * L * delta off alike, so a complete
        # complementary code runs no inverse transform and every diagonal
        # pair, the peak less N * L included, reads zero at every shift
        rows = counted_inverse_rows(monkeypatch)
        cs = lemma2_ccc(Lemma2Params(q, 4, path_quadratic(4, q), deleted=(0,), beta1=1))
        report = verify_zccs(cs)
        assert report.zccs_ok and report.exact
        assert rows == []
        assert report.first_nonzero.tolist() == [cs.length] * len(report.first_nonzero)

    @pytest.mark.parametrize("q", [2, 4])
    def test_a_broken_diagonal_pair_is_kept_and_listed(self, monkeypatch, q):
        # One phase of code 2 moved by q / 2: its autocorrelation at shifts
        # 6 to 10, which meet the moved phase once, changes by 2 in modulus.
        cs = lemma2_ccc(Lemma2Params(q, 4, path_quadratic(4, q), deleted=(0,), beta1=1))
        bad = mutate_one_phase(cs, ci=2, ri=1, pos=5, delta=q // 2)
        margin = 0.25 - _rounding_bound(bad.code_size, bad.length)
        assert (2, 2) in kept_pairs(bad, margin)
        diagonal = 2 * 4 - 2 * 1 // 2  # pair (2, 2) of 4 codes
        report = verify_zccs(bad)
        assert report.first_nonzero[diagonal] < bad.length
        own = [v.tau for v in report.violations if v.i == v.j == 2]
        assert 0 not in own  # the peak stays N * L
        assert set(range(6, 11)) <= {abs(tau) for tau in own}
        self.no_skip(monkeypatch)
        assert_same_report(report, verify_zccs(bad), q)

    def test_a_wrong_peak_is_listed_at_shift_0(self, monkeypatch):
        # Unit values cannot move a peak, so code 0's values are doubled:
        # its autocorrelation is 4 N L at shift 0 and zero elsewhere, and
        # every block goes through _direct_block, none packed or left out.
        cs = lemma1_ccc(Lemma1Params(6, path_quadratic(2), (0, 1), deleted=(0,), beta1=1))
        assert cs.dims == (4, 4, 40, 40)

        def doubled(q, phases):
            values = unit_values(q, phases)
            values[0] *= 2
            return values

        monkeypatch.setattr(correlation, "_rounding_bound", lambda code_size, length: 1.0)
        monkeypatch.setattr(correlation, "unit_values", doubled)
        report = verify_zccs(cs)
        peak = cs.code_size * cs.length
        assert report.expected_peak == peak
        assert report.violations == (Violation(0, 0, 0, CorrelationValue(3 * peak, 0)),)
        assert report.measured_zcz == 0 and not report.zccs_ok

    def test_kept_rows_are_the_correlated_pairs(self, monkeypatch):
        base = Lemma1Params(9, path_quadratic(5), (0,) * 5, deleted=(0,))
        cs = theorem1_zccs(ChainParams(base, l=2, r=4))
        assert cs.dims == (16, 4, 1280, 320)
        rows = []
        irfft = np.fft.irfft

        def counted(spectra, n):
            rows.append(len(spectra))
            return irfft(spectra, n)

        monkeypatch.setattr(np.fft, "irfft", counted)
        report = verify_zccs(cs)
        first, second = np.triu_indices(16)
        correlated = (first == second) | (report.first_nonzero < cs.length)
        assert report.zccs_ok and report.exact
        # two pairs per packed row: 24 rows carry the 40 correlated pairs
        assert sum(rows) == 24
        margin = report.tolerance - _rounding_bound(cs.code_size, cs.length)
        kept = kept_pairs(cs, margin)
        assert kept == list(zip(first[correlated].tolist(), second[correlated].tolist()))
        assert len(kept) == 40


def antipodal_set(q, set_size, code_size, length):
    """Codes u, -u, u, -u, ... of one random code u: every sum of a pair is
    +-u's autocorrelation, N * L or -N * L at shift 0."""
    code = np.random.default_rng(q + length).integers(0, q, (code_size, length))
    flips = (np.arange(set_size) % 2 * (q // 2))[:, None, None]
    return CodeSet(q, 1, (code + flips) % q)


class TestPacking:
    """For q in (1, 2, 4) pairs (a, 2g) and (a, 2g + 1) share one
    inverse-transformed row, X_a against the partner conj(X_2g) + B *
    conj(X_(2g+1)), where (1 + B) * _rounding_bound stays below 1/4;
    nothing a report says may change."""

    @staticmethod
    def unpacked(monkeypatch):
        monkeypatch.setattr(correlation, "_pack_base", lambda code_size, length: 0)

    def test_packing_never_changes_a_report(self, monkeypatch):
        rng = np.random.default_rng(29)
        sets = []
        for cs in construction_sets() + ccc_sets():
            if cs.q not in (1, 2, 4):
                continue
            m, n, length = cs.phases.shape
            ci, ri, pos = (int(rng.integers(size)) for size in (m, n, length))
            sets += [cs, mutate_one_phase(cs, ci, ri, pos, int(rng.integers(1, cs.q)))]
        for q in (1, 2, 4):
            sets += [random_set(rng, q, m, n, length) for m, n, length in ((5, 2, 24), (4, 3, 7))]
        for cs in sets:
            assert correlation._pack_base(cs.code_size, cs.length)
            for zone in (None, 1):
                packed = verify_zccs(cs, z=zone)
                monkeypatch.setattr(correlation, "CHUNK_ENTRIES", 1)
                split = verify_zccs(cs, z=zone)
                self.unpacked(monkeypatch)
                split_unpacked = verify_zccs(cs, z=zone)
                monkeypatch.undo()
                self.unpacked(monkeypatch)
                full = verify_zccs(cs, z=zone)
                monkeypatch.undo()
                for got in (packed, split, split_unpacked):
                    assert_same_report(got, full, cs.q)

    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("set_size", [4, 5])
    def test_extreme_sums_unpack_exactly(self, q, set_size):
        # each packed row's low half reaches +-N * L at shift 0, next to a
        # high half of the opposite sign
        cs = antipodal_set(q, set_size, 3, 10)
        assert correlation._pack_base(3, 10) == 64
        profiles = engine_profiles(cs)
        assert np.array_equal(profiles, direct_profiles(cs))
        first, second = np.triu_indices(set_size)
        # diagonal pairs read 30 - N * L = 0
        assert np.array_equal(profiles[:, 9, 0], np.where(first == second, 0, 30 * (-1) ** (second - first)))
        assert not profiles[:, 9, 1].any()

    @pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
    @pytest.mark.parametrize("q", [1, 2, 4, 6])
    @pytest.mark.parametrize("set_size", [4, 5])
    def test_pairs_come_once_in_pair_order(self, monkeypatch, q, set_size, rows_per_chunk):
        # Packed for q in (1, 2, 4), one pair per row for q = 6.  A dropped
        # half (a, a - 1) or (a, M) that leaked would come as i > j or
        # j = M, out of order or out of range, or twice.
        cs = random_set(np.random.default_rng(37 + q), q, set_size, 2, 9)
        if rows_per_chunk:
            bins = _fft_length(9) // 2 + 1 if q <= 2 else _fft_length(9)
            monkeypatch.setattr(correlation, "CHUNK_ENTRIES", rows_per_chunk * 2 * bins)
        values = unit_values(q, cs.phases)
        seen = []
        for first, second, block in correlation._blocks(cs):
            assert len(block) == len(first) == len(second) > 0
            assert ((first <= second) & (second < set_size)).all()
            want = _direct_block(values, first, second)
            assert np.allclose(block, want, rtol=0, atol=1e-9)
            seen += zip(first.tolist(), second.tolist())
        # margin 0 keeps every pair: each once, in pair order
        assert seen == list(zip(*(index.tolist() for index in np.triu_indices(set_size))))

    def test_refused_where_the_bound_would_fail(self):
        # (4, 4, 65536) has (1 + B) * b = 5.25 for B = 2^20: one code per row
        assert correlation._pack_base(4, 65536) == 0
        assert (1 + (1 << 20)) * _rounding_bound(4, 65536) > 5
        base = Lemma2Params(2, 16, path_quadratic(16), deleted=(0,))
        cs = lemma2_ccc(base)
        assert cs.dims == (4, 4, 65536, 65536)
        report = verify_zccs(cs)
        assert report.exact and report.zccs_ok and report.optimal
        assert report.violation_count == 0


def test_thm1_32_4_10240_1280():
    """The largest thm1 set the paper's chaining gives on a 7-vertex path."""
    quad = GBF(7, 2, tuple(Term(1, (z(i), z(i + 1))) for i in range(6)))
    base = Lemma1Params(11, quad, (1,) * 7, deleted=(0,))
    code_set = theorem1_zccs(ChainParams(base, l=3, r=8))
    assert code_set.dims == (32, 4, 10240, 1280)
    # two codes per row: (1 + B) * b = 0.0367 with B = 2^17
    assert correlation._pack_base(4, 10240) == 1 << 17
    report = verify_zccs(code_set)
    assert report.exact
    assert report.zccs_ok and report.optimal
    assert report.measured_zcz == 1280


def test_thm1_128_4_1280_40():
    """R = 32 blocks on the m1 = 6 path base: 32896 pairs less than verify's limits."""
    base = Lemma1Params(6, GBF(2, 2, (Term(1, (z(0), z(1))),)), (0, 1), deleted=(0,), beta1=1)
    code_set = theorem1_zccs(ChainParams(base, l=5, r=32))
    assert code_set.dims == (128, 4, 1280, 40)
    report = verify_zccs(code_set)
    assert report.exact and report.zccs_ok and report.optimal
    assert report.violation_count == 0
    assert report.measured_zcz == 40
