"""Construction layer: parameter objects, seed functions, generators."""

import itertools
import tracemalloc

import numpy as np
import pytest

from zccs import (
    GBF,
    CodeSet,
    Lemma1Params,
    Lemma2Params,
    NotAPathError,
    Term,
    Theorem1Params,
    Theorem2Params,
    build_g,
    index_to_bits,
    lemma1_ccc,
    lemma2_ccc,
    theorem1_zccs,
    theorem2_zccs,
    theorem3_zccs,
    truth_table,
    verify_zccs,
    z,
    zbar,
)
from zccs import constructions, oracle

from conftest import brute_gbf, quadratic_gbf


def full_qary_seed(q):
    """Weight-q/2 path 0-1-2 on m2 = 3 with every linear and the constant
    coefficient q - 1: six terms, each near q."""
    terms = [Term(q // 2, (z(0), z(1))), Term(q // 2, (z(1), z(2))), Term(q - 1)]
    return GBF(3, q, (*terms, *(Term(q - 1, (z(i),)) for i in range(3))))


def row_tables(p, order="lsb"):
    """Rows and partners as the generators write them, mod q: [code n, row a]."""
    shape = (1 << p.k, 2 << p.k, p.seed_length)
    rows, partners = np.empty(shape, np.int64), np.empty(shape, np.int64)
    constructions._row_tables(p, order, rows, partners)
    return rows % p.q, partners % p.q


def tiny_params(**overrides):
    """Smallest admissible binary seed: one low variable, empty graph."""
    defaults = dict(m1=5, quadratic=GBF(1, 2, ()), d_vec=(0,), d=0, deleted=(), beta1=None)
    defaults.update(overrides)
    return Lemma1Params(**defaults)


class TestLemma1Params:
    def test_minimum_arity(self):
        with pytest.raises(ValueError):
            tiny_params(m1=4, quadratic=GBF(1, 2, ()))

    def test_quadratic_shape_checked(self):
        with pytest.raises(ValueError):
            tiny_params(quadratic=GBF(2, 2, ()))  # wrong variable count
        with pytest.raises(ValueError):
            tiny_params(quadratic=GBF(1, 4, ()))  # wrong modulus

    def test_quadratic_must_be_homogeneous(self):
        with pytest.raises(ValueError):
            Lemma1Params(6, GBF(2, 2, (Term(1, (z(0),)),)), (0, 0))

    def test_binary_coefficient_checks(self):
        with pytest.raises(ValueError):
            tiny_params(d_vec=(2,))
        with pytest.raises(ValueError):
            tiny_params(d=3)
        with pytest.raises(ValueError):
            tiny_params(d_vec=(0, 0))  # wrong length

    def test_beta1_must_be_an_end(self):
        q = quadratic_gbf(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            Lemma1Params(7, q, (0, 0, 0), beta1=1)  # interior vertex

    def test_non_path_inputs_rejected(self):
        triangle = quadratic_gbf(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotAPathError):
            Lemma1Params(7, triangle, (0, 0, 0))

    def test_deleting_everything_rejected(self):
        q = quadratic_gbf(2, [(0, 1)])
        with pytest.raises(NotAPathError) as info:
            Lemma1Params(6, q, (0, 0), deleted=(0, 1))
        assert info.value.reason == NotAPathError.EMPTY

    def test_default_beta1_is_smallest_end(self):
        p = Lemma1Params(7, quadratic_gbf(3, [(1, 2), (0, 1)]), (0, 0, 0))
        assert p.beta1 == 0

    def test_pair_end_is_opposite_end(self):
        q = quadratic_gbf(3, [(0, 1), (1, 2)])
        assert Lemma1Params(7, q, (0, 0, 0), beta1=0).pair_end == 2
        assert Lemma1Params(7, q, (0, 0, 0), beta1=2).pair_end == 0

    def test_pair_end_on_trivial_path(self):
        p = tiny_params()
        assert p.beta1 == 0
        assert p.pair_end == 0

    def test_derived_quantities(self):
        p = Lemma1Params(8, quadratic_gbf(4, [(2, 3)]), (0,) * 4, deleted=(0, 1))

        assert p.k == 2
        assert p.gamma == 160
        assert p.path.path_order == (2, 3)


class TestSeedFunction:
    """Closed-form checks of build_g on the three structured index regions.

    Writing v1..v4 for the top four variables (descending), the patch terms
    reduce to simple offsets once (v1, v2, v3) is pinned:
      (1, 0, 0): both patches collapse to z_beta1
      (0, 1, 1): alpha gives the constant 1, beta gives z_beta1
      (0, 0, 0): both vanish
    """

    @pytest.mark.parametrize("m1", [5, 6, 8])
    def test_region_identities(self, m1):
        nv = m1 - 4
        edges = [(i, i + 1) for i in range(nv - 1)]
        p = Lemma1Params(m1, quadratic_gbf(nv, edges), tuple(i % 2 for i in range(nv)), d=1)
        table = truth_table(build_g(p))
        v1, v2, v3 = m1 - 1, m1 - 2, m1 - 3

        def base_part(point):
            total = p.d + brute_gbf(p.quadratic, point[:nv])
            total += sum(di * zi for di, zi in zip(p.d_vec, point))
            return total

        for r, got in enumerate(table):
            point = index_to_bits(r, m1)
            pinned = (point[v1], point[v2], point[v3])
            if pinned == (1, 0, 0):
                assert got == (base_part(point) + point[p.beta1]) % 2
            elif pinned == (0, 1, 1):
                assert got == (base_part(point) + 1 + point[p.beta1]) % 2
            elif pinned == (0, 0, 0):
                assert got == base_part(point) % 2

    def test_seed_depends_on_beta1(self):
        q = quadratic_gbf(2, [(0, 1)])
        g0 = build_g(Lemma1Params(6, q, (0, 0), beta1=0))
        g1 = build_g(Lemma1Params(6, q, (0, 0), beta1=1))
        assert g0 != g1


class TestRowFunctions:
    # row a of code n keeps the seed_length prefix of its row function, its
    # partner the suffix; rows go by label a, last coordinate fastest

    def test_zero_labels_leave_seed_unchanged(self):
        p = tiny_params()
        rows, _ = row_tables(p)
        assert np.array_equal(rows[0, 0], truth_table(build_g(p))[: p.gamma])

    def test_unit_label_toggles_pair_end(self):
        p = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (0, 0), beta1=0)
        rows, _ = row_tables(p)
        toggle = truth_table(GBF(6, 2, (Term(1, (z(p.pair_end),)),)))[: p.gamma]
        assert np.array_equal((rows[0, 1] - rows[0, 0]) % 2, toggle)

    def test_mod2_cancellation_of_matching_labels(self):
        p = Lemma1Params(7, quadratic_gbf(3, [(1, 2)]), (0, 0, 0), deleted=(0,), beta1=1)
        rows, _ = row_tables(p)
        # a_0 = n_0 = 1 cancels; only the tail label remains
        assert np.array_equal(rows[1, 0b11], rows[0, 0b01])
        assert not np.array_equal(rows[1, 0b11], rows[0, 0b11])

    def test_partner_uses_complemented_offsets(self):
        p = Lemma1Params(7, quadratic_gbf(3, [(1, 2)]), (0, 0, 0), deleted=(0,), beta1=1)
        _, partners = row_tables(p)
        # from the definition, for a = (1, 1) and n = 0: the complemented
        # seed, whose table is the seed's reversed, plus zbar_0 and 0 * z_end
        offsets = GBF(7, 2, (Term(1, (zbar(0),)), Term(0, (z(p.pair_end),))))
        want = (truth_table(build_g(p))[::-1] + truth_table(offsets)) % 2
        assert np.array_equal(partners[0, 0b11], want[-p.gamma :])


class TestBlockParams:
    def test_block_count_constraints(self):
        base = tiny_params()
        with pytest.raises(ValueError):
            Theorem1Params(base, l=1, r=3)  # odd
        with pytest.raises(ValueError):
            Theorem1Params(base, l=1, r=4)  # exceeds 2^l
        with pytest.raises(ValueError):
            Theorem1Params(base, l=0, r=2)

    def test_explicit_labels_validated(self):
        base = tiny_params()
        with pytest.raises(ValueError):
            Theorem1Params(base, l=2, r=2, s_r=((0, 0), (0, 0)))  # duplicate
        with pytest.raises(ValueError):
            Theorem1Params(base, l=2, r=2, s_r=((0,), (1,)))  # wrong length
        with pytest.raises(ValueError):
            Theorem1Params(base, l=2, r=4, s_r=((0, 0), (0, 1)))  # wrong count

    def test_size_limits(self, monkeypatch):
        # the tiny thm1 set (4, 2, 40, 20) holds 320 phases and R * l label bits
        base = tiny_params()
        monkeypatch.setattr(constructions, "MAX_PHASES", 320)
        assert theorem1_zccs(Theorem1Params(base, l=1, r=2)).dims == (4, 2, 40, 20)
        assert theorem1_zccs(Theorem1Params(base, l=160, r=2)).dims == (4, 2, 40, 20)
        with pytest.raises(ValueError, match="R \\* l = 322 label bits"):
            theorem1_zccs(Theorem1Params(base, l=161, r=2))
        monkeypatch.setattr(constructions, "MAX_PHASES", 319)
        with pytest.raises(ValueError, match="M \\* N \\* L = 320 phases"):
            theorem1_zccs(Theorem1Params(base, l=1, r=2))
        assert lemma1_ccc(base).dims == (2, 2, 20, 20)

    @pytest.mark.parametrize("r", [6, 10, 12])
    def test_default_labels_need_a_power_of_two(self, r):
        # labels 0 and 2^t, t = floor(log2(R - 1)), leave 2^(t+1) - R at zero shift
        qary = [Lemma2Params(q, 2, GBF(2, q, (Term(q // 2, (z(0), z(1))),))) for q in (2, 4)]
        for base in (tiny_params(), *qary):
            with pytest.raises(ValueError, match=f"power of two, got R={r}"):
                Theorem1Params(base, l=4, r=r)

    def test_default_labels_follow_bit_order(self):
        t = Theorem1Params(tiny_params(), l=2, r=2)
        assert t.resolved_s_r("lsb") == ((0, 0), (1, 0))
        assert t.resolved_s_r("msb") == ((0, 0), (0, 1))

    def test_explicit_labels_win(self):
        t = Theorem1Params(tiny_params(), l=2, r=2, s_r=((1, 1), (0, 0)))
        assert t.resolved_s_r("lsb") == ((1, 1), (0, 0))


class TestSizeComesFirst:
    """A seed set beyond MAX_PHASES is refused before any check that grows with m."""

    def test_binary_size_before_d_vec_and_path(self):
        triangle_plus = quadratic_gbf(26, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="m1 is too large for k=0"):
            Lemma1Params(30, triangle_plus, ())

    def test_qary_size_before_path(self):
        f = GBF(40, 4, (Term(2, (z(0), z(1))),))  # 40 variables, no path
        with pytest.raises(ValueError, match="m2 is too large for k=1"):
            Lemma2Params(4, 40, f, deleted=(3,))

    def test_deleted_vertices_count(self, monkeypatch):
        # the k = 1 seed set of m2 = 2 holds 16 * 4 = 64 phases
        f = GBF(2, 4, (Term(2, (z(0), z(1))),))
        monkeypatch.setattr(constructions, "MAX_PHASES", 63)
        assert Lemma2Params(4, 2, f).seed_length == 4
        with pytest.raises(ValueError, match="m2 is too large for k=1"):
            Lemma2Params(4, 2, f, deleted=(0,))


class TestSeedInterface:
    def test_both_families_answer_the_same_questions(self):
        binary = Lemma1Params(7, quadratic_gbf(3, [(0, 1), (1, 2)]), (1, 0, 1), deleted=(0,))
        f = GBF(3, 6, (Term(3, (z(0), z(1))), Term(3, (z(1), z(2))), Term(5, (z(0),))))
        qary = Lemma2Params(6, 3, f, deleted=(0,), beta1=2)
        assert (binary.q, binary.end, binary.seed_length) == (2, binary.pair_end, binary.gamma)
        assert binary.seed() == build_g(binary)
        assert (qary.q, qary.end, qary.seed_length) == (6, 2, 8)
        assert qary.seed() == f
        assert binary.k == qary.k == 1


    @pytest.mark.parametrize(
        "generator", [lemma1_ccc, theorem3_zccs, lemma2_ccc], ids=["lemma1", "thm3", "lemma2"]
    )
    def test_seed_generators_refuse_the_other_family(self, generator):
        # a set built from the other family would name the wrong construction
        # in its provenance, and the oracle could not regenerate it
        binary, qary = tiny_params(), Lemma2Params(4, 1, GBF(1, 4, ()))
        params = binary if generator is lemma2_ccc else qary
        with pytest.raises(TypeError, match=f"got {type(params).__name__}"):
            generator(params)


class TestGenerationMemory:
    def test_lemma2_peak_stays_within_four_sets(self):
        # no 2^m x m bit matrix: the peak is a few copies of the set itself
        f = GBF(18, 4, tuple(Term(2, (z(i), z(i + 1))) for i in range(17)))
        params = Lemma2Params(4, 18, f)
        tracemalloc.start()
        try:
            cs = lemma2_ccc(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.dims == (2, 2, 1 << 18, 1 << 18)
        assert peak <= 4 * cs.phases.nbytes, peak / cs.phases.nbytes

    @pytest.mark.parametrize("deleted", [(), (0,)])
    def test_lemma2_peak_stays_near_one_set(self, deleted):
        # the row tables are written straight into the set, a chunk at a time
        f = GBF(16, 4, tuple(Term(2, (z(i), z(i + 1))) for i in range(15)))
        params = Lemma2Params(4, 16, f, deleted=deleted)
        tracemalloc.start()
        try:
            cs = lemma2_ccc(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.length == 1 << 16
        assert peak <= 1.1 * cs.phases.nbytes, peak / cs.phases.nbytes

    def test_thm1_peak_stays_near_one_set(self):
        # the chained array becomes the set's phases without a copy; the
        # row tables beside it are a sixteenth of the set
        base = Lemma1Params(10, quadratic_gbf(6, [(i, i + 1) for i in range(5)]), (0,) * 6,
                            deleted=(0,), beta1=1)
        tracemalloc.start()
        try:
            cs = theorem1_zccs(Theorem1Params(base, 2, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.dims == (16, 4, 2560, 640)
        assert peak <= 1.3 * cs.phases.nbytes, peak / cs.phases.nbytes


class TestBinaryGenerators:
    def test_ccc_dimensions_and_roundness(self):
        p = Lemma1Params(7, quadratic_gbf(3, [(1, 2)]), (1, 0, 1), deleted=(0,))
        cs = lemma1_ccc(p)
        assert cs.dims == (4, 4, 80, 80)
        assert cs.q == 2
        assert cs.phases.shape == (4, 4, 80)

    def test_determinism(self):
        p = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 0))
        assert lemma1_ccc(p) == lemma1_ccc(p)
        t = Theorem1Params(p, l=1, r=2)
        assert theorem1_zccs(t) == theorem1_zccs(t)

    def test_first_row_is_plain_seed_prefix(self):
        p = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (0, 1), beta1=1)
        cs = lemma1_ccc(p)
        g = build_g(p)
        assert np.array_equal(cs.phases[0, 0], truth_table(g)[: p.gamma])

    def test_row_order_is_lexicographic_in_labels(self):
        # every code of both seed families against the oracle's row tables,
        # whose index takes row a's label bits leftmost slowest: front code
        # n, row a is g^{a,n} (prefix) or f^{a,n}; back code n, row a is the
        # conjugate of s^{a,n} (suffix) or h^{a,n}.  Function (c, e) of a
        # side adds the deleted vertex pos where bit k-1-pos of c is set, and
        # row (n, a) is the one with c's bits a[pos] xor n[pos] and e = a[-1]
        path = quadratic_gbf(3, [(0, 1), (1, 2)])
        for (k, deleted), q, order in itertools.product(
            enumerate(((), (0,), (0, 1))), (4, 6), ("lsb", "msb")
        ):
            binary = Lemma1Params(7, path, (1, 0, 1), d=1, deleted=deleted)
            half = q // 2
            f = GBF(3, q, (Term(half, (z(0), z(1))), Term(half, (z(1), z(2))),
                           Term(q - 1, (z(0),)), Term(1, (z(2),)), Term(1)))
            qary = Lemma2Params(q, 3, f, deleted=deleted)
            families = [
                (lemma1_ccc(binary, order), oracle._binary_row_tables),
                (lemma2_ccc(qary, order), oracle._qary_row_tables),
            ]
            for cs, tables in families:
                distinct, index = tables(cs.provenance["parameters"], order)
                for row, a_vec in enumerate(itertools.product((0, 1), repeat=k + 1)):
                    for n in range(1 << k):
                        c = [a ^ b for a, b in zip(a_vec, index_to_bits(n, k, order))]
                        function = sum(bit << (k - pos) for pos, bit in enumerate(c)) + a_vec[-1]
                        assert index[n, row] == function
                        for side in (0, 1):
                            table = distinct[side].reshape(2 << k, -1)[function]
                            assert np.array_equal(cs.phases[(side << k) + n, row], table)

    def test_all_zero_block_label_repeats_the_seed_code(self):
        base = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 1))
        ccc = lemma1_ccc(base)
        chained = theorem1_zccs(Theorem1Params(base, l=1, r=2))
        gamma = base.gamma
        # front code 0 carries label (0,): both blocks are unflipped copies
        for row in range(2):
            phases = chained.phases[0, row]
            assert np.array_equal(phases[:gamma], ccc.phases[0, row])
            assert np.array_equal(phases[gamma:], ccc.phases[0, row])

    def test_chained_dimensions_and_order(self):
        base = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (0, 0), deleted=())
        cs = theorem1_zccs(Theorem1Params(base, l=2, r=4))
        assert cs.dims == (8, 2, 160, 40)
        prov = cs.provenance
        assert prov["construction"] == "thm1"
        assert prov["parameters"]["R"] == 4
        assert len(prov["parameters"]["s_r"]) == 4

    def test_three_block_pattern(self):
        p = Lemma1Params(5, GBF(1, 2, ()), (1,))
        cs = theorem3_zccs(p)
        assert cs.dims == (2, 2, 60, 40)
        first, second, third = np.split(cs.phases, 3, axis=2)
        assert np.array_equal(second, first)
        assert np.array_equal(third, (first + 1) % 2)

    def test_bad_block_labels_break_verification_at_zero_shift(self):
        # labels differing only where every block parity agrees leave the
        # zero-shift cross sum at full strength; the verifier must say so
        base = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (0, 0))
        t = Theorem1Params(base, l=2, r=2, s_r=((0, 0), (0, 1)))
        report = verify_zccs(theorem1_zccs(t, bit_order="lsb"))
        assert not report.zccs_ok
        assert any(v.tau == 0 and v.i != v.j for v in report.violations)

    def test_default_labels_verify(self):
        base = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (0, 0))
        for l, r in ((1, 2), (2, 2), (2, 4)):
            report = verify_zccs(theorem1_zccs(Theorem1Params(base, l=l, r=r)))
            assert report.zccs_ok, (l, r)


def pattern_bases():
    """k = 1 seeds with their CCC generators: binary, and q-ary at q = 4, 6."""
    binary = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 0), d=1, deleted=(0,))
    yield binary, lemma1_ccc
    for q in (4, 6):
        yield Lemma2Params(q, 3, full_qary_seed(q), deleted=(0,)), lemma2_ccc


def digit_rows(*rows):
    return [[int(c) for c in row] for row in rows]


class TestBlockPatterns:
    """One chaining routine over a K x R pattern over Z_4: block r of code
    (pattern half h, n, pattern row x) is +A_n, +B_n, -A_n or -B_n, the
    seed CCC's code n or 2^k + n turned by q/2 when P[h K/2 + x, r] >= 2."""

    @pytest.mark.parametrize("order", ["lsb", "msb"])
    @pytest.mark.parametrize("rows, blocks", [(2, 1), (2, 3), (4, 1), (4, 3)])
    def test_random_patterns_chain_the_ccc_block_by_block(self, rows, blocks, order):
        rng = np.random.default_rng(10 * rows + blocks)
        patterns = [rng.integers(0, 4, (rows, blocks)) for _ in range(3)]
        if (rows, blocks) == (2, 1):
            patterns += [np.array([[0], [1]]), np.array([[1], [0]])]
        for base, generator in pattern_bases():
            ccc, q, codes, cut = generator(base, order), base.q, 1 << base.k, base.seed_length
            for pattern in patterns:
                cs = constructions._chained_code_set(base, order, pattern, 1, "test")
                assert cs.dims == (codes * rows, 2 * codes, blocks * cut, cut)
                labels = itertools.product(range(2), range(codes), range(rows // 2))
                for (h, n, x), code in zip(labels, cs.phases, strict=True):
                    for r, p in enumerate(pattern[h * rows // 2 + x]):
                        expected = (ccc.phases[p % 2 * codes + n] + q // 2 * (p // 2)) % q
                        assert np.array_equal(code[:, r * cut : (r + 1) * cut], expected)

    @pytest.mark.parametrize("pattern, zone, dims", [
        (digit_rows("00130", "10211"), 3, (8, 8, 800, 480)),
        (digit_rows("010123", "030321"), 4, (8, 8, 960, 640)),
        (digit_rows("00110213", "02130011", "02310033", "22112013"), 3, (16, 8, 1280, 480)),
        (digit_rows("000000", "200022", "113313", "120102", "212001", "233110",
                    "201203", "310211", "103231", "111120", "220330", "131311"),
         1, (48, 8, 960, 160)),
    ])
    def test_mixed_patterns_give_optimal_sets(self, example_base, pattern, zone, dims):
        # A and B blocks within one code, which no sign matrix over fixed
        # front and back halves can state
        cs = constructions._chained_code_set(example_base, "lsb", pattern, zone, "test")
        assert cs.dims == dims
        report = verify_zccs(cs)
        assert report.zccs_ok and report.optimal and report.exact

    def test_repeated_blocks_break_a_two_block_zone(self):
        base = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 0), deleted=(0,))
        cs = constructions._chained_code_set(base, "lsb", [[0, 0, 0], [1, 1, 1]], 2, "test")
        report = verify_zccs(cs)
        assert report.exact and not report.zccs_ok


class TestQaryParamsAndGenerators:
    def test_modulus_must_be_even(self):
        with pytest.raises(ValueError):
            Lemma2Params(3, 2, GBF(2, 3, ()))

    def test_function_shape_checked(self):
        with pytest.raises(ValueError):
            Lemma2Params(4, 2, GBF(3, 4, ()))
        with pytest.raises(ValueError):
            Lemma2Params(4, 2, GBF(2, 2, ()))

    def test_edge_weights_must_be_half_modulus(self):
        f = GBF(2, 4, (Term(1, (z(0), z(1))),))
        with pytest.raises(NotAPathError) as info:
            Lemma2Params(4, 2, f)
        assert info.value.reason == NotAPathError.WEIGHT

    def test_weight_one_suffices_for_binary(self):
        f = GBF(2, 2, (Term(1, (z(0), z(1))),))
        assert Lemma2Params(2, 2, f).beta1 == 0

    @pytest.mark.parametrize("q", [1 << 60, 3 << 60, 1 << 63], ids=["2**60", "3*2**60", "2**63"])
    def test_modulus_that_overflows_int64_is_refused(self, q):
        # six terms of f and k = 0: q * 8 must stay below 2^63
        with pytest.raises(ValueError, match=f"modulus q = {q} overflows int64"):
            Lemma2Params(q, 3, full_qary_seed(q))

    def test_largest_modulus_within_int64_generates_exactly(self):
        q = (1 << 60) - 2
        f = full_qary_seed(q)
        cs = lemma2_ccc(Lemma2Params(q, 3, f))
        # code 0, row 0 is the seed itself, against Python-int arithmetic
        assert cs.phases[0, 0].tolist() == [brute_gbf(f, index_to_bits(r, 3)) for r in range(8)]
        assert oracle.oracle_regenerate(cs) == cs

    def test_row_offsets_scale_with_half_modulus(self):
        f = GBF(2, 4, (Term(2, (z(0), z(1))),))
        p = Lemma2Params(4, 2, f, beta1=0)
        rows, partners = row_tables(p)
        shifted = GBF(2, 4, (*f.terms, Term(2, (z(0),))))
        assert np.array_equal(rows[0, 1], truth_table(shifted))
        # partner with a = 1 drops its tail term: the complemented f alone
        assert np.array_equal(partners[0, 1], truth_table(f)[::-1])
        # with a = 0 it ends in (q/2) z_end, on the uncomplemented variable
        tail = truth_table(GBF(2, 4, (Term(2, (z(0),)),)))
        assert np.array_equal(partners[0, 0], (truth_table(f)[::-1] + tail) % 4)

    def test_full_length_ccc_dimensions(self):
        f = GBF(3, 4, (Term(2, (z(0), z(1))), Term(2, (z(1), z(2))), Term(1, ())))
        cs = lemma2_ccc(Lemma2Params(4, 3, f))
        assert cs.dims == (2, 2, 8, 8)
        assert cs.q == 4
        assert cs.provenance["construction"] == "lemma2"

    def test_chained_qary_dimensions_and_block_signs(self):
        f = GBF(2, 4, (Term(2, (z(0), z(1))),))
        base = Lemma2Params(4, 2, f, beta1=0)
        cs = theorem2_zccs(Theorem2Params(base, l=1, r=2))
        assert cs.dims == (4, 2, 8, 4)
        plain = lemma2_ccc(base)
        length = 4
        # label (1,): second block is negated, phase shift by q/2
        flipped = cs.phases[1, 0]
        assert np.array_equal(flipped[:length], plain.phases[0, 0])
        assert np.array_equal(flipped[length:], (plain.phases[0, 0] + 2) % 4)

    def test_provenance_round_trip_fields(self):
        f = GBF(2, 4, (Term(2, (z(0), z(1))), Term(3, (z(0),))))
        cs = lemma2_ccc(Lemma2Params(4, 2, f, beta1=1))
        params = cs.provenance["parameters"]
        assert params["q"] == 4 and params["m2"] == 2 and params["beta1"] == 1
        assert any(t["literals"] == [[0, False]] for t in params["f_terms"])


class TestCodeSetValidation:
    def test_dimension_mismatches_rejected(self):
        with pytest.raises(ValueError):
            CodeSet(2, 2, np.array([[0, 1]]))  # two levels, not three
        with pytest.raises(ValueError):
            CodeSet(2, 1, np.zeros((1, 0, 2), dtype=np.int64))  # empty
        with pytest.raises(ValueError):
            CodeSet(2, 1, np.array([[[0.0, 1.0]]]))  # not integers
        with pytest.raises(ValueError):
            CodeSet(2, 1, np.array([[[False, True]]]))  # bools are not phases
        with pytest.raises(ValueError):
            CodeSet(2, 5, np.array([[[0, 1]]]))  # zone beyond length
        with pytest.raises(ValueError):
            CodeSet(2, 1, np.array([[[0, 2]]]))  # phase out of range
        with pytest.raises(ValueError):
            CodeSet(4, 1, np.array([[[-1, 2]]]))  # negative phase

    def test_dims_property(self):
        cs = CodeSet(2, 1, [[[0, 1]], [[1, 1]]])
        assert cs.dims == (2, 1, 2, 1)
        assert (cs.set_size, cs.code_size, cs.length) == (2, 1, 2)

    def test_phases_are_a_read_only_copy(self):
        source = np.array([[[0, 1]]])
        cs = CodeSet(2, 1, source)
        source[0, 0, 0] = 1
        assert cs.phases[0, 0, 0] == 0
        assert cs.phases.dtype == np.int64
        with pytest.raises(ValueError):
            cs.phases[0, 0, 0] = 1

    def test_owned_read_only_int64_array_is_kept(self):
        source = np.array([[[0, 1]]], dtype=np.int64)
        source.setflags(write=False)
        assert CodeSet(2, 1, source).phases is source
        view = source[:, :, :]
        assert CodeSet(2, 1, view).phases is not view

    def test_equality_compares_every_field(self):
        cs = CodeSet(2, 1, [[[0, 1]]], provenance={"construction": "x"})
        assert cs == CodeSet(2, 1, [[[0, 1]]], provenance={"construction": "x"})
        assert cs != CodeSet(2, 1, [[[1, 1]]], provenance={"construction": "x"})
        assert cs != CodeSet(4, 1, [[[0, 1]]], provenance={"construction": "x"})
        assert cs != CodeSet(2, 2, [[[0, 1]]], provenance={"construction": "x"})
        assert cs != CodeSet(2, 1, [[[0, 1]]])
        assert cs != CodeSet(2, 1, [[[0, 1], [0, 1]]], provenance={"construction": "x"})


class TestBitOrderPropagation:
    def test_explicit_matches_default(self):
        p = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 0))
        assert lemma1_ccc(p, bit_order="lsb") == lemma1_ccc(p)

    def test_orders_give_different_sets(self):
        p = Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 0))
        a = lemma1_ccc(p, bit_order="lsb")
        b = lemma1_ccc(p, bit_order="msb")
        assert a != b
        assert b.provenance["bit_order"] == "msb"
