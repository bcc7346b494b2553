"""Boolean-function layer: terms, truth tables, realizations, bit orders."""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from zccs import (
    BIT_ORDERS,
    DEFAULT_BIT_ORDER,
    GBF,
    Literal,
    Term,
    accs,
    index_to_bits,
    resolve_bit_order,
    truth_table,
    z,
    zbar,
)
from zccs.gbf import unit_values

from conftest import brute_gbf


class TestLiteralsAndTerms:
    def test_literal_helpers(self):
        assert z(3) == Literal(3, False)
        assert zbar(3) == Literal(3, True)

    def test_literal_rejects_negative_index(self):
        # a literal is a plain value; the GBF holding it checks its range
        assert Literal(-1, False).var_index == -1
        with pytest.raises(ValueError, match=r"variables \[-1, 1\] of a term out of range"):
            GBF(2, 2, (Term(1, (z(1), Literal(-1, False))),))

    def test_term_sorts_and_dedupes_literals(self):
        # a bare Term keeps its literals as given; the GBF normalises them
        assert Term(1, (z(2), z(0), z(2))).literals == (z(2), z(0), z(2))
        t = GBF(3, 2, (Term(1, (z(2), zbar(1), z(0), z(2))),)).terms[0]
        assert t.literals == (z(0), zbar(1), z(2))
        assert t.degree == 3


class TestGBFNormalization:
    def test_like_terms_combine_mod_q(self):
        f = GBF(2, 4, (Term(3, (z(0),)), Term(3, (z(0),))))
        assert f.terms == (Term(2, (z(0),)),)

    def test_zero_coefficient_terms_vanish(self):
        f = GBF(2, 2, (Term(1, (z(0),)), Term(1, (z(0),))))
        assert f.terms == ()
        assert f == GBF(2, 2)

    def test_always_zero_products_vanish(self):
        f = GBF(1, 2, (Term(1, (z(0), zbar(0))),))
        assert f.terms == ()
        # z_i and its complement cancel within a product, not across variables
        f = GBF(2, 2, (Term(1, (z(0), zbar(0), z(1))), Term(1, (z(0), zbar(1)))))
        assert f.terms == (Term(1, (z(0), zbar(1))),)

    def test_terms_sorted_by_degree_then_literals(self):
        f = GBF(3, 2, (Term(1, (z(1), z(2))), Term(1, (z(0),)), Term(1, ())))
        degrees = [t.degree for t in f.terms]
        assert degrees == sorted(degrees)

    def test_variable_range_enforced(self):
        with pytest.raises(ValueError):
            GBF(2, 2, (Term(1, (z(2),)),))

    def test_modulus_and_arity_bounds(self):
        with pytest.raises(ValueError):
            GBF(0, 2, ())
        with pytest.raises(ValueError):
            GBF(1, 1, ())  # modulus below 2

    @pytest.mark.parametrize("seed", range(4))
    def test_normalisation_does_not_depend_on_how_f_is_written(self, seed):
        # shuffle the terms, shuffle and repeat literals inside a term, split
        # each coefficient c into a and c - a mod q, and add products holding
        # some z_i and its complement: the same function, so the same GBF,
        # its terms in (degree, literals) order
        rng = random.Random(seed)

        def product(variables):
            return [Literal(v, rng.random() < 0.5) for v in variables]

        for _ in range(25):
            m, q = rng.randrange(1, 7), rng.choice([2, 3, 4, 6, 8, 12, 2**40])
            f = GBF(m, q, tuple(
                Term(rng.randrange(q), tuple(product(rng.sample(range(m), rng.randrange(m + 1)))))
                for _ in range(rng.randrange(8))
            ))
            rewritten = []
            for c, literals in f.terms:
                a = rng.randrange(q)
                for part in (a, (c - a) % q):
                    written = [*literals, *rng.choices(literals, k=rng.randrange(3) if literals else 0)]
                    rng.shuffle(written)
                    rewritten.append(Term(part, tuple(written)))
            for v in rng.choices(range(m), k=rng.randrange(3)):
                written = [z(v), zbar(v), *product(rng.sample(range(m), rng.randrange(m)))]
                rng.shuffle(written)
                rewritten.append(Term(rng.randrange(q), tuple(written)))
            rng.shuffle(rewritten)
            g = GBF(m, q, tuple(rewritten))
            assert g == f
            assert list(g.terms) == sorted(g.terms, key=lambda t: (t.degree, t.literals))
            # brute_gbf sums the rewritten terms as written, unnormalised
            raw = SimpleNamespace(q=q, terms=rewritten)
            for order in BIT_ORDERS:
                want = [brute_gbf(raw, index_to_bits(r, m, order)) for r in range(1 << m)]
                assert truth_table(g, order).tolist() == truth_table(f, order).tolist() == want

    def test_degree(self):
        assert GBF(3, 2).degree == 0
        f = GBF(3, 2, (Term(1, (z(0), z(1), z(2))),))
        assert f.degree == 3


class TestBitOrders:
    def test_default_is_lsb(self):
        assert DEFAULT_BIT_ORDER == "lsb"
        assert resolve_bit_order(None) == "lsb"

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            resolve_bit_order("middle")
        with pytest.raises(ValueError):
            index_to_bits(0, 2, "middle")

    def test_round_trip_both_orders(self):
        for order in BIT_ORDERS:
            for m in (1, 3, 5):
                for r in range(1 << m):
                    bits = index_to_bits(r, m, order)
                    assert len(bits) == m
                    lsb_first = bits if order == "lsb" else bits[::-1]
                    assert sum(b << i for i, b in enumerate(lsb_first)) == r

    def test_orders_are_mutual_reversals(self):
        for r in range(16):
            assert index_to_bits(r, 4, "lsb") == tuple(reversed(index_to_bits(r, 4, "msb")))

    def test_lsb_bit_positions(self):
        assert index_to_bits(6, 4, "lsb") == (0, 1, 1, 0)
        assert index_to_bits(6, 4, "msb") == (0, 1, 1, 0)[::-1]

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            index_to_bits(8, 3)
        with pytest.raises(ValueError):
            index_to_bits(-1, 3)


class TestTruthTable:
    @pytest.mark.parametrize("order", BIT_ORDERS)
    def test_table_matches_pointwise_eval(self, order):
        f = GBF(4, 4, (Term(2, (z(0), z(3))), Term(1, (zbar(2),)), Term(3, (z(1),))))
        table = truth_table(f, order)
        assert table.dtype == np.int64
        for r in range(16):
            assert table[r] == brute_gbf(f, index_to_bits(r, 4, order))

    def test_table_matches_manual_arithmetic(self):
        # f = 2 z0 z1 + z2 + 3 over Z_4, read at each point's lsb index
        f = GBF(3, 4, (Term(2, (z(0), z(1))), Term(1, (z(2),)), Term(3, ())))
        table = truth_table(f)
        for point in itertools.product((0, 1), repeat=3):
            index = sum(b << i for i, b in enumerate(point))
            assert table[index] == (2 * point[0] * point[1] + point[2] + 3) % 4

    @pytest.mark.parametrize("order", BIT_ORDERS)
    def test_complemented_point_reads_the_reversed_table(self, order):
        # the identity partners are built on: f at 1 - x is entry 2^m - 1 - r
        f = GBF(3, 4, (Term(2, (z(0), z(1))), Term(3, (zbar(2),)), Term(1, ())))
        reversed_table = truth_table(f, order)[::-1]
        for r in range(8):
            flipped = [1 - b for b in index_to_bits(r, 3, order)]
            assert reversed_table[r] == brute_gbf(f, flipped)

    @pytest.mark.parametrize("order", BIT_ORDERS)
    def test_values_at_given_indices(self, order):
        f = GBF(4, 4, (Term(2, (z(0), z(3))), Term(1, (zbar(2),)), Term(3, (z(1),))))
        index = np.array([15, 0, 6, 6, 9], dtype=np.int64)
        assert np.array_equal(truth_table(f, order, index), truth_table(f, order)[index])

    @pytest.mark.parametrize("order", BIT_ORDERS)
    def test_random_functions_match_brute_force_at_any_indices(self, order):
        # complemented literals, terms of every degree, constant terms, and
        # index arrays unsorted and with repeats
        rng = random.Random(41)
        for _ in range(60):
            m, q = rng.randrange(1, 8), rng.choice([2, 3, 4, 8, 12, 2**40])
            terms = [
                Term(
                    rng.randrange(1, q),
                    tuple(Literal(v, rng.random() < 0.5) for v in rng.sample(range(m), degree)),
                )
                for degree in (rng.randrange(m + 1) for _ in range(rng.randrange(6)))
            ]
            f = GBF(m, q, tuple(terms))
            index = np.array([rng.randrange(1 << m) for _ in range(3 << m)], dtype=np.int64)
            table = truth_table(f, order, index)
            assert table.dtype == np.int64
            want = [brute_gbf(f, index_to_bits(r, m, order)) for r in index.tolist()]
            assert table.tolist() == want
            whole = [brute_gbf(f, index_to_bits(r, m, order)) for r in range(1 << m)]
            assert truth_table(f, order).tolist() == whole

    @pytest.mark.parametrize("q, count", [(2**64, 1), (2**63, 0), (2**61, 4)],
                             ids=["2**64", "2**63 no terms", "2**61 four terms"])
    def test_modulus_that_overflows_int64_is_refused(self, q, count):
        terms = [Term(q - 1, literals) for literals in ((z(0),), (), (z(1),), (z(0), z(1)))]
        f = GBF(2, q, tuple(terms[:count]))
        with pytest.raises(ValueError, match=f"modulus q = {q} overflows int64 with {count} terms"):
            truth_table(f)

    def test_orders_differ_for_asymmetric_function(self):
        f = GBF(3, 2, (Term(1, (z(0),)),))
        assert not np.array_equal(truth_table(f, "lsb"), truth_table(f, "msb"))


class TestPhaseSequence:
    """A phase sequence is an integer array; unit_values gives its values."""

    def test_validation(self):
        # accs checks its rows as the CodeSet checks its array
        for q, u in ((2, ()), (2, (0, 2)), (2, (-1, 0)), (0, (0,))):
            with pytest.raises(ValueError):
                accs(q, u, u, 0)

    def test_binary_values_are_signs(self):
        values = unit_values(2, np.array([0, 1, 0]))
        assert values.dtype == np.float64
        assert values.tolist() == [1, -1, 1]
        assert unit_values(1, np.zeros((2, 3), dtype=np.int64)).tolist() == [[1.0] * 3] * 2

    def test_quaternary_values_are_gaussian_integers(self):
        values = unit_values(4, np.array([0, 1, 2, 3]))
        assert values.dtype == np.complex128
        assert values.tolist() == [1, 1j, -1, -1j]

    def test_generic_modulus_uses_unit_circle(self):
        assert abs(unit_values(8, np.array([1]))[0] - np.exp(2j * np.pi / 8)) < 1e-12

    def test_generic_table_is_bit_identical_to_exp(self):
        rng = np.random.default_rng(3)
        for q in [3] + list(range(5, 33)):  # q = 4 has its own exact table
            for phases in (np.arange(q), rng.integers(0, q, size=(3, 2, 50)), np.array([q - 1])):
                want = np.exp(2j * np.pi * phases / q)
                assert np.array_equal(unit_values(q, phases).view(np.uint64), want.view(np.uint64))
        # a modulus beyond the array's size builds no table
        assert unit_values(1 << 62, np.array([1 << 60]))[0] == pytest.approx(1j)

    def test_conjugate_negates_phases(self):
        for q in (2, 4, 6, 8):
            phases = np.arange(q)
            assert np.allclose(unit_values(q, -phases % q), unit_values(q, phases).conj())

    def test_negate_shifts_by_half(self):
        for q in (2, 4, 6, 8):
            phases = np.arange(q)
            assert np.allclose(unit_values(q, (phases + q // 2) % q), -unit_values(q, phases))

