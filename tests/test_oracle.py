"""The oracle must rebuild every generated set from provenance alone."""

import copy
import dataclasses

import numpy as np
import pytest

from zccs import (
    GBF,
    Lemma1Params,
    Lemma2Params,
    Term,
    Theorem1Params,
    Theorem2Params,
    lemma1_ccc,
    lemma2_ccc,
    oracle_regenerate,
    phase_mismatches,
    theorem1_zccs,
    theorem2_zccs,
    theorem3_zccs,
    z,
)
from zccs import oracle

from conftest import mutate_one_phase, quadratic_gbf


def qary_base(q=4, deleted=()):
    f = GBF(
        3,
        q,
        (
            Term(q // 2, (z(0), z(1))),
            Term(q // 2, (z(1), z(2))),
            Term(q - 1, (z(0),)),
            Term(1),
        ),
    )
    return Lemma2Params(q, 3, f, deleted=deleted)


def builders():
    plain = Lemma1Params(5, GBF(1, 2, ()), (1,), d=1)
    one_del = Lemma1Params(7, quadratic_gbf(3, [(0, 2)]), (0, 1, 1), deleted=(1,))
    yield "lemma1-k0", lambda order: lemma1_ccc(plain, bit_order=order)
    yield "lemma1-k1", lambda order: lemma1_ccc(one_del, bit_order=order)
    yield "thm1-explicit", lambda order: theorem1_zccs(
        Theorem1Params(one_del, l=2, r=2, s_r=((1, 0), (0, 1))), bit_order=order
    )
    yield "thm1-default", lambda order: theorem1_zccs(
        Theorem1Params(plain, l=2, r=4), bit_order=order
    )
    yield "thm3", lambda order: theorem3_zccs(one_del, bit_order=order)
    yield "lemma2-binary", lambda order: lemma2_ccc(
        Lemma2Params(2, 2, GBF(2, 2, (Term(1, (z(0), z(1))),))), bit_order=order
    )
    yield "lemma2-quaternary", lambda order: lemma2_ccc(qary_base(deleted=(2,)), bit_order=order)
    yield "thm2", lambda order: theorem2_zccs(
        Theorem2Params(qary_base(), l=2, r=2), bit_order=order
    )


@pytest.mark.parametrize("order", ["lsb", "msb"])
@pytest.mark.parametrize("label,build", list(builders()), ids=lambda v: v if isinstance(v, str) else "")
def test_regeneration_is_bit_exact(label, build, order):
    original = build(order)
    regen = oracle_regenerate(original)
    assert np.array_equal(regen.phases, original.phases)
    assert regen == original
    assert phase_mismatches(original, regen) == []


def test_example_construction_regenerates(example_base):
    cs = theorem1_zccs(Theorem1Params(example_base, l=1, r=2))
    assert oracle_regenerate(cs) == cs


class TestMismatchReporting:
    def test_single_difference_located(self):
        cs = lemma1_ccc(Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (0, 1), deleted=(0,)))
        bad = mutate_one_phase(cs, ci=2, ri=1, pos=7)
        assert phase_mismatches(cs, bad) == [(2, 1, 7)]

    def test_tampering_detected_against_regeneration(self):
        cs = lemma2_ccc(qary_base())
        bad = dataclasses.replace(
            mutate_one_phase(cs, ci=1, ri=0, pos=3, delta=2), provenance=cs.provenance
        )
        regen = oracle_regenerate(bad)
        assert phase_mismatches(bad, regen) == [(1, 0, 3)]

    def test_shape_mismatch_rejected(self):
        a = lemma1_ccc(Lemma1Params(5, GBF(1, 2, ()), (0,)))
        b = lemma1_ccc(Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (0, 0)))
        with pytest.raises(ValueError):
            phase_mismatches(a, b)


class TestProvenanceValidation:
    def test_missing_provenance(self):
        cs = lemma1_ccc(Lemma1Params(5, GBF(1, 2, ()), (0,)))
        stripped = dataclasses.replace(cs, provenance=None)
        with pytest.raises(ValueError, match="no provenance"):
            oracle_regenerate(stripped)

    def test_unknown_construction(self):
        cs = lemma1_ccc(Lemma1Params(5, GBF(1, 2, ()), (0,)))
        bad = dataclasses.replace(
            cs, provenance={"construction": "nope", "bit_order": "lsb", "parameters": {}}
        )
        with pytest.raises(ValueError, match="unknown construction"):
            oracle_regenerate(bad)

    def test_incomplete_record(self):
        cs = lemma1_ccc(Lemma1Params(5, GBF(1, 2, ()), (0,)))
        bad = dataclasses.replace(cs, provenance={"construction": "lemma1"})
        with pytest.raises(ValueError, match="incomplete"):
            oracle_regenerate(bad)

    @pytest.mark.parametrize("parameters", [{}, {"m1": 5}, None, [1]], ids=repr)
    def test_malformed_parameters(self, parameters):
        cs = lemma1_ccc(Lemma1Params(5, GBF(1, 2, ()), (0,)))
        prov = dict(cs.provenance, parameters=parameters)
        bad = dataclasses.replace(cs, provenance=prov)
        with pytest.raises(ValueError, match="provenance record is incomplete"):
            oracle_regenerate(bad)

    @pytest.mark.parametrize(
        "build,field,value",
        [
            (lambda: lemma1_ccc(Lemma1Params(5, GBF(1, 2, ()), (0,))), "m1", 17),
            (lambda: lemma2_ccc(qary_base()), "m2", 4),
            (lambda: theorem1_zccs(Theorem1Params(Lemma1Params(5, GBF(1, 2, ()), (0,)), l=2, r=2)),
             "R", 4),
        ],
        ids=["lemma1-m1", "lemma2-m2", "thm1-R"],
    )
    def test_forged_dimensions(self, build, field, value):
        # the record must describe the stored (M, N, L) before anything is regenerated
        cs = build()
        assert oracle_regenerate(cs) == cs
        prov = copy.deepcopy(cs.provenance)
        prov["parameters"][field] = value
        with pytest.raises(ValueError, match="provenance record is incomplete"):
            oracle_regenerate(dataclasses.replace(cs, provenance=prov))

    def test_unknown_bit_order(self):
        cs = lemma1_ccc(Lemma1Params(5, GBF(1, 2, ()), (0,)))
        prov = dict(cs.provenance)
        prov["bit_order"] = "mixed"
        bad = dataclasses.replace(cs, provenance=prov)
        with pytest.raises(ValueError, match="bit order"):
            oracle_regenerate(bad)


def qary_k2(q=6, linear=5):
    """A q-ary base on four variables with two deleted vertices (k = 2)."""
    half = q // 2
    f = GBF(
        4,
        q,
        (
            Term(half, (z(0), z(1))),
            Term(half, (z(1), z(2))),
            Term(half, (z(2), z(3))),
            Term(linear, (z(0),)),
            Term(1, (z(3),)),
            Term(2),
        ),
    )
    return Lemma2Params(q, 4, f, deleted=(0, 3))


def binary_k2(d_vec=(1, 0, 1, 1)):
    """A binary base on m1 = 8 whose 4-cycle leaves a path after deleting two vertices."""
    return Lemma1Params(
        8, quadratic_gbf(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), d_vec, d=1, deleted=(0, 1)
    )


class TestNoStateBetweenCalls:
    """Whatever the oracle caches is rebuilt from each call's provenance."""

    @pytest.mark.parametrize(
        "first,second",
        [
            (lemma1_ccc(binary_k2((1, 0, 1, 1))), lemma1_ccc(binary_k2((0, 1, 1, 0)))),
            (lemma2_ccc(qary_k2(linear=5)), lemma2_ccc(qary_k2(linear=4))),
        ],
        ids=["lemma1-d_vec", "lemma2-linear-coefficient"],
    )
    def test_interleaved_sets_regenerate_to_themselves(self, first, second):
        assert phase_mismatches(first, second) != []
        for cs in (first, second, first, second):
            assert oracle_regenerate(cs) == cs

    def test_seed_is_taken_from_each_call(self):
        cs = lemma1_ccc(binary_k2())
        assert oracle_regenerate(cs) == cs
        prov = copy.deepcopy(cs.provenance)
        prov["parameters"]["d"] ^= 1
        regen = oracle_regenerate(dataclasses.replace(cs, provenance=prov))
        mismatches = phase_mismatches(cs, regen)
        assert {ci for ci, _, _ in mismatches} == set(range(cs.set_size))
        assert len(mismatches) == cs.phases.size


@pytest.mark.parametrize("order", ["lsb", "msb"])
@pytest.mark.parametrize(
    "build,tables",
    [
        (lambda order: lemma1_ccc(binary_k2(), bit_order=order), oracle._binary_row_tables),
        (lambda order: lemma2_ccc(qary_k2(q=6), bit_order=order), oracle._qary_row_tables),
    ],
    ids=["lemma1", "lemma2-q6"],
)
def test_one_table_per_row_function(build, tables, order):
    """k = 2: 2^(2k+1) (n, row) pairs share 2^(k+1) distinct row functions."""
    cs = build(order)
    assert oracle_regenerate(cs) == cs
    _, fronts, backs = tables(cs.provenance["parameters"], order)
    k = 2
    for per_n in (fronts, backs):
        per_row = [table for rows in per_n for table in rows]
        assert len(per_row) == 2 ** (2 * k + 1)
        assert len({id(table) for table in per_row}) == 2 ** (k + 1)
        assert len({tuple(table) for table in per_row}) == 2 ** (k + 1)
