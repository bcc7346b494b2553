"""The oracle must rebuild every generated set from provenance alone."""

import ast
import copy
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zccs import (
    GBF,
    CodeSet,
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
from zccs import constructions, oracle

from conftest import EXAMPLE_EDGES, mutate_one_phase, quadratic_gbf


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


def path_k3(q):
    """q-ary base on m2 = 6: a weight-q/2 path with vertices 0, 1, 2 deleted
    (k = 3), so 16 distinct row functions stand behind 128 rows a side."""
    terms = [Term(q // 2, (z(i), z(i + 1))) for i in range(5)]
    terms += [Term(q - 1, (z(0),)), Term(1, (z(2),)), Term(1, (z(5),)), Term(1)]
    return Lemma2Params(q, 6, GBF(6, q, tuple(terms)), deleted=(0, 1, 2))


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
    for q in (2, 4, 6, 8, 12):
        yield f"lemma2-k3-q{q}", lambda order, q=q: lemma2_ccc(path_k3(q), bit_order=order)
    yield "thm2-k3-q6", lambda order: theorem2_zccs(
        Theorem2Params(path_k3(6), l=2, r=4), bit_order=order
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


def test_regeneration_peak_stays_near_one_set():
    # the chained array becomes the set's phases without a copy; the row
    # tables beside it are a sixteenth of the set
    base = Lemma1Params(10, quadratic_gbf(6, [(i, i + 1) for i in range(5)]), (0,) * 6,
                        deleted=(0,), beta1=1)
    cs = theorem1_zccs(Theorem1Params(base, 2, 4))
    tracemalloc.start()
    try:
        regen = oracle_regenerate(cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert regen == cs and regen.dims == (16, 4, 2560, 640)
    assert peak <= 1.3 * cs.phases.nbytes, peak / cs.phases.nbytes


@pytest.mark.parametrize("order", ["lsb", "msb"])
def test_a_long_label_does_not_size_the_regeneration(order):
    # A forged thm1 record over an all-zero (2, 2, 81920) set: R = 4096
    # blocks and one label of l = 4000 zeros.  Only a block index's low 12
    # bits can be 1, so the pattern reads 12 of the label's positions, not l
    # columns of R entries.
    base = Lemma1Params(5, quadratic_gbf(1, ()), (1,), deleted=(), beta1=0)
    prov = copy.deepcopy(theorem1_zccs(Theorem1Params(base, l=1, r=2), bit_order=order).provenance)
    prov["parameters"].update(l=4000, R=4096, s_r=[[0] * 4000])
    cs = CodeSet(2, 20, np.zeros((2, 2, 81920), np.int64), prov)
    tracemalloc.start()
    try:
        regen = oracle_regenerate(cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * cs.phases.nbytes, peak / cs.phases.nbytes
    # a zero label flips no block: each code is its seed code 4096 times
    seed = lemma1_ccc(base, bit_order=order).phases
    assert regen.dims == (2, 2, 81920, 20)
    assert np.array_equal(regen.phases, np.tile(seed, 4096))


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
    distinct, index = tables(cs.provenance["parameters"], order)
    k = 2
    # (2 turn + side, c, e, point): the turned copies are the others plus q/2
    assert distinct.shape == (4, 2**k, 2, cs.length)
    assert np.array_equal(distinct[2:], (distinct[:2] + cs.q // 2) % cs.q)
    assert index.shape == (2**k, 2 ** (k + 1))
    for side in distinct[:2]:
        per_row = [side.reshape(2 ** (k + 1), -1)[f] for f in index.ravel()]
        assert len(per_row) == 2 ** (2 * k + 1)
        assert len({tuple(table) for table in per_row}) == 2 ** (k + 1)


def path_qary_base(q):
    """q-ary base on m2 = 7: a weight-q/2 path with vertex 0 deleted (k = 1)."""
    terms = [Term(q // 2, (z(i), z(i + 1))) for i in range(6)]
    terms += [Term((3 * i + 1) % q, (z(i),)) for i in range(7)] + [Term(q - 1)]
    return Lemma2Params(q, 7, GBF(7, q, tuple(terms)), deleted=(0,), beta1=6)


def path_binary_base():
    """Binary base on m1 = 10: a path on six vertices with vertex 0 deleted (k = 1)."""
    edges = [(i, i + 1) for i in range(5)]
    return Lemma1Params(10, quadratic_gbf(6, edges), (1, 0, 1, 1, 0, 1), d=1, deleted=(0,), beta1=5)


@pytest.mark.parametrize("order", ["lsb", "msb"])
@pytest.mark.parametrize(
    "build,dims",
    [
        (lambda order: theorem2_zccs(Theorem2Params(path_qary_base(6), l=2, r=4), bit_order=order),
         (16, 4, 512, 128)),
        (lambda order: theorem2_zccs(Theorem2Params(path_qary_base(8), l=2, r=4), bit_order=order),
         (16, 4, 512, 128)),
        (lambda order: theorem1_zccs(Theorem1Params(path_binary_base(), l=3, r=8), bit_order=order),
         (32, 4, 5120, 640)),
        (lambda order: theorem3_zccs(path_binary_base(), bit_order=order), (4, 4, 1920, 1280)),
    ],
    ids=["thm2-q6", "thm2-q8", "thm1-m1=10", "thm3-m1=10"],
)
def test_large_chained_sets_regenerate(build, dims, order):
    cs = build(order)
    assert cs.dims == dims
    assert oracle_regenerate(cs) == cs


def forge(cs, path, change):
    """cs with a copy of its provenance whose parameter at path is change(old)."""
    prov = copy.deepcopy(cs.provenance)
    *outer, last = ("parameters", *path)
    node = prov
    for key in outer:
        node = node[key]
    node[last] = change(node[last])
    return dataclasses.replace(cs, provenance=prov)


class TestForgedIntegers:
    """Record integers act as their residues mod q; the record's q must be
    the set's and must keep the oracle's int64 sums exact."""

    @pytest.mark.parametrize(
        "build,path",
        [
            (lambda: lemma2_ccc(qary_base()), ("f_terms", 1, "coefficient")),
            (lambda: lemma1_ccc(binary_k2()), ("quadratic", 0, 2)),
            (lambda: lemma1_ccc(binary_k2()), ("d",)),
            (lambda: lemma1_ccc(binary_k2()), ("d_vec", 0)),
            (lambda: theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("s_r", 1, 0)),
        ],
        ids=["f_terms coefficient 3", "quadratic weight", "d", "d_vec", "s_r label"],
    )
    def test_huge_integers_act_as_residues(self, build, path):
        cs = build()
        regen = oracle_regenerate(forge(cs, path, lambda v: v + 2**70))
        assert phase_mismatches(cs, regen) == []

    @pytest.mark.parametrize("q", [2**70, 8, 4.0, "4"], ids=["2**70", "8", "4.0", "str 4"])
    def test_record_q_must_be_the_sets(self, q):
        cs = lemma2_ccc(qary_base())
        with pytest.raises(ValueError, match="provenance record is incomplete: .* is not the set's 4"):
            oracle_regenerate(forge(cs, ("q",), lambda _: q))

    def test_q_beyond_int64_refused(self):
        cs = lemma2_ccc(qary_base())
        huge = dataclasses.replace(forge(cs, ("q",), lambda _: 2**70), q=2**70)
        with pytest.raises(ValueError, match=f"incomplete: q = {2**70} overflows int64"):
            oracle_regenerate(huge)

    def test_odd_q_refused(self):
        # (q/2)(a + n) is a function of a xor n only for even q
        cs = lemma2_ccc(qary_base())
        odd = dataclasses.replace(forge(cs, ("q",), lambda _: 5), q=5)
        with pytest.raises(ValueError, match="incomplete: q = 5 is odd"):
            oracle_regenerate(odd)

    def test_large_q_within_int64_regenerates(self):
        cs = theorem2_zccs(Theorem2Params(qary_base(2**40, deleted=(2,)), l=2, r=2))
        assert oracle_regenerate(cs) == cs


class TestForgedStructure:
    """A record field of the wrong shape or type, or a vertex outside the
    seed's variables, is refused as incomplete before any loop, never
    escaping midway as TypeError or IndexError."""

    @pytest.mark.parametrize(
        "build,path,value",
        [
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("f_terms",), 5),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("beta1",), 99),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("beta1",), -1),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("deleted",), [99]),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("f_terms", 1, "literals", 0, 0), 99),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("f_terms", 1, "literals", 0), [0]),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("f_terms", 1), [3]),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("f_terms", 1, "coefficient"), "3"),
            (lambda: lemma2_ccc(qary_base(deleted=(2,))), ("f_terms", 1, "coefficient"), 3.0),
            (lambda: lemma1_ccc(binary_k2()), ("quadratic", 0, 0), 99),
            (lambda: lemma1_ccc(binary_k2()), ("quadratic", 0), [0, 1]),
            (lambda: lemma1_ccc(binary_k2()), ("pair_end",), 99),
            (lambda: lemma1_ccc(binary_k2()), ("d_vec",), [1] * 20),
            (lambda: lemma1_ccc(binary_k2()), ("d",), None),
            (lambda: theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("s_r", 1, 0), "1"),
            (lambda: theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("l",), 2.0),
            (lambda: theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("s_r",), []),
            (lambda: theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("R",), 2**40),
            (lambda: theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("l",), -1),
            (lambda: forge(theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("s_r",), lambda _: []),
             ("l",), 2**40),
            (lambda: theorem1_zccs(Theorem1Params(binary_k2(), l=2, r=2)), ("s_r",), [[0, 1]] * 10**4),
        ],
        ids=[
            "f_terms 5", "beta1 99", "beta1 -1", "deleted [99]", "literal variable 99",
            "literal without flag", "term as list", "coefficient str", "coefficient float",
            "quadratic vertex 99", "quadratic pair", "pair_end 99", "d_vec longer than m1",
            "d null", "s_r entry str", "l float", "s_r empty", "R 2**40", "l -1",
            "l 2**40 without labels", "more labels than codes",
        ],
    )
    def test_refused_as_incomplete(self, build, path, value):
        cs = build()
        with pytest.raises(ValueError, match="provenance record is incomplete"):
            oracle_regenerate(forge(cs, path, lambda _: value))


def digit_rows(*rows):
    return np.array([[int(c) for c in row] for row in rows])


def chain_patterns():
    """Three seeded random K x R patterns over Z_4 for each (K, R), then
    optimal patterns found by exact search: zones of several blocks, and a
    12-row R = 6 pattern for a zone of one."""
    rng = np.random.default_rng(29)
    for shape in ((2, 1), (2, 3), (4, 1), (4, 3), (6, 5), (12, 6)):
        yield from (rng.integers(0, 4, shape) for _ in range(3))
    yield from (
        digit_rows("002", "113"),
        digit_rows("00130", "10211"),
        digit_rows("010123", "030321"),
        digit_rows("0002132", "1201333"),
        digit_rows("000120132", "120310333"),
        digit_rows("00110213", "02130011", "02310033", "22112013"),
        digit_rows("000000", "200022", "113313", "120102", "212001", "233110",
                   "201203", "310211", "103231", "111120", "220330", "131311"),
    )


def pattern_seeds():
    """Binary k = 1 bases and the README base (k = 2), and q-ary k = 1 bases
    at q = 4, 6 and 8, each with its CCC generator and the oracle's tables."""
    binary = (
        Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 0), d=1, deleted=(0,)),
        Lemma1Params(7, quadratic_gbf(3, [(0, 2)]), (0, 1, 1), deleted=(1,)),
        Lemma1Params(8, quadratic_gbf(4, EXAMPLE_EDGES), (1, 1, 1, 1), deleted=(0, 1), beta1=2),
    )
    for base, label in zip(binary, ("m1=6", "m1=7", "README")):
        yield pytest.param(base, lemma1_ccc, oracle._binary_row_tables, id=label)
    for q in (4, 6, 8):
        yield pytest.param(qary_base(q, deleted=(2,)), lemma2_ccc, oracle._qary_row_tables, id=f"q{q}")


@pytest.mark.parametrize("order", ["lsb", "msb"])
@pytest.mark.parametrize("base,generator,row_tables", list(pattern_seeds()))
def test_oracle_and_generators_chain_any_pattern_alike(base, generator, row_tables, order):
    # Mixed A and B blocks within one code too, which no construction name
    # states yet: the oracle's gather against the generators' chaining
    tables, index = row_tables(generator(base, order).provenance["parameters"], order)
    for pattern in chain_patterns():
        chained = constructions._chained_code_set(base, order, pattern, 1, "test")
        assert np.array_equal(oracle._chain(tables, index, pattern), chained.phases), pattern.tolist()


def test_oracle_imports_nothing_of_the_generators():
    """The oracle stays independent: besides copy and numpy it takes only
    the CodeSet container from the package."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports.update(f"{'.' * node.level}{node.module}.{alias.name}" for alias in node.names)
    assert imports == {"copy", "numpy", ".constructions.CodeSet"}
