"""Acceptance gate: one test per release criterion.

Run with -v to get a pass/fail line per criterion.  The sweeps are built
once per module and shared; their wall-clock budgets are asserted where a
criterion pins one.  Everything here goes through public API or the CLI.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from zccs import (
    DEFAULT_BIT_ORDER,
    CorrelationValue,
    Lemma1Params,
    Lemma2Params,
    GBF,
    NotAPathError,
    Term,
    Theorem1Params,
    Theorem2Params,
    Violation,
    accs,
    enumerate_admissible_deletions,
    graph_of_quadratic,
    lemma1_ccc,
    oracle_regenerate,
    theorem1_zccs,
    theorem2_zccs,
    theorem3_zccs,
    verify_zccs,
    z,
)
from zccs.cli import main

from conftest import EXAMPLE_EDGES, all_graphs, mutate_one_phase, quadratic_gbf

PENTAGON = "0-1,1-2,2-3,0-3,0-2"


@pytest.fixture(scope="module")
def lemma1_sweep():
    """Every binary seed family: all graphs on m1-4 <= 4 vertices, all
    admissible deletions of up to two vertices, both path ends, with a
    varying linear part.  Verified at full length (the complete-set claim)."""
    t0 = time.perf_counter()
    cases = []
    counter = 0
    for m1 in (5, 6, 7, 8):
        nv = m1 - 4
        for edges in all_graphs(nv):
            quad = quadratic_gbf(nv, edges)
            graph = graph_of_quadratic(quad)
            for k in range(0, min(2, nv - 1) + 1):
                for cert in enumerate_admissible_deletions(graph, k):
                    for b1 in cert.end_vertices:
                        d_vec = tuple((counter >> i) & 1 for i in range(nv))
                        params = Lemma1Params(
                            m1, quad, d_vec, d=counter & 1,
                            deleted=cert.deleted, beta1=b1,
                        )
                        code_set = lemma1_ccc(params)
                        report = verify_zccs(code_set)
                        label = f"m1={m1} edges={edges} deleted={cert.deleted} beta1={b1}"
                        cases.append((label, params, code_set, report))
                        counter += 1
    return SimpleNamespace(cases=cases, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def thm2_sweep():
    """q-ary chained sets over q, m2, deletions, and block shapes."""
    t0 = time.perf_counter()
    cases = []
    counter = 0
    for q in (2, 4):
        half = q // 2
        for m2 in (1, 2, 3, 4):
            for k in (0, 1):
                if k >= m2:
                    continue
                chain = tuple((i, i + 1) for i in range(m2 - 1))
                terms = [Term(half, (z(i), z(j))) for i, j in chain]
                terms.append(Term(counter % q, (z(0),)))
                terms.append(Term((counter + 1) % q))
                base = Lemma2Params(q, m2, GBF(m2, q, tuple(terms)), deleted=(0,) if k else ())
                for l, r in ((1, 2), (2, 2), (2, 4)):
                    code_set = theorem2_zccs(Theorem2Params(base, l=l, r=r))
                    report = verify_zccs(code_set)
                    label = f"q={q} m2={m2} k={k} l={l} R={r}"
                    cases.append((label, q, m2, k, r, code_set, report))
                    counter += 1
    return SimpleNamespace(cases=cases, seconds=time.perf_counter() - t0)


def test_criterion_1_reference_chained_set(example_base):
    t0 = time.perf_counter()
    code_set = theorem1_zccs(Theorem1Params(example_base, l=1, r=2))
    report = verify_zccs(code_set)
    elapsed = time.perf_counter() - t0
    assert code_set.dims == (16, 8, 320, 160)
    assert report.exact, "binary sets must be checked in integer arithmetic"
    assert report.violations == (), "all in-zone sums must be exactly zero"
    assert report.zccs_ok
    assert report.measured_zcz >= 160
    assert report.expected_peak == 2560
    assert report.optimal, "must meet M = N * floor(L / Z) with equality"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_2_reference_three_block_set(example_base):
    t0 = time.perf_counter()
    code_set = theorem3_zccs(example_base)
    report = verify_zccs(code_set)
    elapsed = time.perf_counter() - t0
    assert code_set.dims == (8, 8, 480, 320)
    assert report.exact
    assert report.violations == ()
    assert report.zccs_ok
    assert report.measured_zcz >= 320
    assert report.expected_peak == 3840
    assert report.optimal
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_3_binary_seed_sweep_is_complete(lemma1_sweep):
    failures = []
    per_m1 = {}
    for label, params, code_set, report in lemma1_sweep.cases:
        per_m1[params.m1] = per_m1.get(params.m1, 0) + 1
        rows = 1 << (params.k + 1)
        if code_set.dims != (rows, rows, params.gamma, params.gamma):
            failures.append(f"{label}: wrong dims {code_set.dims}")
        elif not (report.exact and report.zccs_ok):
            failures.append(f"{label}: verification failed at zone {report.measured_zcz}")
        elif report.measured_zcz != params.gamma:
            failures.append(f"{label}: zone {report.measured_zcz} < length {params.gamma}")
        elif not report.optimal:
            failures.append(f"{label}: not size-optimal")
    assert not failures, "\n".join(failures[:20])
    assert per_m1 == {5: 1, 6: 6, 7: 54, 8: 600}, "sweep coverage changed"
    assert len(lemma1_sweep.cases) == 661
    assert lemma1_sweep.seconds < 300.0, f"sweep took {lemma1_sweep.seconds:.0f}s"


def test_criterion_4_qary_chained_sweep_hits_size_bound(thm2_sweep):
    failures = []
    for label, q, m2, k, r, code_set, report in thm2_sweep.cases:
        rows = 1 << (k + 1)
        want = (r * rows, rows, r << m2, 1 << m2)
        if code_set.dims != want:
            failures.append(f"{label}: dims {code_set.dims}, wanted {want}")
        elif len(code_set.phases) != r * rows:
            failures.append(f"{label}: measured set size {len(code_set.phases)}")
        elif not (report.exact and report.zccs_ok and report.optimal):
            failures.append(
                f"{label}: ok={report.zccs_ok} optimal={report.optimal} exact={report.exact}"
            )
        elif report.measured_zcz < (1 << m2):
            failures.append(f"{label}: zone {report.measured_zcz}")
    assert not failures, "\n".join(failures[:20])
    assert len(thm2_sweep.cases) == 42


def test_criterion_5_bit_order_adjudication(example_base):
    # the shipped default is the convention under which criteria 1-4 pass
    assert DEFAULT_BIT_ORDER == "lsb"
    assert verify_zccs(lemma1_ccc(example_base, bit_order="lsb")).zccs_ok

    # the other convention fails the same constructions; pin one small and
    # one reference counterexample so the failure stays concrete
    minimal = Lemma1Params(5, GBF(1, 2, ()), (0,))
    small = verify_zccs(lemma1_ccc(minimal, bit_order="msb"))
    assert not small.zccs_ok
    assert small.measured_zcz == 1, "zone collapses at the first shift"

    reference = verify_zccs(lemma1_ccc(example_base, bit_order="msb"))
    assert not reference.zccs_ok
    assert reference.measured_zcz == 0
    assert len(reference.violations) == 556
    assert reference.violations[0] == Violation(0, 0, -1, CorrelationValue(48, 0))

    chained = verify_zccs(theorem1_zccs(Theorem1Params(example_base, l=1, r=2), bit_order="msb"))
    assert not chained.zccs_ok
    assert chained.violations[0] == Violation(0, 0, -1, CorrelationValue(96, 0))


def test_criterion_6_oracle_regeneration_bit_exact(example_base, lemma1_sweep, thm2_sweep):
    regenerated = 0
    for label, _, code_set, _ in lemma1_sweep.cases:
        assert oracle_regenerate(code_set) == code_set, label
        regenerated += 1
    for label, *_, code_set, _ in thm2_sweep.cases:
        assert oracle_regenerate(code_set) == code_set, label
        regenerated += 1
    for extra in (
        theorem1_zccs(Theorem1Params(example_base, l=1, r=2)),
        theorem3_zccs(example_base),
        lemma1_ccc(example_base, bit_order="msb"),
        theorem3_zccs(example_base, bit_order="msb"),
    ):
        assert oracle_regenerate(extra) == extra
        regenerated += 1
    assert regenerated == 661 + 42 + 4


def test_criterion_7_verifier_properties_and_mutation_detection(lemma1_sweep, thm2_sweep):
    rng = np.random.default_rng(20260816)

    # conjugate symmetry of the correlation sum, exact and float paths
    for q in (2, 4, 8):
        for _ in range(25):
            length = int(rng.integers(1, 24))
            u = rng.integers(0, q, length)
            v = rng.integers(0, q, length)
            for tau in range(-length - 2, length + 3):
                lhs = accs(q, u, v, -tau).as_complex()
                rhs = accs(q, v, u, tau).as_complex().conjugate()
                assert lhs == pytest.approx(rhs, abs=1e-9)
            # beyond the overlap the sum is identically zero
            assert accs(q, u, v, length) == accs(q, u, v, -length)
            assert accs(q, u, v, length).as_complex() == 0

    # every single-phase mutation must be caught at the declared zone
    pool = [cs for _, _, cs, _ in lemma1_sweep.cases]
    pool += [case[-2] for case in thm2_sweep.cases]
    detected = 0
    trials = 1000
    for _ in range(trials):
        code_set = pool[int(rng.integers(len(pool)))]
        bad = mutate_one_phase(
            code_set,
            ci=int(rng.integers(code_set.set_size)),
            ri=int(rng.integers(code_set.code_size)),
            pos=int(rng.integers(code_set.length)),
            delta=int(rng.integers(1, code_set.q)),
        )
        if not verify_zccs(bad).zccs_ok:
            detected += 1
    assert detected == trials, f"only {detected}/{trials} mutations detected"


def test_criterion_8_non_path_inputs_rejected(capsys):
    # residual graphs with a cycle: delete vertex 1 or 3 of the reference graph
    for deletion in ("1", "3"):
        code = main(
            ["generate", "lemma1", "--m1", "8", "--quadratic", PENTAGON,
             "--delete", deletion]
        )
        captured = capsys.readouterr()
        assert code == 2, f"deleting {{{deletion}}} leaves a cycle, expected exit 2"
        assert "error:" in captured.err

    # branching, disconnected, and empty residuals through the CLI
    for argv in (
        ["generate", "lemma1", "--m1", "8", "--quadratic", "0-1,0-2,0-3"],
        ["generate", "lemma1", "--m1", "8", "--quadratic", "0-1,2-3"],
        ["generate", "lemma1", "--m1", "6", "--quadratic", "0-1", "--delete", "0,1"],
        ["generate", "lemma2", "--m2", "3", "--q", "4",
         "--quadratic", "0-1:2,1-2:1"],  # wrong edge weight for q=4
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "error:" in captured.err

    # the library raises the same complaint with a machine-readable reason
    pentagon = quadratic_gbf(4, EXAMPLE_EDGES)
    with pytest.raises(NotAPathError) as info:
        Lemma1Params(8, pentagon, (0, 0, 0, 0), deleted=(1,))
    assert info.value.reason == NotAPathError.CYCLE
    with pytest.raises(NotAPathError):
        Lemma1Params(8, pentagon, (0, 0, 0, 0))  # pentagon itself is no path
