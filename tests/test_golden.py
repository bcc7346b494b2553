"""Golden hashes: sha256 of the canonical file bytes of pinned sets.

The values were computed before code sets became arrays, so they pin the
generators' output and the file layout bit for bit across refactors.
"""

import hashlib

import pytest

from zccs import (
    GBF,
    Lemma1Params,
    Lemma2Params,
    Term,
    Theorem1Params,
    Theorem2Params,
    dumps_code_set,
    enumerate_admissible_deletions,
    graph_of_quadratic,
    lemma1_ccc,
    theorem1_zccs,
    theorem2_zccs,
    theorem3_zccs,
    z,
)

from conftest import all_graphs, quadratic_gbf


def digest(*code_sets):
    acc = hashlib.sha256()
    for cs in code_sets:
        acc.update(dumps_code_set(cs).encode("utf-8"))
    return acc.hexdigest()


def qary_base(q):
    half = q // 2
    f = GBF(3, q, (Term(half, (z(0), z(1))), Term(half, (z(1), z(2))), Term(1, (z(0),)), Term(q - 1)))
    return Lemma2Params(q, 3, f, deleted=(0,))


@pytest.mark.parametrize(
    "order,thm1,thm3",
    [
        (
            "lsb",
            "ad033c5240af851a3e9e435bf06b1a596b2e3ac26a2584dcc7316889b9e5bc5d",
            "eedcef407dbea745df6e3279ee044396b656262d34226e97a912173a9171a43e",
        ),
        (
            "msb",
            "3f2c1f138c05f3dedd91c29d391c24a0e78cee88003998a5a558af18a833788a",
            "785eda6f488b809e36c683499de51f8daab1ddb3d1ee706b1d961372f072e8b7",
        ),
    ],
)
def test_reference_sets(example_base, order, thm1, thm3):
    assert digest(theorem1_zccs(Theorem1Params(example_base, l=1, r=2), order)) == thm1
    assert digest(theorem3_zccs(example_base, order)) == thm3


@pytest.mark.parametrize(
    "q,order,want",
    [
        (4, "lsb", "56bde278f6cc58f6f64fc1efcd9aa4fd38a510a137e26eb5a55624607413980f"),
        (4, "msb", "08bcefb801f267f7e695401b74dce79fe84f4123085fb451f87ac8bc605e0b9e"),
        (8, "lsb", "8977f8085c8a7c23589e18bbecaaef2fb990382b4711ba041d6a2173d1865922"),
        (8, "msb", "7ce73313f84095e364c347f7e14ab1ae1169791cf70fa6727f16f03c41d5819b"),
    ],
)
def test_qary_chained_sets(q, order, want):
    assert digest(theorem2_zccs(Theorem2Params(qary_base(q), l=2, r=4), order)) == want


def test_binary_seed_sweep():
    # same families and order as the acceptance sweep, one hash over all 661 files
    sets = []
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
                            m1, quad, d_vec, d=counter & 1, deleted=cert.deleted, beta1=b1
                        )
                        sets.append(lemma1_ccc(params))
                        counter += 1
    assert len(sets) == 661
    assert digest(*sets) == "197bd4762a785ba1b038ae69902bd3986dd871c0f29a540edb967b771adf1b13"
