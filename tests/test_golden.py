"""Golden hashes: sha256 of the canonical file bytes of pinned sets, and of
the verification reports of a fixed corpus.

The set values were computed before code sets became arrays, so they pin
the generators' output and the file layout bit for bit across refactors.
The report digests pin what verify_zccs and dumps_report say about every
set of the corpus, in every engine mode, and what zccs verify prints, exits
with and writes for stored files.
"""

import hashlib
import json
import random
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
    dumps_code_set,
    dumps_report,
    enumerate_admissible_deletions,
    graph_of_quadratic,
    lemma1_ccc,
    lemma2_ccc,
    theorem1_zccs,
    theorem2_zccs,
    theorem3_zccs,
    verify_zccs,
    z,
)
from zccs import cli, correlation

from conftest import (
    EXAMPLE_EDGES,
    all_graphs,
    mutate_one_phase,
    q8_counterexample,
    quadratic_gbf,
)


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


# ---------------------------------------------------------------------------
# report digests

REPORT_MODULI = (1, 2, 3, 4, 5, 6, 8, 10, 12)
REPORT_SHAPES = ((1, 1, 5), (3, 2, 16), (4, 3, 40), (5, 1, 7), (7, 2, 24), (6, 4, 64))

# EXACT_REPORTS was computed at report format 3, by dropping the peaks from
# the format 2 texts; OTHER_REPORTS before Literal and Term became named
# tuples.  A change that moves a digest names the change and its reason in
# CHANGES.md.
EXACT_REPORTS = "bfd6e6f2faca24d86382186c6ea66b4ea9be51f70cd2498272def47a72b0c243"
OTHER_REPORTS = "b907b79be7734a729e9879be36933b2d7123b1cdf6b5b7ef7f62939785c5b32a"


def generated_sets():
    """The sweep, long_chain and qary shapes at small sizes, in both bit
    orders: lemma1 and thm3 on three path bases and the README's, thm1 with
    (l, r) = (2, 4) on the paths and (1, 2) on the README's, and lemma2 and
    thm2 on a q-ary path."""
    bases = [
        (Lemma1Params(5, quadratic_gbf(1, ()), (1,), d=0, deleted=(), beta1=0), 2, 4),
        (Lemma1Params(6, quadratic_gbf(2, ((0, 1),)), (0, 1), d=1, deleted=(0,), beta1=1), 2, 4),
        (Lemma1Params(7, quadratic_gbf(3, ((0, 1), (1, 2))), (1, 0, 1), deleted=(0,), beta1=1), 2, 4),
        (Lemma1Params(8, quadratic_gbf(4, EXAMPLE_EDGES), (1, 1, 1, 1), deleted=(0, 1), beta1=2), 1, 2),
    ]
    for order in ("lsb", "msb"):
        for base, l, r in bases:
            yield lemma1_ccc(base, order)
            yield theorem1_zccs(Theorem1Params(base, l, r), order)
            yield theorem3_zccs(base, order)
        for q in (2, 4, 6, 8):
            yield lemma2_ccc(qary_base(q), order)
            yield theorem2_zccs(Theorem2Params(qary_base(q), l=2, r=4), order)


def random_sets():
    """Seeded uniform phases in every shape and modulus, declared zone 1 and L."""
    rng = np.random.default_rng(9)
    for q in REPORT_MODULI:
        for set_size, code_size, length in REPORT_SHAPES:
            phases = rng.integers(0, q, size=(set_size, code_size, length))
            for zone in (1, length):
                yield CodeSet(q, zone, phases)


def build_report_corpus():
    """(code set, zone) for every set, generated or random, and three
    one-phase mutants of each, at the declared zone and at zone 1; then the
    q = 8 counterexample."""
    rng = random.Random(17)
    corpus = []
    for cs in [*generated_sets(), *random_sets()]:
        mutants = [
            mutate_one_phase(
                cs,
                rng.randrange(cs.set_size),
                rng.randrange(cs.code_size),
                rng.randrange(cs.length),
                1 + rng.randrange(max(1, cs.q - 1)),
            )
            for _ in range(3)
        ]
        corpus += [(each, zone) for each in (cs, *mutants) for zone in (cs.zcz, 1)]
    corpus.append((q8_counterexample(), None))
    return corpus


@pytest.fixture(scope="module")
def report_corpus():
    return build_report_corpus()


def report_digests(corpus, moduli=None):
    """sha256 over the reports of the corpus sets whose q is in moduli (all
    by default): the dumps_report texts for q in EXACT_MODULI, whose values
    are integers, and for other q the summary, first_nonzero and the (i, j,
    tau) keys of the listing.  Their listed values are floats that can move
    in the last bit with the einsum's summation order, which differs
    between machines, so they are left out."""
    exact, other = hashlib.sha256(), hashlib.sha256()
    for cs, zone in corpus:
        if moduli is not None and cs.q not in moduli:
            continue
        report = verify_zccs(cs, zone)
        text = dumps_report(report)
        if cs.q in correlation.EXACT_MODULI:
            exact.update(text.encode("utf-8"))
        else:
            keys = report.listed[["i", "j", "tau"]].tolist()
            doc = [json.loads(text)["summary"], report.first_nonzero.tolist(), keys]
            other.update(json.dumps(doc).encode("utf-8"))
    return exact.hexdigest(), other.hexdigest()


@pytest.mark.parametrize("chunk_entries", [None, 1, 390], ids=["default", "chunk 1", "chunk 390"])
def test_report_digests(monkeypatch, report_corpus, chunk_entries):
    if chunk_entries is not None:
        monkeypatch.setattr(correlation, "CHUNK_ENTRIES", chunk_entries)
    assert report_digests(report_corpus) == (EXACT_REPORTS, OTHER_REPORTS)


def test_exact_report_digest_through_the_direct_fallback(monkeypatch, report_corpus):
    # a rounding bound of 1 fails every certificate, so direct() computes
    # every block; the other moduli's tolerance would change with it
    monkeypatch.setattr(correlation, "_rounding_bound", lambda code_size, length: 1.0)
    exact, _ = report_digests(report_corpus, correlation.EXACT_MODULI)
    assert exact == EXACT_REPORTS


def test_exact_report_digest_through_the_packed_fallback(monkeypatch, report_corpus):
    # every inverse transform is off by 0.3 at one entry, so no chunk's
    # rounding is certified and each chunk's pairs are recomputed one by one
    for name in ("irfft", "ifft"):

        def perturbed(spectra, n, inverse=getattr(np.fft, name)):
            block = inverse(spectra, n)
            block[0, 1] += 0.3
            return block

        monkeypatch.setattr(np.fft, name, perturbed)
    exact, _ = report_digests(report_corpus, correlation.EXACT_MODULI)
    assert exact == EXACT_REPORTS


# ---------------------------------------------------------------------------
# zccs verify on stored files

# Computed at report format 3, by dropping the peaks from the format 2
# report files.  A change that moves it names the change and its reason in
# CHANGES.md.
CLI_REPORTS = "4b812ec73a97166ac7904419b8235cbd6e919ab11872f488dd889f8ffe214bba"


def qary_path(q, m2):
    """Weight-q/2 path on m2 vertices with a fixed linear part, vertex 0 deleted."""
    terms = [Term(q // 2, (z(i), z(i + 1))) for i in range(m2 - 1)]
    terms += [Term((3 * i + 1) % q, (z(i),)) for i in range(m2)] + [Term(q - 1)]
    return Lemma2Params(q, m2, GBF(m2, q, tuple(terms)), deleted=(0,), beta1=1)


def cli_sources():
    """The mutants benchmark's sources at fixed parameters: thm1 on the
    README base and on an m1 = 9 path base, lemma2 at q = 4 and thm2 at q = 8."""
    readme = Lemma1Params(8, quadratic_gbf(4, EXAMPLE_EDGES), (1, 0, 1, 1), d=1, deleted=(0, 1), beta1=2)
    path = Lemma1Params(9, quadratic_gbf(5, [(i, i + 1) for i in range(4)]), (0, 1, 1, 0, 1),
                        deleted=(0,), beta1=1)
    yield theorem1_zccs(Theorem1Params(readme, l=1, r=2))
    yield theorem1_zccs(Theorem1Params(path, l=2, r=4))
    yield lemma2_ccc(qary_path(4, 9))
    yield theorem2_zccs(Theorem2Params(qary_path(8, 7), l=2, r=4))


def test_cli_report_digest(monkeypatch, tmp_path, capsys):
    """One sha256 over zccs verify --report, at the declared zone and at
    --z 1, on each source, two seeded one-phase mutants of it, each written
    canonically and as json.dumps text, and the q = 8 counterexample.  For
    q in EXACT_MODULI it takes the exit code, stdout and report bytes; for
    q = 8 the exit code, the report summary and the listing keys, since
    listed floats can move in the last bit between machines."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(31)
    files = []
    for si, cs in enumerate(cli_sources()):
        for mi in range(3):
            each = cs if mi == 0 else mutate_one_phase(
                cs,
                rng.randrange(cs.set_size),
                rng.randrange(cs.code_size),
                rng.randrange(cs.length),
                1 + rng.randrange(cs.q - 1),
            )
            text = dumps_code_set(each)
            for kind, body in (("canonical", text), ("default", json.dumps(json.loads(text)))):
                name = f"set{si}-{mi}-{kind}.json"
                Path(name).write_text(body, encoding="utf-8")
                files.append((name, cs.q, min(mi, 1)))
    Path("q8.json").write_text(dumps_code_set(q8_counterexample()), encoding="utf-8")
    files.append(("q8.json", 8, 1))
    acc = hashlib.sha256()
    for name, q, exit_code in files:
        for zone in ([], ["--z", "1"]):
            code = cli.main(["verify", name, *zone, "--report", "report.json"])
            stdout = capsys.readouterr().out
            text = Path("report.json").read_text(encoding="utf-8")
            assert code == exit_code, (name, zone)
            if q in correlation.EXACT_MODULI:
                parts = [code, stdout, text]
            else:
                doc = json.loads(text)
                parts = [code, doc["summary"], [[v["i"], v["j"], v["tau"]] for v in doc["violations"]]]
            acc.update(json.dumps([name, zone, *parts]).encode("utf-8"))
    assert acc.hexdigest() == CLI_REPORTS
