"""The four certify workloads: their inputs, built from a seed, and one
operation's pipeline with its correctness checks.

Nothing here imports numpy or the package at module level; the runner caps
numpy's thread pools first and hands the freshly imported package in.
Every call into the package sits inside a tracer span named after the
package module it enters, so the same code serves set-up, the timed passes
and the traced passes.
"""

from __future__ import annotations

import contextlib
import io as textio
import itertools
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Paper reference example: five edges on four vertices, deleting 0 and 1
# leaves the path 2-3.  thm1 (l=1, R=2) gives (16, 8, 320, 160) and thm3
# gives (8, 8, 480, 320).
EXAMPLE_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))

# Sweep pass composition per (m1, k) stratum of the 661 admissible binary
# seed families (stratum sizes 1, 2, 4, 6, 24, 24, 24, 192, 384).  A fixed
# count per stratum keeps a pass's cost independent of the seed; (8, 2)
# holds 30 of the 50 sets, so the median lands inside that stratum rather
# than on the edge between two cost modes.
SWEEP_STRATA = {
    (5, 0): 1, (6, 0): 1, (6, 1): 1, (7, 0): 1, (7, 1): 2,
    (7, 2): 2, (8, 0): 2, (8, 1): 10, (8, 2): 30,
}

# The float-tolerance counterexample: q=8, N=1, L=3363.  u holds 1393
# zeros, 985 fives and 985 threes, v is all zeros, so the cross sum at
# shift 0 is 1393 - 985*sqrt(2), about -3.6e-4: a true violation of Z=1
# that complex-double verification with tolerance 1e-6*N*L passes.
COUNTEREXAMPLE_COUNTS = {0: 1393, 5: 985, 3: 985}


@dataclass(frozen=True)
class SetOp:
    """Library certify: params, generate, verify, oracle, dump/load."""

    label: str
    make_params: Callable[[], Any]
    generate: Callable[[Any], Any]
    dims: tuple[int, int, int, int]
    q: int
    seed_len: int  # length of one seed row table (gamma or 2^m2)


@dataclass(frozen=True)
class FileOp:
    """CLI certify: `zccs verify <file> --report <out>` against an expected exit."""

    label: str
    path: Path
    expect_exit: int
    dims: tuple[int, int, int, int]
    q: int
    nbytes: int


@dataclass(frozen=True)
class Workload:
    """ops repeat every pass.  probes are files of a known defect, checked
    once per run outside the passes and not counted as operations."""

    ops: list
    probes: tuple = ()


def static_counts(op) -> dict[str, int]:
    """Work counts that follow from the set's shape alone."""
    m, n, length, _ = op.dims
    pairs = m * (m + 1) // 2
    channels = 4 if op.q == 4 else 1  # real np.correlate calls per row pair at the seed
    counts = {
        "constructions.phases": m * n * length,
        "correlation.pairs": pairs,
        "correlation.shifts": pairs * (2 * length - 1),
        "correlation.direct_macs": pairs * n * length * length * channels,
    }
    if isinstance(op, SetOp):
        counts["graphs.calls"] = 1
        counts["oracle.points"] = n * n * op.seed_len
    else:
        counts["constructions.phases"] = 0
        counts["cli.calls"] = 1
        counts["io.bytes"] = op.nbytes
    return counts


# ---------------------------------------------------------------------------
# parameter builders (shared by the workloads and the mutants' sources)


def _quadratic(pkg, nvars: int, edges, q: int = 2, weight: int = 1):
    return pkg.GBF(nvars, q, tuple(pkg.Term(weight, (pkg.z(i), pkg.z(j))) for i, j in edges))


def _pick_deletion(pkg, tracer, quad, k: int, rng: random.Random, weight=None):
    with tracer.span("graphs.enumerate"):
        certs = pkg.enumerate_admissible_deletions(pkg.graph_of_quadratic(quad), k, weight)
    cert = rng.choice(certs)
    return cert.deleted, rng.choice(cert.end_vertices)


def _binary_base(pkg, m1: int, quad, deleted, beta1, rng: random.Random):
    d_vec = tuple(rng.randrange(2) for _ in range(m1 - 4))
    d = rng.randrange(2)
    return lambda: pkg.Lemma1Params(m1, quad, d_vec, d=d, deleted=deleted, beta1=beta1)


def _path_base(pkg, tracer, m1: int, rng: random.Random):
    """Path graph on m1 - 4 vertices, one end deleted (k=1)."""
    nvars = m1 - 4
    quad = _quadratic(pkg, nvars, [(i, i + 1) for i in range(nvars - 1)])
    deleted, beta1 = _pick_deletion(pkg, tracer, quad, 1, rng)
    return _binary_base(pkg, m1, quad, deleted, beta1, rng)


def _example_base(pkg, tracer, rng: random.Random):
    quad = _quadratic(pkg, 4, EXAMPLE_EDGES)
    with tracer.span("graphs.enumerate"):
        cert = pkg.validate_deletion_path(pkg.graph_of_quadratic(quad), (0, 1))
    return _binary_base(pkg, 8, quad, cert.deleted, rng.choice(cert.end_vertices), rng)


def _thm1(pkg, base, l: int, r: int):
    return lambda: pkg.Theorem1Params(base(), l, r)


def _qary_base(pkg, tracer, q: int, m2: int, rng: random.Random):
    """Path of weight-q/2 edges on m2 vertices, seeded linear part, one end deleted."""
    half = q // 2
    terms = [pkg.Term(half, (pkg.z(i), pkg.z(i + 1))) for i in range(m2 - 1)]
    terms += [pkg.Term(rng.randrange(q), (pkg.z(i),)) for i in range(m2)]
    terms.append(pkg.Term(rng.randrange(q)))
    f = pkg.GBF(m2, q, tuple(terms))
    deleted, beta1 = _pick_deletion(pkg, tracer, f, 1, rng, weight=half)
    return lambda: pkg.Lemma2Params(q, m2, f, deleted=deleted, beta1=beta1)


def _thm2(pkg, base, l: int, r: int):
    return lambda: pkg.Theorem2Params(base(), l, r)


def _gamma(m1: int) -> int:
    return (1 << (m1 - 1)) + (1 << (m1 - 3))


def _long_chain_ops(pkg, tracer, rng: random.Random) -> list[SetOp]:
    ops = []
    for m1 in (9, 10):
        g = _gamma(m1)
        ops.append(SetOp(f"thm1 path m1={m1}", _thm1(pkg, _path_base(pkg, tracer, m1, rng), 2, 4),
                         pkg.theorem1_zccs, (16, 4, 4 * g, g), 2, g))
    g = _gamma(10)
    ops.append(SetOp("thm3 path m1=10", _path_base(pkg, tracer, 10, rng),
                     pkg.theorem3_zccs, (4, 4, 3 * g, 2 * g), 2, g))
    ops.append(SetOp("thm1 reference", _thm1(pkg, _example_base(pkg, tracer, rng), 1, 2),
                     pkg.theorem1_zccs, (16, 8, 320, 160), 2, 160))
    ops.append(SetOp("thm3 reference", _example_base(pkg, tracer, rng),
                     pkg.theorem3_zccs, (8, 8, 480, 320), 2, 160))
    return ops


def _qary_thm2(pkg, tracer, q: int, m2: int, rng: random.Random) -> SetOp:
    base = _qary_base(pkg, tracer, q, m2, rng)
    return SetOp(f"thm2 q={q} m2={m2}", _thm2(pkg, base, 2, 4), pkg.theorem2_zccs,
                 (16, 4, 4 << m2, 1 << m2), q, 1 << m2)


def _qary_lemma2(pkg, tracer, q: int, m2: int, rng: random.Random) -> SetOp:
    base = _qary_base(pkg, tracer, q, m2, rng)
    return SetOp(f"lemma2 q={q} m2={m2}", base, pkg.lemma2_ccc,
                 (4, 4, 1 << m2, 1 << m2), q, 1 << m2)


# ---------------------------------------------------------------------------
# workloads


def build_sweep(pkg, tracer, rng: random.Random, workdir: Path) -> Workload:
    strata: dict[tuple[int, int], list] = {}
    for m1 in (5, 6, 7, 8):
        nvars = m1 - 4
        for mask in range(1 << (nvars * (nvars - 1) // 2)):
            pairs = itertools.combinations(range(nvars), 2)
            edges = [p for idx, p in enumerate(pairs) if mask >> idx & 1]
            quad = _quadratic(pkg, nvars, edges)
            for k in range(min(2, nvars - 1) + 1):
                with tracer.span("graphs.enumerate"):
                    certs = pkg.enumerate_admissible_deletions(pkg.graph_of_quadratic(quad), k)
                for cert in certs:
                    for beta1 in cert.end_vertices:
                        strata.setdefault((m1, k), []).append((quad, cert.deleted, beta1))
    ops = []
    for (m1, k), count in SWEEP_STRATA.items():
        for quad, deleted, beta1 in rng.sample(strata[(m1, k)], count):
            g = _gamma(m1)
            m = 2 << k
            ops.append(SetOp(f"lemma1 m1={m1} k={k}", _binary_base(pkg, m1, quad, deleted, beta1, rng),
                             pkg.lemma1_ccc, (m, m, g, g), 2, g))
    rng.shuffle(ops)
    return Workload(ops)


def build_long_chain(pkg, tracer, rng: random.Random, workdir: Path) -> Workload:
    ops = _long_chain_ops(pkg, tracer, rng)
    rng.shuffle(ops)
    return Workload(ops)


def build_qary(pkg, tracer, rng: random.Random, workdir: Path) -> Workload:
    ops = [
        _qary_thm2(pkg, tracer, 4, 8, rng),
        _qary_lemma2(pkg, tracer, 4, 9, rng),
        _qary_thm2(pkg, tracer, 6, 7, rng),
        _qary_thm2(pkg, tracer, 6, 8, rng),
        _qary_thm2(pkg, tracer, 8, 7, rng),
        _qary_thm2(pkg, tracer, 8, 8, rng),
    ]
    rng.shuffle(ops)
    return Workload(ops)


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _mutant_doc(text: str, q: int, dims, rng: random.Random) -> dict:
    """The set's JSON document with one phase moved by a nonzero amount.

    Against every other code the cross sum at shift 0 then changes by a
    nonzero term, so the file must fail verification.
    """
    doc = json.loads(text)
    m, n, length, _ = dims
    ci, ri, pos = rng.randrange(m), rng.randrange(n), rng.randrange(length)
    row = doc["codes"][ci][ri]
    row[pos] = (row[pos] + rng.randrange(1, q)) % q
    return doc


def build_mutants(pkg, tracer, rng: random.Random, workdir: Path) -> Workload:
    """Clean long_chain/qary sets (exit 0) and one-phase mutants of them
    (exit 1), verified through the CLI.  The q=8 counterexample (exit 1) is
    a probe: verify passes it until exact checking for every q lands, and
    no operation of a workload may fail."""
    chain = {op.label: op for op in _long_chain_ops(pkg, tracer, rng)}
    sources = [
        (chain["thm1 path m1=9"], 2),
        (chain["thm1 reference"], 1),
        (_qary_lemma2(pkg, tracer, 4, 9, rng), 1),
        (_qary_thm2(pkg, tracer, 8, 7, rng), 1),
    ]
    ops = []
    for si, (src, mutant_count) in enumerate(sources):
        text = pkg.dumps_code_set(src.generate(src.make_params()))
        path = workdir / f"set{si}.json"
        ops.append(FileOp(f"{src.label} clean", path, 0, src.dims, src.q, _write(path, text)))
        for mi in range(mutant_count):
            doc = _mutant_doc(text, src.q, src.dims, rng)
            path = workdir / f"set{si}-mutant{mi}.json"
            ops.append(FileOp(f"{src.label} mutant", path, 1, src.dims, src.q,
                              _write(path, json.dumps(doc))))
    rng.shuffle(ops)

    u = [p for p, count in COUNTEREXAMPLE_COUNTS.items() for _ in range(count)]
    rng.shuffle(u)
    length = len(u)
    doc = {
        "format_version": 1,
        "metadata": {"q": 8, "M": 2, "N": 1, "L": length, "Z": 1},
        "codes": [[u], [[0] * length]],
    }
    path = workdir / "q8-counterexample.json"
    probe = FileOp("q=8 counterexample", path, 1, (2, 1, length, 1), 8,
                   _write(path, json.dumps(doc)))
    return Workload(ops, (probe,))


WORKLOADS = {
    "sweep": build_sweep,
    "long_chain": build_long_chain,
    "qary": build_qary,
    "mutants": build_mutants,
}


# ---------------------------------------------------------------------------
# one operation


class Runner:
    """Runs operations through the package and checks each output.

    run() returns None for a correct operation and a reason otherwise; it
    never raises for a failure of the package, so the loop keeps going.
    """

    def __init__(self, pkg, cli, tracer, workdir: Path):
        self.pkg = pkg
        self.cli = cli
        self.tracer = tracer
        self.report_path = workdir / "report.json"
        self.counts: Counter[str] = Counter()

    def run(self, op) -> str | None:
        self.counts.update(static_counts(op))
        with self.tracer.span("op", op.label):
            try:
                if isinstance(op, SetOp):
                    return self._certify_set(op)
                return self._certify_file(op)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                return f"{type(exc).__name__}: {exc}"

    def _certify_set(self, op: SetOp) -> str | None:
        pkg, span = self.pkg, self.tracer.span
        with span("graphs.params"):
            params = op.make_params()
        with span("constructions.generate"):
            cs = op.generate(params)
        with span("correlation.verify"):
            report = pkg.verify_zccs(cs)
        with span("oracle.regen"):
            regen = pkg.oracle_regenerate(cs)
        with span("oracle.compare"):
            same = regen == cs
        with span("io.dump"):
            text = pkg.dumps_code_set(cs)
        with span("io.load"):
            back = pkg.loads_code_set(text)
        with span("io.dump"):
            again = pkg.dumps_code_set(back)
        self.counts["io.bytes"] += 3 * len(text)  # two dumps and one load
        self.counts["correlation.violations"] += len(report.violations)
        dims = (report.set_size, report.code_size, report.length)
        if cs.dims != op.dims or dims != op.dims[:3]:
            return f"dims {cs.dims}, report {dims}, predicted {op.dims}"
        if not (report.zccs_ok and report.optimal and report.measured_zcz >= op.dims[3]):
            return (f"verdict zccs_ok={report.zccs_ok} optimal={report.optimal} "
                    f"measured_zcz={report.measured_zcz} violations={len(report.violations)}")
        if not same:
            return "oracle regeneration differs"
        if back != cs or again != text:
            return "dump/load round trip differs"
        return None

    def _call_cli(self, op: FileOp) -> tuple[int, str]:
        self.report_path.unlink(missing_ok=True)
        out, err = textio.StringIO(), textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(["verify", str(op.path), "--report", str(self.report_path)])
        return code, err.getvalue().strip()

    def _certify_file(self, op: FileOp) -> str | None:
        with self.tracer.span("cli.verify"):
            code, err = self._call_cli(op)
        if code != op.expect_exit:
            self.counts["cli.exit_mismatches"] += 1
            return f"exit {code}, expected {op.expect_exit} {err}".rstrip()
        summary_doc = json.loads(self.report_path.read_text(encoding="utf-8"))
        summary, violations = summary_doc["summary"], summary_doc["violations"]
        self.counts["correlation.violations"] += len(violations)
        dims = (summary["M"], summary["N"], summary["L"])
        if dims != op.dims[:3] or summary["q"] != op.q:
            return f"report dims {dims} q={summary['q']}, file {op.dims[:3]} q={op.q}"
        if summary["zccs_ok"] != (op.expect_exit == 0) or bool(violations) == (op.expect_exit == 0):
            return f"report zccs_ok={summary['zccs_ok']} with {len(violations)} violations"
        return None

    def verify_peak_bytes(self, op) -> int:
        """Peak traced allocation during the op's verify call.

        For a file the window is the whole CLI call, load included.
        """
        if isinstance(op, SetOp):
            code_set = op.generate(op.make_params())
            call = lambda: self.pkg.verify_zccs(code_set)
        else:
            call = lambda: self._call_cli(op)
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
