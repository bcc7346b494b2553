"""Command-line front end.

Subcommands: generate (build a code set and optionally write it), verify
(check a stored set, optionally write a full JSON report, and exit nonzero
on violations), enumerate (list vertex deletions that leave a path), and
export (code-set file to CSV).  The construction name comes right after
generate; `zccs generate <construction> --help` lists the flags that
construction reads; any other flag, a flag's prefix, or an edge list that is
no simple graph with nonzero weights (mod q for generate) exits 2.

Exit codes: 0 success, 1 verification found violations, 2 bad parameters or
inadmissible construction inputs, 3 unreadable or malformed files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from . import __version__
from .constructions import (
    ChainParams,
    Lemma1Params,
    Lemma2Params,
    chained_zccs,
    lemma1_ccc,
    lemma2_ccc,
    theorem3_zccs,
)
from .correlation import ProfileSizeError, is_optimal, verify_zccs
from .gbf import BIT_ORDERS, GBF, Term, z
from .graphs import LabeledGraph, NotAPathError, enumerate_admissible_deletions
from .io import (
    CodeSetFormatError,
    export_csv,
    load_code_set,
    save_code_set,
    save_report,
)


def _fields(text: str) -> list[str]:
    """The stripped comma-separated fields of text; none for blank text."""
    text = text.strip()
    return [part.strip() for part in text.split(",")] if text else []


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _fields(text))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text.strip()!r}")


def _parse_bit_vectors(text: str) -> tuple[tuple[int, ...], ...] | None:
    vectors = []
    for part in _fields(text):
        if not part or any(ch not in "01" for ch in part):
            raise ValueError(f"bad bit vector {part!r}; expected a string of 0s and 1s")
        vectors.append(tuple(int(ch) for ch in part))
    return tuple(vectors) or None


def _read_graph(text: str, vertices: int | None, weight: int, q: int = 0) -> LabeledGraph:
    """The edge list "0-1,1-2:3" as a LabeledGraph: edge (0, 1) of the given weight,
    (1, 2) of weight 3, weights mod q if q is set (a nonzero weight that is 0 mod q
    is refused); vertices default to max end + 1."""
    edges = []
    for part in _fields(text):
        body, _, weight_text = part.partition(":")
        try:
            i_text, j_text = body.split("-")
            i, j, w = int(i_text), int(j_text), int(weight_text) if weight_text else weight
        except ValueError:
            raise ValueError(f"bad edge {part!r}; expected i-j or i-j:w")
        if q and w and w % q == 0:
            raise ValueError(f"edge ({i}, {j}) has zero weight: {w} is 0 mod {q}")
        edges.append((i, j, w % q if q else w))
    if vertices is None:
        vertices = 1 + max((max(i, j) for i, j, _ in edges), default=-1)
    return LabeledGraph(vertices, tuple(edges))


def _binary_seed(args: argparse.Namespace, deleted: tuple[int, ...]) -> Lemma1Params:
    nvars = args.m1 - 4
    if nvars < 1:
        raise ValueError(f"need m1 >= 5, got {args.m1}")
    # materialized only after Lemma1Params has bounded m1 by the set size
    d_vec = _parse_ints(args.d_vec) if args.d_vec else itertools.repeat(0, nvars)
    graph = _read_graph(args.quadratic, nvars, 1, 2)
    return Lemma1Params(
        m1=args.m1,
        quadratic=GBF(nvars, 2, tuple(Term(w, (z(i), z(j))) for i, j, w in graph.edges)),
        d_vec=d_vec,
        d=args.d,
        deleted=deleted,
        beta1=args.beta1,
    )


def _qary_seed(args: argparse.Namespace, deleted: tuple[int, ...]) -> Lemma2Params:
    qmod = max(args.q, 2)
    linear = _parse_ints(args.d_vec)
    graph = _read_graph(args.quadratic, args.m2, qmod // 2, qmod)
    terms = [Term(w, (z(i), z(j))) for i, j, w in graph.edges]
    terms += [Term(coeff, (z(i),)) for i, coeff in enumerate(linear)]
    terms.append(Term(args.d))
    return Lemma2Params(
        q=args.q,
        m2=args.m2,
        f=GBF(args.m2, qmod, tuple(terms)),
        deleted=deleted,
        beta1=args.beta1,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    params = args.seed(args, _parse_ints(args.delete))
    if args.generator is chained_zccs:
        params = ChainParams(base=params, l=args.l, r=args.R, s_r=_parse_bit_vectors(args.s_r))
    code_set = args.generator(params, args.bit_order)
    m, n, length, zone = code_set.dims
    print(f"(M, N, L, Z) = ({m}, {n}, {length}, {zone})")
    print(f"size bound met with equality: {'yes' if is_optimal(m, n, length, zone) else 'no'}")
    if args.out:
        save_code_set(code_set, args.out)
        print(f"wrote {args.out}")
    return 0


def _print_verification(report) -> None:
    arithmetic = "exact" if report.exact else f"not certified, tolerance {report.tolerance:g}"
    print(
        f"set: q={report.q}, (M, N, L) = "
        f"({report.set_size}, {report.code_size}, {report.length})"
    )
    print(f"zone checked: {report.z_checked} ({arithmetic})")
    print(f"expected peak {report.expected_peak}; measured zero zone {report.measured_zcz}")
    print(f"violations in zone: {report.violation_count}")
    shown = min(10, len(report.listed))
    for i, j, tau, real, imag in report.listed_rows(shown):
        print(f"  codes ({i}, {j}) shift {tau}: {complex(real, imag)}")
    if report.violation_count > shown:
        print(f"  ... {report.violation_count - shown} more")
    verdict = "PASS" if report.zccs_ok else "FAIL"
    optimality = "optimal" if report.optimal else "not optimal"
    print(f"{verdict}: zone holds: {'yes' if report.zccs_ok else 'no'}; {optimality}")


def cmd_verify(args: argparse.Namespace) -> int:
    code_set = load_code_set(args.file)
    report = verify_zccs(code_set, z=args.z)
    _print_verification(report)
    if args.report:
        save_report(report, args.report)
        print(f"wrote {args.report}")
    return 0 if report.zccs_ok else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    weight = 1 if args.require_weight is None else args.require_weight
    graph = _read_graph(args.quadratic, args.vertices, weight)
    if graph.vertex_count < 1:
        raise ValueError("graph needs at least one vertex; pass --vertices")
    certs = enumerate_admissible_deletions(graph, args.k, required_weight=args.require_weight)
    for cert in certs:
        path = "-".join(str(v) for v in cert.path_order)
        print(f"delete {list(cert.deleted)} -> path {path}, ends {list(cert.end_vertices)}")
    print(f"{len(certs)} admissible deletion(s) of size {args.k}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    code_set = load_code_set(args.file)
    export_csv(code_set, args.out)
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # full flag names only; sub-parsers inherit the class
        super().__init__(allow_abbrev=False, **kwargs)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zccs",
        description="Construct and verify complementary code sets with zero-correlation zones.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = _Parser(add_help=False)
    seed.add_argument(
        "--quadratic",
        default="",
        help='quadratic part as edges, e.g. "0-1,1-2" or "0-1:2" with weights',
    )
    seed.add_argument("--d-vec", default="", help='linear coefficients, e.g. "1,1,1,1"')
    seed.add_argument("--d", type=int, default=0, help="constant coefficient")
    seed.add_argument("--delete", default="", help='vertices to delete, e.g. "0,1"')
    seed.add_argument("--beta1", type=int, help="path end to use (default: smallest)")
    seed.add_argument("--bit-order", choices=BIT_ORDERS, help="index bit convention")
    seed.add_argument("--out", help="write the code set to this JSON file")
    binary = _Parser(add_help=False)
    binary.add_argument("--m1", type=int, required=True, help="variable count (>= 5)")
    binary.set_defaults(seed=_binary_seed)
    qary = _Parser(add_help=False)
    qary.add_argument("--m2", type=int, required=True, help="variable count (>= 1)")
    qary.add_argument("--q", type=int, default=2, help="modulus (even)")
    qary.set_defaults(seed=_qary_seed)
    chain = _Parser(add_help=False)
    chain.add_argument("--l", type=int, required=True, help="label length")
    chain.add_argument("--R", type=int, required=True, help="block count (even, at most 2^l)")
    chain.add_argument("--s-r", default="", help='block labels as bitstrings, e.g. "00,10"')

    gen = sub.add_parser("generate", help="build a code set from construction parameters")
    kinds = gen.add_subparsers(dest="construction", metavar="construction", required=True)
    for name, family, generator, what in (
        ("lemma1", binary, lemma1_ccc, "binary complete complementary code (Lemma 1)"),
        ("thm1", binary, chained_zccs, "binary block-chained set (Theorem 1)"),
        ("thm3", binary, theorem3_zccs, "binary three-block set (Theorem 3)"),
        ("lemma2", qary, lemma2_ccc, "q-ary complete complementary code (Lemma 2)"),
        ("thm2", qary, chained_zccs, "q-ary block-chained set (Theorem 2)"),
    ):
        parents = [family, seed] + ([chain] if generator is chained_zccs else [])
        kind = kinds.add_parser(name, parents=parents, help=what, description=what)
        kind.set_defaults(func=cmd_generate, generator=generator)

    ver = sub.add_parser("verify", help="verify a stored code set")
    ver.add_argument("file")
    ver.add_argument("--z", type=int, help="zone to check (default: declared)")
    ver.add_argument("--report", help="also write a JSON report here")
    ver.set_defaults(func=cmd_verify)

    enm = sub.add_parser("enumerate", help="list vertex deletions that leave a path")
    enm.add_argument("--quadratic", default="", help="graph edges, same syntax as generate")
    enm.add_argument("--vertices", type=int, help="vertex count (default: inferred from edges)")
    enm.add_argument("--k", type=int, required=True, help="number of vertices to delete")
    enm.add_argument(
        "--require-weight",
        type=int,
        help="accept only residual edges of this weight, which edges given without one take",
    )
    enm.set_defaults(func=cmd_enumerate)

    exp = sub.add_parser("export", help="convert a code-set file to CSV")
    exp.add_argument("file")
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotAPathError, CodeSetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (CodeSetFormatError, ProfileSizeError, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
