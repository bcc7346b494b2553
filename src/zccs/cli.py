"""Command-line front end.

Subcommands: generate (build a code set and optionally write it), verify
(check a stored set, optionally write a full JSON report, and exit nonzero
on violations), enumerate (list vertex deletions that leave a path), and
export (code-set file to CSV).

Exit codes: 0 success, 1 verification found violations, 2 bad parameters or
inadmissible construction inputs, 3 unreadable or malformed files.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import __version__
from .constructions import (
    GBF,
    ChainParams,
    Lemma1Params,
    Lemma2Params,
    Term,
    chained_zccs,
    lemma1_ccc,
    lemma2_ccc,
    theorem3_zccs,
)
from .correlation import is_optimal, verify_zccs
from .gbf import z
from .graphs import LabeledGraph, NotAPathError, enumerate_admissible_deletions
from .io import (
    CodeSetFormatError,
    export_csv,
    load_code_set,
    save_code_set,
    save_report,
)

CONSTRUCTIONS = ("lemma1", "thm1", "lemma2", "thm2", "thm3")


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_edges(text: str, default_weight: int) -> tuple[tuple[int, int, int], ...]:
    """Edge list syntax: "0-1,1-2:3" gives edges (0,1) weight default and
    (1,2) weight 3."""
    text = text.strip()
    if not text:
        return ()
    edges = []
    for part in text.split(","):
        part = part.strip()
        body, _, weight_text = part.partition(":")
        try:
            i_text, j_text = body.split("-")
            weight = int(weight_text) if weight_text else default_weight
            edges.append((int(i_text), int(j_text), weight))
        except ValueError:
            raise ValueError(f"bad edge {part!r}; expected i-j or i-j:w")
    return tuple(edges)


def _parse_bit_vectors(text: str) -> tuple[tuple[int, ...], ...] | None:
    text = text.strip()
    if not text:
        return None
    vectors = []
    for part in text.split(","):
        part = part.strip()
        if not part or any(ch not in "01" for ch in part):
            raise ValueError(f"bad bit vector {part!r}; expected a string of 0s and 1s")
        vectors.append(tuple(int(ch) for ch in part))
    return tuple(vectors)


def _quadratic_gbf(nvars: int, qmod: int, edges) -> GBF:
    return GBF(nvars, qmod, tuple(Term(w, (z(i), z(j))) for i, j, w in edges))


def _require(args: argparse.Namespace, names: list[str], construction: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"{construction} requires {', '.join(missing)}")


def _build_code_set(args: argparse.Namespace):
    deleted = _parse_ints(args.delete)
    s_r = _parse_bit_vectors(args.s_r)
    if args.construction in ("lemma1", "thm1", "thm3"):
        _require(args, ["m1"], args.construction)
        nvars = args.m1 - 4
        if nvars < 1:
            raise ValueError(f"need m1 >= 5, got {args.m1}")
        # materialized only after Lemma1Params has bounded m1 by the set size
        d_vec = _parse_ints(args.d_vec) if args.d_vec else itertools.repeat(0, nvars)
        base = Lemma1Params(
            m1=args.m1,
            quadratic=_quadratic_gbf(nvars, 2, _parse_edges(args.quadratic, 1)),
            d_vec=d_vec,
            d=args.d,
            deleted=deleted,
            beta1=args.beta1,
        )
    else:
        _require(args, ["m2"], args.construction)
        half = args.q // 2 if args.q >= 2 else 1
        linear = _parse_ints(args.d_vec) if args.d_vec else ()
        edges = _parse_edges(args.quadratic, half)
        terms = list(_quadratic_gbf(args.m2, max(args.q, 2), edges).terms)
        terms += [Term(coeff, (z(i),)) for i, coeff in enumerate(linear)]
        terms.append(Term(args.d))
        base = Lemma2Params(
            q=args.q,
            m2=args.m2,
            f=GBF(args.m2, max(args.q, 2), tuple(terms)),
            deleted=deleted,
            beta1=args.beta1,
        )
    seed_generators = {"lemma1": lemma1_ccc, "lemma2": lemma2_ccc, "thm3": theorem3_zccs}
    if args.construction in seed_generators:
        return seed_generators[args.construction](base, args.bit_order)
    _require(args, ["l", "R"], args.construction)
    return chained_zccs(ChainParams(base=base, l=args.l, r=args.R, s_r=s_r), args.bit_order)


def cmd_generate(args: argparse.Namespace) -> int:
    code_set = _build_code_set(args)
    m, n, length, zone = code_set.dims
    print(f"(M, N, L, Z) = ({m}, {n}, {length}, {zone})")
    print(f"size bound met with equality: {'yes' if is_optimal(m, n, length, zone) else 'no'}")
    if args.out:
        save_code_set(code_set, args.out)
        print(f"wrote {args.out}")
    return 0


def _print_verification(report) -> None:
    arithmetic = "exact" if report.exact else f"float, tolerance {report.tolerance:g}"
    print(
        f"set: q={report.q}, (M, N, L) = "
        f"({report.set_size}, {report.code_size}, {report.length})"
    )
    print(f"zone checked: {report.z_checked} ({arithmetic})")
    print(f"expected peak {report.expected_peak}; measured zero zone {report.measured_zcz}")
    print(f"violations in zone: {len(report.violations)}")
    for v in report.violations[:10]:
        print(f"  codes ({v.i}, {v.j}) shift {v.tau}: {v.value.as_complex()}")
    if len(report.violations) > 10:
        print(f"  ... {len(report.violations) - 10} more")
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
    edges = _parse_edges(args.quadratic, 1 if args.weight is None else args.weight)
    vertices = args.vertices
    if vertices is None:
        vertices = 1 + max((max(i, j) for i, j, _ in edges), default=-1)
    if vertices < 1:
        raise ValueError("graph needs at least one vertex; pass --vertices")
    graph = LabeledGraph(vertices, edges)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zccs",
        description="Construct and verify complementary code sets with zero-correlation zones.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a code set from construction parameters")
    gen.add_argument("construction", choices=CONSTRUCTIONS)
    gen.add_argument("--m1", type=int, help="variable count for the binary family (>= 5)")
    gen.add_argument("--m2", type=int, help="variable count for the q-ary family (>= 1)")
    gen.add_argument("--q", type=int, default=2, help="modulus for the q-ary family (even)")
    gen.add_argument(
        "--quadratic",
        default="",
        help='quadratic part as edges, e.g. "0-1,1-2" or "0-1:2" with weights',
    )
    gen.add_argument("--d-vec", default="", help='linear coefficients, e.g. "1,1,1,1"')
    gen.add_argument("--d", type=int, default=0, help="constant coefficient")
    gen.add_argument("--delete", default="", help='vertices to delete, e.g. "0,1"')
    gen.add_argument("--beta1", type=int, help="path end to use (default: smallest)")
    gen.add_argument("--l", type=int, help="label length for block-chained constructions")
    gen.add_argument("--R", type=int, help="block count (even, at most 2^l)")
    gen.add_argument("--s-r", default="", help='block labels as bitstrings, e.g. "00,10"')
    gen.add_argument("--bit-order", choices=("lsb", "msb"), help="index bit convention")
    gen.add_argument("--out", help="write the code set to this JSON file")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="verify a stored code set")
    ver.add_argument("file")
    ver.add_argument("--z", type=int, help="zone to check (default: declared)")
    ver.add_argument("--report", help="also write a JSON report here")
    ver.set_defaults(func=cmd_verify)

    enm = sub.add_parser("enumerate", help="list vertex deletions that leave a path")
    enm.add_argument("--quadratic", default="", help="graph edges, same syntax as generate")
    enm.add_argument("--vertices", type=int, help="vertex count (default: inferred from edges)")
    enm.add_argument("--k", type=int, required=True, help="number of vertices to delete")
    enm.add_argument("--weight", type=int, help="default weight for edges given without one")
    enm.add_argument(
        "--require-weight", type=int, help="accept only residual edges of this weight"
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
    except NotAPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CodeSetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
