"""File formats: canonical JSON code-set files, report files, CSV export.

Code-set files are written in a canonical layout (fixed key order, one code
per line, trailing newline) so that serialize -> parse -> serialize is
byte-identical.  They contain integers only; phases are stored directly and
never converted to floating point.  Reports are plain JSON for human and
machine consumption and carry no such guarantee.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .constructions import CodeSet
from .correlation import CorrelationReport

FORMAT_VERSION = 1


class CodeSetFormatError(Exception):
    """The file exists but does not parse as a code-set document."""


def code_set_to_document(code_set: CodeSet) -> dict:
    prov = code_set.provenance or {}
    metadata = {
        "q": code_set.q,
        "M": code_set.set_size,
        "N": code_set.code_size,
        "L": code_set.length,
        "Z": code_set.zcz,
        "construction": prov.get("construction"),
        "bit_order": prov.get("bit_order"),
        "parameters": prov.get("parameters"),
    }
    codes = code_set.phases.tolist()
    return {"format_version": FORMAT_VERSION, "metadata": metadata, "codes": codes}


def code_set_from_document(doc) -> CodeSet:
    if not isinstance(doc, dict):
        raise CodeSetFormatError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CodeSetFormatError(f"unsupported format version {doc.get('format_version')!r}")
    meta = doc.get("metadata")
    if not isinstance(meta, dict):
        raise CodeSetFormatError("missing metadata object")
    dims = {}
    for key in ("q", "M", "N", "L", "Z"):
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodeSetFormatError(f"metadata field {key} must be an integer")
        dims[key] = value
    codes_doc = doc.get("codes")
    if not isinstance(codes_doc, list):
        raise CodeSetFormatError("missing codes array")
    for ci, code in enumerate(codes_doc):
        if not isinstance(code, list):
            raise CodeSetFormatError(f"code {ci} must be an array of sequences")
        for ri, row in enumerate(code):
            # exact types: bool is a subclass of int but its own type
            if type(row) is not list or set(map(type, row)) - {int}:
                raise CodeSetFormatError(f"code {ci} row {ri} must be an array of integers")
    provenance = None
    if meta.get("construction") is not None:
        provenance = {
            "construction": meta.get("construction"),
            "bit_order": meta.get("bit_order"),
            "parameters": meta.get("parameters"),
        }
    return _checked_code_set(codes_doc, dims, provenance)


def _checked_code_set(data, dims: dict, provenance: dict | None) -> CodeSet:
    """CodeSet from nested lists of ints whose shape must match dims M, N, L.

    Only the data decide the array's size: metadata are compared against it,
    never used to allocate.
    """
    try:
        phases = np.array(data, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise CodeSetFormatError("codes must be equal-length rows of 64-bit integers") from exc
    if phases.ndim != 3:
        raise CodeSetFormatError(f"codes must nest three levels deep, got shape {phases.shape}")
    wanted = (dims["M"], dims["N"], dims["L"])
    for what, want, got in zip(("codes", "rows per code", "phases per row"), wanted, phases.shape):
        if want != got:
            raise CodeSetFormatError(f"expected {want} {what}, got {got}")
    try:
        return CodeSet(q=dims["q"], zcz=dims["Z"], phases=phases, provenance=provenance)
    except ValueError as exc:
        raise CodeSetFormatError(str(exc)) from exc


def dumps_code_set(code_set: CodeSet) -> str:
    """Canonical text form: metadata indented, one code per line."""
    doc = code_set_to_document(code_set)
    meta_block = json.dumps(doc["metadata"], indent=2).replace("\n", "\n  ")
    codes = ",\n".join("    " + json.dumps(code, separators=(",", ":")) for code in doc["codes"])
    return (
        f'{{\n  "format_version": {doc["format_version"]},\n  "metadata": {meta_block},\n'
        f'  "codes": [\n{codes}\n  ]\n}}\n'
    )


def save_code_set(code_set: CodeSet, path) -> None:
    Path(path).write_text(dumps_code_set(code_set), encoding="utf-8")


def loads_code_set(text: str) -> CodeSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeSetFormatError(f"not valid JSON: {exc}") from exc
    return code_set_from_document(doc)


def load_code_set(path) -> CodeSet:
    return loads_code_set(Path(path).read_text(encoding="utf-8"))


def report_to_document(report: CorrelationReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "summary": {
            "q": report.q,
            "M": report.set_size,
            "N": report.code_size,
            "L": report.length,
            "z_checked": report.z_checked,
            "exact": report.exact,
            "tolerance": report.tolerance,
            "expected_peak": report.expected_peak,
            "measured_zcz": report.measured_zcz,
            "zccs_ok": report.zccs_ok,
            "optimal": report.optimal,
            "violation_count": len(report.violations),
        },
        "peaks": [[v.real, v.imag] for v in report.peaks],
        "violations": [
            {"i": v.i, "j": v.j, "tau": v.tau, "value": [v.value.real, v.value.imag]}
            for v in report.violations
        ],
    }


def save_report(report: CorrelationReport, path) -> None:
    Path(path).write_text(
        json.dumps(report_to_document(report), indent=2) + "\n", encoding="utf-8"
    )


def export_csv(code_set: CodeSet, path) -> None:
    """Comment header, then one line per sequence, code-major order.

    Binary sets export as +-1 values; other moduli export raw phases.
    """
    prov = code_set.provenance or {}
    lines = [
        f"# q={code_set.q}",
        f"# M={code_set.set_size}",
        f"# N={code_set.code_size}",
        f"# L={code_set.length}",
        f"# Z={code_set.zcz}",
        f"# values={'signs' if code_set.q == 2 else 'phases'}",
    ]
    if prov.get("construction"):
        lines.append(f"# construction={prov['construction']}")
        lines.append(f"# bit_order={prov['bit_order']}")
    values = 1 - 2 * code_set.phases if code_set.q == 2 else code_set.phases
    for row in values.reshape(-1, code_set.length).tolist():
        lines.append(",".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def import_csv(path) -> CodeSet:
    """Inverse of export_csv up to provenance, which CSV does not carry."""
    meta: dict[str, str] = {}
    rows: list[list[int]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        try:
            rows.append([int(x) for x in stripped.split(",")])
        except ValueError as exc:
            raise CodeSetFormatError(f"line {lineno}: non-integer entry") from exc
    try:
        q = int(meta["q"])
        m, n, length, zone = (int(meta[k]) for k in ("M", "N", "L", "Z"))
        values = meta.get("values", "signs" if q == 2 else "phases")
    except (KeyError, ValueError) as exc:
        raise CodeSetFormatError(f"incomplete or invalid header: {exc}") from exc
    if min(m, n, length) < 1:
        raise CodeSetFormatError(f"M, N and L must be positive, got {m}, {n}, {length}")
    if len(rows) != m * n:
        raise CodeSetFormatError(f"expected {m * n} data rows, found {len(rows)}")
    if values == "signs":
        if any(v not in (1, -1) for row in rows for v in row):
            raise CodeSetFormatError("sign data has entries other than +-1")
        rows = [[(1 - v) // 2 for v in row] for row in rows]
    codes = [rows[ci * n : (ci + 1) * n] for ci in range(m)]
    return _checked_code_set(codes, {"q": q, "M": m, "N": n, "L": length, "Z": zone}, None)
