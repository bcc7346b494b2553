"""File formats: canonical JSON code-set files, report files, CSV export.

Code-set files are written in a canonical layout so that serialize -> parse
-> serialize is byte-identical.  `dumps_code_set` alone defines it: the keys
format_version, metadata, codes in that order; the metadata object as
json.dumps(indent=2) writes it; one code per line,
`    [[p,...,p],...,[p,...,p]]`, lines joined by ",\n"; a trailing newline.
The code lines are built as bytes straight from the phase array, never
through one Python int per phase.  Files contain integers only; phases are
never converted to floating point.  Reports are compact JSON on one line,
have their own REPORT_FORMAT_VERSION and carry no such guarantee.

Reading a file tries the canonical layout first: json parses only the
header above the codes, and numpy reads every digit run below it in one
pass.  That set is accepted only when `dumps_code_set` reproduces the text
byte for byte.  Any other text, and every document a caller passes in, goes
through `json.loads` and `code_set_from_document`, so both paths check the
header with the same code and give the same set or the same error.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .constructions import CodeSet
from .correlation import CorrelationReport

FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 2


class CodeSetFormatError(Exception):
    """The file exists but does not parse as a code-set document."""


def _metadata(code_set: CodeSet) -> dict:
    prov = code_set.provenance or {}
    return {
        "q": code_set.q,
        "M": code_set.set_size,
        "N": code_set.code_size,
        "L": code_set.length,
        "Z": code_set.zcz,
        "construction": prov.get("construction"),
        "bit_order": prov.get("bit_order"),
        "parameters": prov.get("parameters"),
    }


def _header(doc) -> tuple[dict, dict | None]:
    """Dims q, M, N, L, Z and the provenance of a document whose format
    version and metadata are checked; the codes are left to the caller."""
    if not isinstance(doc, dict):
        raise CodeSetFormatError("top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CodeSetFormatError(f"unsupported format version {version!r}")
    meta = doc.get("metadata")
    if not isinstance(meta, dict):
        raise CodeSetFormatError("missing metadata object")
    dims = {}
    for key in ("q", "M", "N", "L", "Z"):
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodeSetFormatError(f"metadata field {key} must be an integer")
        dims[key] = value
    provenance = None
    if meta.get("construction") is not None:
        provenance = {
            "construction": meta.get("construction"),
            "bit_order": meta.get("bit_order"),
            "parameters": meta.get("parameters"),
        }
    return dims, provenance


def code_set_from_document(doc) -> CodeSet:
    dims, provenance = _header(doc)
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
    phases.setflags(write=False)
    try:
        return CodeSet(q=dims["q"], zcz=dims["Z"], phases=phases, provenance=provenance)
    except ValueError as exc:
        raise CodeSetFormatError(str(exc)) from exc


def _codes_text(phases: np.ndarray) -> str:
    """The code lines of `dumps_code_set`, joined by ",\n".

    One byte row per sequence: a 6-byte lead, a cell per phase (its digits
    right-aligned, then "," or "]") and a 3-byte tail.  Bytes left unused,
    leading zeros included, stay NUL and are deleted in one pass.
    """
    m, n, length = phases.shape
    width = len(str(phases.max()))
    rows = np.zeros((m, n, 6 + length * (width + 1) + 3), np.uint8)
    cells = rows[:, :, 6:-3].reshape(m, n, length, width + 1)
    rest = phases
    for k in range(width - 1):
        power = 10 ** (width - 1 - k)
        digits, rest = np.divmod(rest, power)
        cells[..., k] = np.where(phases >= power, digits + ord("0"), 0)
    cells[..., -2] = rest + ord("0")
    cells[..., -1] = ord(",")
    cells[:, :, -1, -1] = ord("]")
    rows[:, :, 5] = ord("[")
    rows[:, 0, :5] = np.frombuffer(b"    [", np.uint8)
    rows[:, :-1, -3] = ord(",")
    rows[:, -1, -3:] = np.frombuffer(b"],\n", np.uint8)
    rows[-1, -1, -2:] = 0
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def dumps_code_set(code_set: CodeSet) -> str:
    """Canonical text form: metadata indented, one code per line."""
    meta_block = json.dumps(_metadata(code_set), indent=2).replace("\n", "\n  ")
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "metadata": {meta_block},\n'
        f'  "codes": [\n{_codes_text(code_set.phases)}\n  ]\n}}\n'
    )


def save_code_set(code_set: CodeSet, path) -> None:
    Path(path).write_text(dumps_code_set(code_set), encoding="utf-8")


_CODES_LINE = '\n  "codes": [\n'
_DIGITS_ONLY = bytes(b if 48 <= b <= 57 else 32 for b in range(256))


def _canonical_code_set(text: str) -> CodeSet | None:
    """The set whose `dumps_code_set` text is exactly text, or None.

    The phases are the digit runs below the codes line, read in one numpy
    pass.  Brackets, commas and any other byte count as spaces, a blank
    block reads as one 0 and a run beyond int64 saturates: the re-dump
    rejects all of those.  The data alone size the array; the metadata's
    M * N * L is only compared with their count.
    """
    head, codes_line, body = text.partition(_CODES_LINE)
    # json.dumps(indent=2) writes the codes line too; its next line is "    ["
    if not codes_line or not body.startswith("    [[") or not body.isascii():
        return None
    try:
        dims, provenance = _header(json.loads(head[:-1] + "}"))
    except (ValueError, RecursionError, CodeSetFormatError):
        return None
    phases = np.fromstring(body.encode("ascii").translate(_DIGITS_ONLY), np.int64, sep=" ")
    m, n, length = dims["M"], dims["N"], dims["L"]
    if phases.size != m * n * length:
        return None
    try:
        # reshaped in place (same size, nothing else refers to it) and made
        # read-only, so the set takes this array instead of a copy
        phases.resize((m, n, length), refcheck=False)
        phases.setflags(write=False)
        code_set = CodeSet(q=dims["q"], zcz=dims["Z"], phases=phases, provenance=provenance)
    except ValueError:
        return None
    return code_set if dumps_code_set(code_set) == text else None


def loads_code_set(text: str) -> CodeSet:
    code_set = _canonical_code_set(text)
    if code_set is not None:
        return code_set
    # json.loads also raises a plain ValueError for an integer beyond the
    # digit limit, and RecursionError for nesting too deep
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CodeSetFormatError(f"not valid JSON: {exc}") from exc
    return code_set_from_document(doc)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CodeSetFormatError(f"not UTF-8 text: {exc}") from exc


def load_code_set(path) -> CodeSet:
    return loads_code_set(_read_text(path))


def report_to_document(report: CorrelationReport) -> dict:
    """summary.violation_count counts every in-zone violation; violations
    lists the first summary.violations_listed of them."""
    return {
        "format_version": REPORT_FORMAT_VERSION,
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
            "violation_count": report.violation_count,
            "violations_listed": len(report.violations),
        },
        "peaks": [[v.real, v.imag] for v in report.peaks],
        "violations": [
            {"i": v.i, "j": v.j, "tau": v.tau, "value": [v.value.real, v.value.imag]}
            for v in report.violations
        ],
    }


def save_report(report: CorrelationReport, path) -> None:
    """Compact JSON plus a newline: without indent, json uses its C encoder."""
    text = json.dumps(report_to_document(report), separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


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
    # The canonical code lines, less their brackets, are the phase lines.
    rows = _codes_text(code_set.phases)[6:-2].replace("]],\n    [[", "\n").replace("],[", "\n")
    if code_set.q == 2:
        rows = rows.replace("1", "-1").replace("0", "1")
    Path(path).write_text("\n".join(lines) + "\n" + rows + "\n", encoding="utf-8")
