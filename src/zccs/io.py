"""File formats: canonical JSON code-set files, report files, CSV export.

Code-set files are written in a canonical layout so that serialize -> parse
-> serialize is byte-identical.  `dumps_code_set` alone defines it: the keys
format_version, metadata, codes in that order; the metadata object as
json.dumps(indent=2) writes it (`_json_block` writes it, as that encoder is
pure Python and a certified set is dumped three times); one code per line,
`    [[p,...,p],...,[p,...,p]]`, lines joined by ",\n"; a trailing newline.
The code lines are built as bytes straight from the phase array, never
through one Python int per phase, in one byte array with no gap between
the brackets, separators and line breaks: only the leading zeros of
multi-digit phases leave NULs to squeeze out, so single-digit phases are
written with no pass over the text.  Files contain integers only; phases
are never converted to floating point.  Reports are compact JSON on one line,
have their own REPORT_FORMAT_VERSION and carry no such guarantee.
`dumps_report` alone defines their text: json.dumps writes the summary,
and each listed violation is one %-template filled from the columns of the
report's `violations` table, never through a dict per violation.

Reading tries two layouts first, the canonical one and json.dumps' default
(`_default_text`), when every phase is one digit: json parses the header,
one `bytes.translate` reads the digits below it, and that set is accepted
only when re-dumping it in the text's layout gives the text byte for byte.
Any other text, multi-digit phases included, and every document a caller
passes in, goes through `json.loads` and `code_set_from_document`, so both
paths check the header with the same code and give the same set or the same
error.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .constructions import CodeSet
from .correlation import CorrelationReport

FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 3

# The metadata keys: the set's dims, then its provenance record's.
_DIMS = ("q", "M", "N", "L", "Z")
_PROVENANCE = ("construction", "bit_order", "parameters")


class CodeSetFormatError(Exception):
    """The file exists but does not parse as a code-set document."""


def _metadata(code_set: CodeSet) -> dict:
    prov = code_set.provenance or {}
    dims = zip(_DIMS, (code_set.q, *code_set.dims))
    return {**dict(dims), **{key: prov.get(key) for key in _PROVENANCE}}


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
    for key in _DIMS:
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodeSetFormatError(f"metadata field {key} must be an integer")
        dims[key] = value
    if meta.get("construction") is None:
        return dims, None
    return dims, {key: meta.get(key) for key in _PROVENANCE}


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


def _codes_text(phases: np.ndarray, sep: str = ",", brk: str = "\n    ") -> str:
    """Each code as "[[p,...,p],...,[p,...,p]]" with sep for ",", codes joined
    by sep + brk: by default the canonical code lines.  The text is laid out
    gap-free in one byte array: per code a "[", its sequences and a tail
    "]" + sep + brk; per sequence a "[", a cell per phase (its digits
    right-aligned, then sep) and one more byte, the last cell's sep and that
    byte being "]" + sep.  The last code's sep + brk is cut off.  Only the
    leading zeros of multi-digit cells stay NUL, removed in one pass.
    """
    m, n, length = phases.shape
    width = len(str(phases.max()))
    close, code_end = (np.frombuffer(f"]{sep}{end}".encode("ascii"), np.uint8) for end in ("", brk))
    row_size = 1 + length * (width + len(sep)) + 1
    text = np.empty(m * (1 + n * row_size + 1 + len(brk)), np.uint8)
    codes = text.reshape(m, -1)
    rows = codes[:, 1 : 1 + n * row_size].reshape(m, n, row_size)
    cells = rows[:, :, 1:-1].reshape(m, n, length, width + len(sep))
    for k in range(width - 1):
        power = 10 ** (width - 1 - k)
        digit = phases // power  # the one int64 temporary of this digit
        if k:
            np.remainder(digit, 10, out=digit)
        digit += ord("0")
        digit *= phases >= power  # a leading zero stays NUL
        cells[..., k] = digit
        del digit
    last = np.remainder(phases, 10) if width > 1 else phases
    np.add(last, ord("0"), out=cells[..., width - 1], casting="unsafe")
    for k, byte in enumerate(sep.encode("ascii"), width):  # one byte at a time is faster
        cells[..., k] = byte
    codes[:, 0] = rows[:, :, 0] = ord("[")
    rows[:, :, -close.size :] = close
    codes[:, -code_end.size :] = code_end
    data = text[: text.size + 1 - code_end.size].tobytes()
    return (data.translate(None, b"\0") if width > 1 else data).decode("ascii")


def _json_block(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) with pad for each newline: value's text
    nested at pad's depth.  Dicts with str keys, lists, ints, strs, bools
    and None are written here; anything else is left to json.dumps(indent=2),
    at its depth."""
    kind, inner = type(value), pad + "  "
    if kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is list:
        items = [_json_block(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"
    if kind is dict and all([type(key) is str for key in value]):
        items = [f"{encode_basestring_ascii(k)}: {_json_block(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    return json.dumps(value, indent=2).replace("\n", pad)


def dumps_code_set(code_set: CodeSet) -> str:
    """Canonical text form: metadata indented, one code per line."""
    meta_block = _json_block(_metadata(code_set), "\n  ")
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n  "metadata": {meta_block},\n'
        f'  "codes": [\n    {_codes_text(code_set.phases)}\n  ]\n}}\n'
    )


def save_code_set(code_set: CodeSet, path) -> None:
    Path(path).write_text(dumps_code_set(code_set), encoding="utf-8")


def _default_text(code_set: CodeSet) -> str:
    """json.dumps of the set's document, with its default ", " and ": " separators."""
    meta, codes = json.dumps(_metadata(code_set)), _codes_text(code_set.phases, ", ", "")
    return f'{{"format_version": {FORMAT_VERSION}, "metadata": {meta}, "codes": [{codes}]}}'


_NON_DIGITS = bytes(b for b in range(256) if not 48 <= b <= 57)
_DIGIT_VALUES = bytes((b - 48) % 256 for b in range(256))  # "0".."9" to 0..9


def _read_phases(body: bytes, size: int) -> np.ndarray | None:
    """The digits of body as int64 when it holds exactly size of them, one
    per phase, else None.  The re-dump checks everything else."""
    digits = body.translate(_DIGIT_VALUES, _NON_DIGITS)
    if len(digits) != size:
        return None
    return np.frombuffer(digits, np.uint8).astype(np.int64)


def _redumped_code_set(text: str) -> CodeSet | None:
    """The set that `dumps_code_set` or `_default_text` writes as exactly text,
    or None.  Its phases are the digits after the last "codes" key (no
    quote follows the real one), one each; they alone size the array, the
    metadata's M * N * L is only compared with their count."""
    cut = text.rfind('"codes": ')
    if cut < 0 or not text.isascii():
        return None
    try:
        dims, provenance = _header(json.loads(text[:cut].rstrip(", \n") + "}"))
    except (ValueError, RecursionError, CodeSetFormatError):
        return None
    m, n, length = dims["M"], dims["N"], dims["L"]
    phases = _read_phases(text[cut:].encode("ascii"), m * n * length)
    if phases is None:
        return None
    try:
        # reshaped in place (same size, nothing else refers to it) and made
        # read-only, so the set takes this array instead of a copy
        phases.resize((m, n, length), refcheck=False)
        phases.setflags(write=False)
        code_set = CodeSet(q=dims["q"], zcz=dims["Z"], phases=phases, provenance=provenance)
    except ValueError:
        return None
    dump = dumps_code_set if text.startswith("{\n") else _default_text
    return code_set if dump(code_set) == text else None


def loads_code_set(text: str) -> CodeSet:
    code_set = _redumped_code_set(text)
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


def dumps_report(report: CorrelationReport) -> str:
    """Compact one-line JSON plus a newline.  summary.violation_count counts
    every in-zone violation; violations lists the first
    summary.violations_listed of them, one entry per row of report.violations."""
    summary = {
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
    }
    head = json.dumps(
        {"format_version": REPORT_FORMAT_VERSION, "summary": summary}, separators=(",", ":")
    )
    # %r of a finite float is its repr, which is what json writes
    part = "%d" if report.violations["real"].dtype.kind == "i" else "%r"
    entry = f'{{"i":%d,"j":%d,"tau":%d,"value":[{part},{part}]}}'
    return f'{head[:-1]},"violations":[{",".join(map(entry.__mod__, report.listed_rows()))}]}}\n'


def save_report(report: CorrelationReport, path) -> None:
    Path(path).write_text(dumps_report(report), encoding="utf-8")


def export_csv(code_set: CodeSet, path) -> None:
    """Comment header, then one line per sequence, code-major order.

    Binary sets export as +-1 values; other moduli export raw phases.
    """
    prov = code_set.provenance or {}
    lines = [f"# {key}={value}" for key, value in zip(_DIMS, (code_set.q, *code_set.dims))]
    lines.append(f"# values={'signs' if code_set.q == 2 else 'phases'}")
    if prov.get("construction"):
        lines.append(f"# construction={prov['construction']}")
        lines.append(f"# bit_order={prov['bit_order']}")
    # The canonical code lines, less their brackets, are the phase lines.
    rows = _codes_text(code_set.phases)[2:-2].replace("]],\n    [[", "\n").replace("],[", "\n")
    if code_set.q == 2:
        rows = rows.replace("1", "-1").replace("0", "1")
    Path(path).write_text("\n".join(lines) + "\n" + rows + "\n", encoding="utf-8")
