"""Serialization: canonical JSON files, reports, CSV export."""

import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from zccs import (
    BIT_ORDERS,
    ChainParams,
    CodeSet,
    CodeSetFormatError,
    GBF,
    Lemma1Params,
    Lemma2Params,
    Term,
    Theorem1Params,
    code_set_from_document,
    dumps_code_set,
    dumps_report,
    export_csv,
    lemma1_ccc,
    lemma2_ccc,
    load_code_set,
    loads_code_set,
    save_code_set,
    save_report,
    theorem1_zccs,
    theorem2_zccs,
    theorem3_zccs,
    verify_zccs,
    z,
    zbar,
)
from zccs import io
from zccs.cli import main

from conftest import mutate_one_phase, quadratic_gbf


@pytest.fixture(scope="module")
def binary_set():
    return lemma1_ccc(Lemma1Params(6, quadratic_gbf(2, [(0, 1)]), (1, 0), d=1))


@pytest.fixture(scope="module")
def quaternary_set():
    f = GBF(2, 4, (Term(2, (z(0), z(1))), Term(3, (z(1),))))
    return lemma2_ccc(Lemma2Params(4, 2, f, beta1=1))


class TestDocuments:
    def test_round_trip_preserves_everything(self, binary_set):
        doc = json.loads(dumps_code_set(binary_set))
        back = code_set_from_document(doc)
        assert back == binary_set
        assert back.provenance["parameters"]["pair_end"] == 1

    def test_metadata_layout(self, binary_set):
        doc = json.loads(dumps_code_set(binary_set))
        assert doc["format_version"] == 1
        assert list(doc["metadata"]) == [
            "q", "M", "N", "L", "Z", "construction", "bit_order", "parameters",
        ]
        assert doc["metadata"]["construction"] == "lemma1"
        assert doc["codes"][0][0] == binary_set.phases[0, 0].tolist()

    def test_json_safe(self, quaternary_set):
        text = json.dumps(json.loads(dumps_code_set(quaternary_set)))
        assert code_set_from_document(json.loads(text)) == quaternary_set

    def test_provenance_absent_when_unknown(self, binary_set):
        doc = json.loads(dumps_code_set(binary_set))
        doc["metadata"]["construction"] = None
        assert code_set_from_document(doc).provenance is None


class TestStrictParsing:
    def make_doc(self, binary_set):
        return json.loads(dumps_code_set(binary_set))

    def test_top_level_shape(self):
        with pytest.raises(CodeSetFormatError):
            code_set_from_document([1, 2])
        with pytest.raises(CodeSetFormatError):
            code_set_from_document({"format_version": 99, "metadata": {}, "codes": []})

    def test_metadata_types(self, binary_set):
        doc = self.make_doc(binary_set)
        doc["metadata"]["q"] = True
        with pytest.raises(CodeSetFormatError, match="must be an integer"):
            code_set_from_document(doc)
        doc = self.make_doc(binary_set)
        doc["metadata"]["L"] = "40"
        with pytest.raises(CodeSetFormatError):
            code_set_from_document(doc)
        doc = self.make_doc(binary_set)
        del doc["metadata"]
        with pytest.raises(CodeSetFormatError, match="metadata"):
            code_set_from_document(doc)

    def test_phase_entries_must_be_plain_ints(self, binary_set):
        doc = self.make_doc(binary_set)
        doc["codes"][0][0][0] = 1.0
        with pytest.raises(CodeSetFormatError, match="integers"):
            code_set_from_document(doc)
        doc = self.make_doc(binary_set)
        doc["codes"][0][0][0] = 5  # out of range for q=2
        with pytest.raises(CodeSetFormatError):
            code_set_from_document(doc)

    def test_dimension_mismatch_reported_as_format_error(self, binary_set):
        doc = self.make_doc(binary_set)
        doc["codes"] = doc["codes"][:1]
        with pytest.raises(CodeSetFormatError, match="expected 2 codes"):
            code_set_from_document(doc)

    def test_garbage_text(self):
        with pytest.raises(CodeSetFormatError, match="not valid JSON"):
            loads_code_set("definitely } not json")


def canonical_layout(doc) -> str:
    """doc in the layout dumps_code_set writes, built with json per code."""
    meta_block = json.dumps(doc["metadata"], indent=2).replace("\n", "\n  ")
    codes = ",\n".join("    " + json.dumps(code, separators=(",", ":")) for code in doc["codes"])
    return (
        f'{{\n  "format_version": {json.dumps(doc["format_version"])},\n'
        f'  "metadata": {meta_block},\n  "codes": [\n{codes}\n  ]\n}}\n'
    )


class TestCanonicalText:
    def test_serialize_parse_serialize_is_identity(self, binary_set, quaternary_set):
        for cs in (binary_set, quaternary_set):
            text = dumps_code_set(cs)
            assert dumps_code_set(loads_code_set(text)) == text
            assert text.endswith("\n")

    def test_one_code_per_line(self, binary_set):
        text = dumps_code_set(binary_set)
        code_lines = [ln for ln in text.splitlines() if ln.startswith("    [")]
        assert len(code_lines) == binary_set.set_size

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 4), (3, 2, 5), (2, 3, 1), (4, 1, 3)])
    @pytest.mark.parametrize("q", [1, 2, 4, 8, 10, 11, 12, 16, 1000, 2**40])
    def test_layout_matches_per_code_json(self, q, shape):
        rng = np.random.default_rng(q * 1000 + sum(shape))
        # mixed digit counts, and the widest phase q - 1 somewhere
        phases = rng.integers(0, q, shape) // 10 ** rng.integers(0, len(str(q - 1)), shape)
        phases.flat[rng.integers(phases.size)] = q - 1
        cs = CodeSet(q=q, zcz=1, phases=phases)
        # the metadata as dumped, the codes straight from the array
        want = canonical_layout({**json.loads(dumps_code_set(cs)), "codes": cs.phases.tolist()})
        assert dumps_code_set(cs) == want
        assert io._default_text(cs) == json.dumps(json.loads(want))
        # both layouts load; single-digit ones are read without json.loads,
        # multi-digit ones through it
        for text in (want, json.dumps(json.loads(want))):
            assert loads_code_set(text) == cs
            if q <= 10:
                assert io._redumped_code_set(text) == cs
            else:
                assert io._redumped_code_set(text) is None

    def test_file_round_trip(self, tmp_path, quaternary_set):
        path = tmp_path / "set.json"
        save_code_set(quaternary_set, path)
        assert load_code_set(path) == quaternary_set
        assert path.read_text(encoding="utf-8") == dumps_code_set(quaternary_set)


def assert_metadata_as_json_writes_it(code_set):
    """dumps_code_set's metadata block is json.dumps(indent=2)'s, indented."""
    meta = io._metadata(code_set)
    block = json.dumps(meta, indent=2).replace("\n", "\n  ")
    head = f'{{\n  "format_version": 1,\n  "metadata": {block},\n  "codes": [\n    [['
    assert dumps_code_set(code_set).startswith(head)


class IntSubclass(int):
    pass


# quotes, backslashes, control characters, non-ASCII and astral characters
CHARACTERS = 'ab"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600 '


def random_document(rng, depth):
    """A random JSON-encodable value: nested and empty containers, escaped
    and non-ASCII strings, floats (nan, inf, -0.0), bools, None, int
    subclasses, tuples and dicts with non-str keys."""
    text = lambda: "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(5)))
    items = lambda: [random_document(rng, depth - 1) for _ in range(rng.randrange(4))]
    kinds = [
        lambda: rng.choice([0, -1, 7, rng.randrange(-(10**30), 10**30)]),
        text,
        lambda: rng.choice([0.5, -0.0, 1e300, float("nan"), float("inf"), -float("inf")]),
        lambda: rng.random() < 0.5,
        lambda: None,
        lambda: IntSubclass(rng.randrange(-9, 9)),
    ]
    if depth:
        kinds += [
            items,
            lambda: tuple(items()),
            lambda: {text(): v for v in items()},
            lambda: {rng.choice([1, 2.5, True, None, "k"]): v for v in items()},
        ]
    return rng.choice(kinds)()


class TestMetadataWriter:
    """The canonical metadata block is byte for byte json.dumps(indent=2)'s."""

    @pytest.mark.parametrize("q", [2, 4, 6, 8, 12])
    @pytest.mark.parametrize("order", BIT_ORDERS)
    def test_every_generator(self, order, q):
        # f_terms hold dicts, bools and nested lists
        f = GBF(3, q, (Term(q // 2, (z(0), z(1))), Term(q // 2, (z(1), z(2))), Term(1, (zbar(2),))))
        base = Lemma2Params(q, 3, f, deleted=(0,), beta1=1)
        sets = [lemma2_ccc(base, order), theorem2_zccs(ChainParams(base, 1, 2), order)]
        if q == 2:
            binary = Lemma1Params(7, quadratic_gbf(3, [(0, 1), (1, 2)]), (1, 0, 1), deleted=(0,), beta1=1)
            sets += [lemma1_ccc(binary, order), theorem3_zccs(binary, order)]
            sets.append(theorem1_zccs(ChainParams(binary, 2, 4), order))
        for code_set in sets:
            assert_metadata_as_json_writes_it(code_set)

    def test_random_provenance_documents(self):
        rng = random.Random(5)
        phases = np.zeros((1, 1, 1), np.int64)
        for _ in range(300):
            provenance = {key: random_document(rng, 4) for key in ("construction", "bit_order", "parameters")}
            assert_metadata_as_json_writes_it(CodeSet(2, 1, phases, provenance))


def reference_report_text(report):
    """The report text built as one dict per listed violation, from
    report.violations, through json.dumps: the writer's reference."""
    doc = {
        "format_version": 3,
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
        "violations": [
            {"i": v.i, "j": v.j, "tau": v.tau, "value": [v.value.real, v.value.imag]}
            for v in report.violations
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def assert_saved_as_reference(report, tmp_path):
    path = tmp_path / "report.json"
    save_report(report, path)
    assert path.read_text(encoding="utf-8") == reference_report_text(report)


class TestReports:
    def test_document_fields(self, binary_set):
        report = verify_zccs(binary_set)
        doc = json.loads(dumps_report(report))
        assert doc["summary"]["zccs_ok"] is True
        assert doc["summary"]["optimal"] is True
        assert doc["summary"]["M"] == binary_set.set_size
        assert doc["format_version"] == 3
        assert list(doc) == ["format_version", "summary", "violations"]  # no peaks
        assert doc["summary"]["expected_peak"] == 80
        assert doc["summary"]["violation_count"] == 0
        assert doc["summary"]["violations_listed"] == 0
        assert doc["violations"] == []

    def test_saved_report_is_json(self, tmp_path, binary_set):
        path = tmp_path / "report.json"
        save_report(verify_zccs(binary_set), path)
        parsed = json.loads(path.read_text(encoding="utf-8"))
        assert parsed["summary"]["measured_zcz"] == binary_set.length

    def test_failing_report_round_trips(self, tmp_path, binary_set):
        report = verify_zccs(mutate_one_phase(binary_set, ci=1, ri=0, pos=3))
        assert report.violations
        path = tmp_path / "report.json"
        save_report(report, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        assert text == dumps_report(report) == reference_report_text(report)

    @pytest.mark.parametrize("q", [6, 8])
    def test_non_gaussian_reports_round_trip(self, tmp_path, q):
        f = GBF(2, q, (Term(q // 2, (z(0), z(1))), Term(1, (z(1),))))
        code_set = lemma2_ccc(Lemma2Params(q, 2, f))
        for cs in (code_set, mutate_one_phase(code_set, ci=1, ri=0, pos=2)):
            report = verify_zccs(cs)
            assert report.zccs_ok == (cs is code_set)
            assert_saved_as_reference(report, tmp_path)
            parsed = json.loads(dumps_report(report))
            assert parsed["summary"]["exact"] is True
            assert type(parsed["summary"]["tolerance"]) is float

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_random_failing_reports_match_the_reference(self, tmp_path, q):
        rng = np.random.default_rng(500 + q)
        for dims in ((3, 2, 16), (2, 1, 7), (8, 2, 64)):
            code_set = CodeSet(q, dims[2] // 2, rng.integers(0, q, dims))
            for zone in (1, None):
                report = verify_zccs(code_set, z=zone)
                assert not report.zccs_ok
                assert_saved_as_reference(report, tmp_path)

    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("zone", [500, 501, 502])
    def test_reports_around_the_listing_cap_match_the_reference(self, tmp_path, q, zone):
        # a constant sequence's autocorrelation L - |tau| is nonzero at
        # every shift but the peak: 2 * (zone - 1) violations
        report = verify_zccs(CodeSet(q, 1, np.zeros((1, 1, 512), np.int64)), z=zone)
        assert report.violation_count == 2 * (zone - 1)
        assert len(report.violations) == min(1000, report.violation_count)
        assert_saved_as_reference(report, tmp_path)

    def test_clean_reports_match_the_reference(self, tmp_path, binary_set, quaternary_set):
        for code_set in (binary_set, quaternary_set):
            report = verify_zccs(code_set)
            assert report.zccs_ok
            assert_saved_as_reference(report, tmp_path)


class TestCsv:
    def test_binary_export_uses_signs(self, tmp_path, binary_set):
        path = tmp_path / "set.csv"
        export_csv(binary_set, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# q=2"
        assert "# values=signs" in lines
        assert "# construction=lemma1" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == binary_set.set_size * binary_set.code_size
        first = [int(v) for v in data[0].split(",")]
        assert set(first) <= {1, -1}
        assert first == [1 - 2 * p for p in binary_set.phases[0, 0].tolist()]

    def test_qary_export_uses_phases(self, tmp_path, quaternary_set):
        path = tmp_path / "set.csv"
        export_csv(quaternary_set, path)
        data = [
            ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")
        ]
        assert [int(v) for v in data[0].split(",")] == quaternary_set.phases[0, 0].tolist()

    @pytest.mark.parametrize("which", ["q2", "q4", "q12", "q12 bare"])
    def test_whole_file_matches_per_phase_str(self, tmp_path, binary_set, quaternary_set, which):
        """Every byte, against one str per phase: signs for q = 2, phases
        of one and two digits otherwise, with and without provenance."""
        f = GBF(2, 12, (Term(6, (z(0), z(1))), Term(1, (z(1),))))
        rng = np.random.default_rng(12)
        cs = {
            "q2": binary_set,
            "q4": quaternary_set,
            "q12": lemma2_ccc(Lemma2Params(12, 2, f)),
            "q12 bare": CodeSet(q=12, zcz=2, phases=rng.integers(0, 12, (3, 2, 5))),
        }[which]
        values = 1 - 2 * cs.phases if cs.q == 2 else cs.phases
        lines = [f"# {k}={v}" for k, v in zip("qMNLZ", (cs.q, *cs.dims))]
        lines.append(f"# values={'signs' if cs.q == 2 else 'phases'}")
        if cs.provenance:
            lines.append(f"# construction={cs.provenance['construction']}")
            lines.append(f"# bit_order={cs.provenance['bit_order']}")
        lines += [",".join(map(str, row)) for row in values.reshape(-1, cs.length).tolist()]
        assert cs.q != 12 or cs.phases.max() >= 10, "no two-digit phase to write"
        path = tmp_path / "set.csv"
        export_csv(cs, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def _json_entry(value):
    def edit(doc):
        doc["codes"][0][0][1] = value
    return edit


def _json_meta(key, value):
    def edit(doc):
        doc["metadata"][key] = value
    return edit


JSON_FUZZ = {
    "ragged rows": lambda doc: doc["codes"][0][1].pop(),
    "code with too few rows": lambda doc: doc["codes"][1].pop(),
    "bool among ints": _json_entry(True),
    "float": _json_entry(1.0),
    "string": _json_entry("1"),
    "phase equal to q": _json_entry(4),
    "negative phase": _json_entry(-1),
    "phase beyond int64": _json_entry(2**70),
    "M disagrees": _json_meta("M", 3),
    "N disagrees": _json_meta("N", 1),
    "L disagrees": _json_meta("L", 5),
    "M of 10**12": _json_meta("M", 10**12),
    "format_version true": lambda doc: doc.update(format_version=True),
    "format_version 1.0": lambda doc: doc.update(format_version=1.0),
}


class TestLoaderFuzz:
    """Malformed array data must end in CodeSetFormatError (exit 3 through
    the CLI), whatever sizes the metadata claim."""

    @pytest.mark.parametrize("edit", JSON_FUZZ.values(), ids=JSON_FUZZ.keys())
    def test_json(self, tmp_path, capsys, quaternary_set, edit):
        doc = json.loads(dumps_code_set(quaternary_set))
        edit(doc)
        with pytest.raises(CodeSetFormatError):
            code_set_from_document(doc)
        for render in (json.dumps, canonical_layout):
            text = render(doc)
            with pytest.raises(CodeSetFormatError):
                loads_code_set(text)
            path = tmp_path / "bad.json"
            path.write_text(text, encoding="utf-8")
            assert main(["verify", str(path)]) == 3
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", JSON_FUZZ.values(), ids=JSON_FUZZ.keys())
    def test_csv(self, tmp_path, capsys, quaternary_set, edit):
        """zccs export refuses the same files and leaves the CSV it would
        write untouched: none where there was none, an old one unchanged."""
        doc = json.loads(dumps_code_set(quaternary_set))
        edit(doc)
        path, out = tmp_path / "bad.json", tmp_path / "set.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for old in (None, b"old,csv\r\n"):
            if old is not None:
                out.write_bytes(old)
            assert main(["export", str(path), "--out", str(out)]) == 3
            assert "error:" in capsys.readouterr().err
            assert (out.read_bytes() if out.exists() else None) == old


def _first_phase(digits):
    def edit(text):
        return re.sub(r'("codes": \[\s*\[\[)[0-9]+', lambda m: m.group(1) + digits, text, count=1)
    return edit


def _json_dumps(edit=lambda doc: None, **options):
    """The text's document, edited, as json.dumps writes it with options."""
    def render(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, **options)
    return render


def _blank_codes(text):
    head, codes_line, body = text.partition('\n  "codes": [\n')
    tail = "\n  ]\n}\n"
    return head + codes_line + " " * (len(body) - len(tail)) + tail


def _replace(old, new):
    def edit(text):
        return text.replace(old, new, 1)
    return edit


TEXT_EDITS = {
    "unchanged": lambda text: text,
    "CRLF line endings": lambda text: text.replace("\n", "\r\n"),
    "extra space in a code line": _replace("\n    [[", "\n    [[ "),
    "leading zero": _first_phase("01"),
    "19-digit phase": _first_phase(str(2**63 - 1)),
    "19-digit phase beyond int64": _first_phase("9" * 19),
    "25-digit phase": _first_phase("1" + "0" * 24),
    "non-ASCII digit": _first_phase("\u0663"),
    "all-space codes block": _blank_codes,
    "non-ASCII metadata string": _replace('"bit_order": ', '"bit_order": "\u00e9",\n    "x": '),
    "second codes key first": _replace('\n  "metadata"', '\n  "codes": [\n  ],\n  "metadata"'),
    "second codes key last": _replace("\n  ]\n}\n", '\n  ],\n  "codes": [\n    [[0]]\n  ]\n}\n'),
    "json.dumps indent=2": lambda text: json.dumps(json.loads(text), indent=2),
    "trailing newline": lambda text: text + "\n",
    "trailing bytes": lambda text: text + "x",
    "json.dumps default": _json_dumps(),
    "json.dumps default, leading zero": lambda text: _first_phase("01")(_json_dumps()(text)),
    "json.dumps compact": _json_dumps(separators=(",", ":")),
    "json.dumps default, trailing newline": lambda text: _json_dumps()(text) + "\n",
    "json.dumps default, codes key in a metadata string": _json_dumps(
        lambda doc: doc["metadata"].update(construction=', "codes": [[[')
    ),
}

TEXT_SETS = {
    "q=4 lemma2": lambda: lemma2_ccc(
        Lemma2Params(4, 2, GBF(2, 4, (Term(2, (z(0), z(1))), Term(3, (z(1),)))), beta1=1)
    ),
    "q=2**64": lambda: CodeSet(
        q=2**64, zcz=2, phases=np.array([[[3, 10**18, 0], [7, 2**62, 1]]] * 2)
    ),
    "one phase": lambda: CodeSet(q=2, zcz=1, phases=np.zeros((1, 1, 1), np.int64)),
}


def _general_path(text):
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CodeSetFormatError(str(exc)) from exc
    return code_set_from_document(doc)


class TestLoadPaths:
    """loads_code_set reads canonical and json.dumps default text without
    json.loads, yet for every text it gives what json.loads and
    code_set_from_document give, or an exception of the same class."""

    @pytest.mark.parametrize("build", TEXT_SETS.values(), ids=TEXT_SETS.keys())
    @pytest.mark.parametrize("edit", TEXT_EDITS.values(), ids=TEXT_EDITS.keys())
    def test_text_edits_load_as_the_general_path_does(self, edit, build):
        cs = build()
        text = edit(dumps_code_set(cs))
        try:
            want = _general_path(text)
        except CodeSetFormatError:
            with pytest.raises(CodeSetFormatError):
                loads_code_set(text)
        else:
            assert loads_code_set(text) == want

    @pytest.mark.parametrize("multi_digit", [False, True], ids=["binary", "q=12"])
    def test_load_peak_stays_within_four_phase_arrays(self, multi_digit):
        if multi_digit:
            # read by json.loads
            phases = np.random.default_rng(12).integers(0, 12, size=(16, 4, 1024))
            cs = CodeSet(q=12, zcz=1, phases=phases)
        else:
            base = Lemma1Params(
                10, quadratic_gbf(6, [(i, i + 1) for i in range(5)]), (1, 0, 1, 1, 0, 1),
                d=1, deleted=(0,), beta1=5,
            )
            cs = theorem1_zccs(Theorem1Params(base, l=2, r=4))
            assert cs.dims == (16, 4, 2560, 640)
        for text in (dumps_code_set(cs), json.dumps(json.loads(dumps_code_set(cs)))):
            tracemalloc.start()
            try:
                loaded = loads_code_set(text)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert loaded == cs
            assert peak <= 4 * cs.phases.nbytes, peak / cs.phases.nbytes
