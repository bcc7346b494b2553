"""Serialization: canonical JSON files, reports, CSV round trips."""

import json

import numpy as np
import pytest

from zccs import (
    CodeSet,
    CodeSetFormatError,
    GBF,
    Lemma1Params,
    Lemma2Params,
    Term,
    code_set_from_document,
    code_set_to_document,
    dumps_code_set,
    export_csv,
    import_csv,
    lemma1_ccc,
    lemma2_ccc,
    load_code_set,
    loads_code_set,
    report_to_document,
    save_code_set,
    save_report,
    verify_zccs,
    z,
)
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
        doc = code_set_to_document(binary_set)
        back = code_set_from_document(doc)
        assert back == binary_set
        assert back.provenance["parameters"]["pair_end"] == 1

    def test_metadata_layout(self, binary_set):
        doc = code_set_to_document(binary_set)
        assert doc["format_version"] == 1
        assert list(doc["metadata"]) == [
            "q", "M", "N", "L", "Z", "construction", "bit_order", "parameters",
        ]
        assert doc["metadata"]["construction"] == "lemma1"
        assert doc["codes"][0][0] == binary_set.phases[0, 0].tolist()

    def test_json_safe(self, quaternary_set):
        text = json.dumps(code_set_to_document(quaternary_set))
        assert code_set_from_document(json.loads(text)) == quaternary_set

    def test_provenance_absent_when_unknown(self, binary_set):
        doc = code_set_to_document(binary_set)
        doc["metadata"]["construction"] = None
        assert code_set_from_document(doc).provenance is None


class TestStrictParsing:
    def make_doc(self, binary_set):
        return code_set_to_document(binary_set)

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

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 4), (3, 2, 5), (2, 3, 1)])
    @pytest.mark.parametrize("q", [1, 2, 10, 11, 16, 1000, 2**40])
    def test_layout_matches_per_code_json(self, q, shape):
        rng = np.random.default_rng(q * 1000 + sum(shape))
        # mixed digit counts, and the widest phase q - 1 somewhere
        phases = rng.integers(0, q, shape) // 10 ** rng.integers(0, len(str(q - 1)), shape)
        phases.flat[rng.integers(phases.size)] = q - 1
        cs = CodeSet(q=q, zcz=1, phases=phases)
        doc = code_set_to_document(cs)
        meta_block = json.dumps(doc["metadata"], indent=2).replace("\n", "\n  ")
        codes = ",\n".join(
            "    " + json.dumps(code, separators=(",", ":")) for code in doc["codes"]
        )
        want = (
            f'{{\n  "format_version": 1,\n  "metadata": {meta_block},\n'
            f'  "codes": [\n{codes}\n  ]\n}}\n'
        )
        assert dumps_code_set(cs) == want
        assert loads_code_set(want) == cs

    def test_file_round_trip(self, tmp_path, quaternary_set):
        path = tmp_path / "set.json"
        save_code_set(quaternary_set, path)
        assert load_code_set(path) == quaternary_set
        assert path.read_text(encoding="utf-8") == dumps_code_set(quaternary_set)


class TestReports:
    def test_document_fields(self, binary_set):
        report = verify_zccs(binary_set)
        doc = report_to_document(report)
        assert doc["summary"]["zccs_ok"] is True
        assert doc["summary"]["optimal"] is True
        assert doc["summary"]["M"] == binary_set.set_size
        assert doc["summary"]["violation_count"] == 0
        assert doc["peaks"] == [[80, 0], [80, 0]]
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
        assert json.loads(text) == report_to_document(report)


    @pytest.mark.parametrize("q", [6, 8])
    def test_non_gaussian_reports_round_trip(self, tmp_path, q):
        f = GBF(2, q, (Term(q // 2, (z(0), z(1))), Term(1, (z(1),))))
        code_set = lemma2_ccc(Lemma2Params(q, 2, f))
        for cs in (code_set, mutate_one_phase(code_set, ci=1, ri=0, pos=2)):
            report = verify_zccs(cs)
            assert report.zccs_ok == (cs is code_set)
            path = tmp_path / "report.json"
            save_report(report, path)
            parsed = json.loads(path.read_text(encoding="utf-8"))
            assert parsed == report_to_document(report)
            assert parsed["summary"]["exact"] is True
            assert type(parsed["summary"]["tolerance"]) is float


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

    @pytest.mark.parametrize("which", ["binary", "quaternary"])
    def test_import_inverts_export(self, tmp_path, binary_set, quaternary_set, which):
        cs = binary_set if which == "binary" else quaternary_set
        path = tmp_path / "set.csv"
        export_csv(cs, path)
        back = import_csv(path)
        assert back.provenance is None
        assert np.array_equal(back.phases, cs.phases)
        assert back.dims == cs.dims

    def test_import_refuses_non_utf8(self, tmp_path):
        path = tmp_path / "set.csv"
        path.write_bytes(b"# q=2\n# M=1\n# N=1\n# L=1\n# Z=1\n\xff\n")
        with pytest.raises(CodeSetFormatError, match="not UTF-8"):
            import_csv(path)

    def test_import_validates(self, tmp_path, binary_set):
        path = tmp_path / "set.csv"
        export_csv(binary_set, path)
        text = path.read_text(encoding="utf-8")

        short = tmp_path / "short.csv"
        short.write_text("\n".join(text.splitlines()[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(CodeSetFormatError, match="data rows"):
            import_csv(short)

        bad_entry = tmp_path / "bad.csv"
        bad_entry.write_text(text.replace("1,", "x,", 1), encoding="utf-8")
        with pytest.raises(CodeSetFormatError, match="non-integer"):
            import_csv(bad_entry)

        bad_sign = tmp_path / "sign.csv"
        bad_sign.write_text(text.replace("-1", "-3", 1), encoding="utf-8")
        with pytest.raises(CodeSetFormatError):
            import_csv(bad_sign)

        headless = tmp_path / "headless.csv"
        headless.write_text("1,-1\n-1,1\n", encoding="utf-8")
        with pytest.raises(CodeSetFormatError, match="header"):
            import_csv(headless)


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


def _csv_entry(value):
    def edit(lines):
        lines[-1] = value + lines[-1][lines[-1].index(","):]
    return edit


def _csv_meta(key, value):
    def edit(lines):
        lines[:] = [f"# {key}={value}" if ln.startswith(f"# {key}=") else ln for ln in lines]
    return edit


def _csv_ragged(lines):
    lines[-1] = lines[-1].rsplit(",", 1)[0]


CSV_FUZZ = {
    "ragged rows": _csv_ragged,
    "code with too few rows": lambda lines: lines.pop(),
    "bool among ints": _csv_entry("True"),
    "float": _csv_entry("1.0"),
    "string": _csv_entry("x"),
    "phase equal to q": _csv_entry("4"),
    "negative phase": _csv_entry("-1"),
    "M disagrees": _csv_meta("M", 3),
    "N disagrees": _csv_meta("N", 1),
    "L disagrees": _csv_meta("L", 5),
    "M of 10**12": _csv_meta("M", 10**12),
}


class TestLoaderFuzz:
    """Malformed array data must end in CodeSetFormatError (exit 3 through
    the CLI), whatever sizes the metadata claim."""

    @pytest.mark.parametrize("edit", JSON_FUZZ.values(), ids=JSON_FUZZ.keys())
    def test_json(self, tmp_path, capsys, quaternary_set, edit):
        doc = code_set_to_document(quaternary_set)
        edit(doc)
        with pytest.raises(CodeSetFormatError):
            code_set_from_document(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", CSV_FUZZ.values(), ids=CSV_FUZZ.keys())
    def test_csv(self, tmp_path, quaternary_set, edit):
        path = tmp_path / "set.csv"
        export_csv(quaternary_set, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CodeSetFormatError):
            import_csv(path)
