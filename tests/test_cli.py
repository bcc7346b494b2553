"""Command-line behavior: outputs, files, exit codes."""

import json

import numpy as np
import pytest

from zccs import correlation, graphs, import_csv, load_code_set, save_code_set
from zccs.cli import main

from conftest import q8_counterexample

EXAMPLE_ARGS = [
    "--m1", "8",
    "--quadratic", "0-1,1-2,2-3,0-3,0-2",
    "--d-vec", "1,1,1,1",
    "--delete", "0,1",
    "--beta1", "2",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_reference_chained_set(self, capsys, tmp_path):
        out = tmp_path / "set.json"
        code, stdout, _ = run(
            capsys, "generate", "thm1", *EXAMPLE_ARGS, "--l", "1", "--R", "2",
            "--out", str(out),
        )
        assert code == 0
        assert "(M, N, L, Z) = (16, 8, 320, 160)" in stdout
        assert "size bound met with equality: yes" in stdout
        assert f"wrote {out}" in stdout
        assert load_code_set(out).dims == (16, 8, 320, 160)

    def test_seed_ccc(self, capsys):
        code, stdout, _ = run(capsys, "generate", "lemma1", *EXAMPLE_ARGS)
        assert code == 0
        assert "(M, N, L, Z) = (8, 8, 160, 160)" in stdout

    def test_three_block_set(self, capsys):
        code, stdout, _ = run(capsys, "generate", "thm3", *EXAMPLE_ARGS)
        assert code == 0
        assert "(M, N, L, Z) = (8, 8, 480, 320)" in stdout
        assert "size bound met with equality: yes" in stdout

    def test_qary_seed(self, capsys):
        code, stdout, _ = run(
            capsys, "generate", "lemma2", "--m2", "2", "--q", "4", "--quadratic", "0-1"
        )
        assert code == 0
        assert "(M, N, L, Z) = (2, 2, 4, 4)" in stdout

    def test_qary_chained(self, capsys):
        code, stdout, _ = run(
            capsys, "generate", "thm2", "--m2", "2", "--q", "4", "--quadratic", "0-1",
            "--l", "1", "--R", "2",
        )
        assert code == 0
        assert "(M, N, L, Z) = (4, 2, 8, 4)" in stdout
        assert "size bound met with equality: yes" in stdout

    def test_long_block_labels(self, capsys):
        # only the R block indices are expanded into l bits, not all 2^l
        code, stdout, _ = run(
            capsys, "generate", "thm1", "--m1", "6", "--quadratic", "0-1", "--l", "45", "--R", "2"
        )
        assert code == 0
        assert "(M, N, L, Z) = (4, 2, 80, 40)" in stdout

    def test_oversized_set_is_exit_2(self, capsys):
        path = ",".join(f"{i}-{i + 1}" for i in range(45))
        code, _, stderr = run(capsys, "generate", "lemma1", "--m1", "50", "--quadratic", path)
        assert code == 2
        assert stderr.startswith("error: set of M * N * L = ")
        assert "exceeds the limit" in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma1", "--m1", "100000", "--quadratic", "0-1"],
            ["thm1", "--m1", "100000", "--quadratic", "0-1", "--l", "1", "--R", "2"],
            ["lemma2", "--m2", "100000", "--q", "2", "--quadratic", "0-1"],
        ],
        ids=["lemma1", "thm1", "lemma2"],
    )
    def test_huge_seed_is_refused_before_the_path_test(self, capsys, argv):
        code, _, stderr = run(capsys, "generate", *argv)
        assert code == 2
        assert stderr.startswith("error: set of M * N * L = ")
        assert len(stderr.encode()) < 1024

    @pytest.mark.parametrize(
        "argv",
        [
            ["thm1", *EXAMPLE_ARGS],
            ["thm2", "--m2", "3", "--q", "4", "--quadratic", "0-1:2,1-2:2"],
        ],
        ids=["thm1", "thm2"],
    )
    def test_default_labels_for_r_6_are_exit_2(self, capsys, argv):
        code, stdout, stderr = run(capsys, "generate", *argv, "--l", "3", "--R", "6")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: default block labels") and "R=6" in stderr

    def test_missing_block_arguments(self, capsys):
        code, _, stderr = run(capsys, "generate", "thm1", *EXAMPLE_ARGS)
        assert code == 2
        assert "thm1 requires --l, --R" in stderr

    def test_missing_m1(self, capsys):
        code, _, stderr = run(capsys, "generate", "lemma1")
        assert code == 2
        assert "lemma1 requires --m1" in stderr

    def test_non_path_deletion_is_exit_2(self, capsys):
        args = [a for a in EXAMPLE_ARGS if a not in ("--delete", "0,1", "--beta1", "2")]
        code, _, stderr = run(capsys, "generate", "lemma1", *args, "--delete", "1")
        assert code == 2
        assert "error:" in stderr

    def test_bad_edge_syntax(self, capsys):
        code, _, stderr = run(capsys, "generate", "lemma1", "--m1", "5", "--quadratic", "0+1")
        assert code == 2
        assert "bad edge" in stderr

    def test_explicit_bit_order(self, capsys, tmp_path):
        out_l = tmp_path / "l.json"
        out_m = tmp_path / "m.json"
        assert run(capsys, "generate", "lemma1", *EXAMPLE_ARGS, "--out", str(out_l))[0] == 0
        assert run(
            capsys, "generate", "lemma1", *EXAMPLE_ARGS, "--bit-order", "msb",
            "--out", str(out_m),
        )[0] == 0
        assert load_code_set(out_l) != load_code_set(out_m)


class TestVerify:
    @pytest.fixture()
    def stored_set(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        assert run(capsys, "generate", "lemma1", *EXAMPLE_ARGS, "--out", str(path))[0] == 0
        return path

    def test_clean_set_passes(self, capsys, stored_set):
        code, stdout, _ = run(capsys, "verify", str(stored_set))
        assert code == 0
        assert "PASS: zone holds: yes; optimal" in stdout
        assert "violations in zone: 0" in stdout
        assert "expected peak 1280" in stdout

    def test_corrupted_set_fails(self, capsys, stored_set):
        doc = json.loads(stored_set.read_text(encoding="utf-8"))
        doc["codes"][0][0][0] = 1 - doc["codes"][0][0][0]
        stored_set.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, _ = run(capsys, "verify", str(stored_set))
        assert code == 1
        assert "FAIL" in stdout
        assert "codes (" in stdout

    def test_zone_override_out_of_range(self, capsys, stored_set):
        code, _, stderr = run(capsys, "verify", str(stored_set), "--z", "0")
        assert code == 2
        assert "zone" in stderr

    def test_missing_file(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 3
        assert "error:" in stderr

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not a code set", encoding="utf-8")
        code, _, stderr = run(capsys, "verify", str(path))
        assert code == 3
        assert "not valid JSON" in stderr

    @pytest.mark.parametrize(
        "content",
        [
            b'{"format_version": 1, "metadata": "\xff"}',
            b"[" * 200000,
            b'{"format_version": ' + b"1" * 5000 + b"}",
        ],
        ids=["not UTF-8", "nested too deeply", "integer of 5000 digits"],
    )
    def test_unreadable_file_is_exit_3(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert code == 3
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr

    def test_q8_counterexample_fails_exactly(self, capsys, tmp_path):
        path = tmp_path / "q8.json"
        save_code_set(q8_counterexample(), path)
        report_path = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "verify", str(path), "--report", str(report_path))
        assert code == 1
        assert "zone checked: 1 (exact)" in stdout
        assert "codes (0, 1) shift 0" in stdout
        summary = json.loads(report_path.read_text(encoding="utf-8"))["summary"]
        assert summary["zccs_ok"] is False
        assert type(summary["exact"]) is bool and summary["exact"]
        assert type(summary["tolerance"]) is float

    def test_oversized_set_is_exit_3(self, capsys, monkeypatch, stored_set):
        # the (8, 8, 160) set has 36 * 319 = 11484 profile entries
        monkeypatch.setattr(correlation, "MAX_PROFILE_ENTRIES", 1000)
        code, stdout, stderr = run(capsys, "verify", str(stored_set))
        assert code == 3
        assert stdout == ""
        assert stderr.startswith("error: (M, L) = (8, 160) needs 11484 profile entries")
        assert stderr.count("\n") == 1 and len(stderr) < 1024

    def test_side_report(self, capsys, stored_set, tmp_path):
        report_path = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "verify", str(stored_set), "--report", str(report_path)
        )
        assert code == 0
        assert json.loads(report_path.read_text(encoding="utf-8"))["summary"]["zccs_ok"]


class TestReport:
    def test_report_file(self, capsys, tmp_path):
        set_path = tmp_path / "set.json"
        run(capsys, "generate", "lemma2", "--m2", "2", "--q", "4", "--quadratic", "0-1",
            "--out", str(set_path))
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "verify", str(set_path), "--report", str(out))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["summary"]["optimal"] is True
        assert doc["summary"]["violation_count"] == 0
        assert f"wrote {out}" in stdout


class TestEnumerate:
    def test_pentagon_single_deletions(self, capsys):
        code, stdout, _ = run(
            capsys, "enumerate", "--quadratic", "0-1,1-2,2-3,0-3,0-2", "--k", "1"
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "delete [0] -> path 1-2-3, ends [1, 3]"
        assert lines[1] == "delete [2] -> path 1-0-3, ends [1, 3]"
        assert lines[2] == "2 admissible deletion(s) of size 1"

    def test_single_vertex(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--vertices", "1", "--k", "0")
        assert "delete [] -> path 0, ends [0]" in stdout
        assert "1 admissible deletion(s) of size 0" in stdout

    def test_weight_filter(self, capsys):
        code, stdout, _ = run(
            capsys, "enumerate", "--quadratic", "0-1:2,1-2:1", "--k", "0",
            "--require-weight", "2",
        )
        assert code == 0
        assert "0 admissible deletion(s)" in stdout

    def test_k_out_of_range(self, capsys):
        code, _, stderr = run(capsys, "enumerate", "--quadratic", "0-1", "--k", "5")
        assert code == 2
        assert "error:" in stderr

    def test_oversized_enumeration_is_exit_2(self, capsys, monkeypatch):
        # C(10, 2) * 10 = 450 path-test steps against a limit of 100
        monkeypatch.setattr(graphs, "MAX_ENUMERATION_STEPS", 100)
        code, stdout, stderr = run(
            capsys, "enumerate", "--quadratic", "0-1", "--vertices", "10", "--k", "2"
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: enumerating the C(10, 2) deletions")

    def test_needs_vertices(self, capsys):
        code, _, stderr = run(capsys, "enumerate", "--k", "0")
        assert code == 2
        assert "--vertices" in stderr


class TestExport:
    def test_csv_round_trip(self, capsys, tmp_path):
        set_path = tmp_path / "set.json"
        run(capsys, "generate", "lemma1", "--m1", "5", "--out", str(set_path))
        csv_path = tmp_path / "set.csv"
        code, stdout, _ = run(capsys, "export", str(set_path), "--out", str(csv_path))
        assert code == 0
        assert csv_path.read_text(encoding="utf-8").startswith("# q=2\n")
        assert np.array_equal(import_csv(csv_path).phases, load_code_set(set_path).phases)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "zccs" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
