"""Command-line behavior: outputs, files, exit codes."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zccs
from zccs import CodeSet, cli, correlation, graphs, load_code_set, save_code_set
from zccs.cli import main

from conftest import q8_counterexample

EXAMPLE_ARGS = [
    "--m1", "8",
    "--quadratic", "0-1,1-2,2-3,0-3,0-2",
    "--d-vec", "1,1,1,1",
    "--delete", "0,1",
    "--beta1", "2",
]


# edge lists on vertices 0..2 that every command refuses, each with its message
BAD_EDGE_LISTS = [
    ("0-1,1-2,0-2,0-2", "duplicate edge (0, 2)"),
    ("0-1,1-2,2-1", "duplicate edge (1, 2)"),
    ("0-0,0-1,1-2", "self-loop at vertex 0"),
    ("0-1:0,1-2", "edge (0, 1) has zero weight"),
    ("0-1,1-3", "edge (1, 3) out of range for 3 vertices"),
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

    @pytest.mark.parametrize("q", [3 << 60, 1 << 63], ids=["3*2**60", "2**63"])
    def test_modulus_that_overflows_int64_is_exit_2(self, capsys, tmp_path, q):
        out = tmp_path / "set.json"
        code, stdout, stderr = run(
            capsys, "generate", "lemma2", "--m2", "3", "--q", str(q),
            "--quadratic", f"0-1:{q // 2},1-2:{q // 2}", "--d-vec", ",".join([str(q - 1)] * 3),
            "--d", str(q - 1), "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: modulus q = {q} overflows int64")
        assert not out.exists()

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
        with pytest.raises(SystemExit) as info:
            main(["generate", "thm1", *EXAMPLE_ARGS])
        assert info.value.code == 2
        assert "the following arguments are required: --l, --R" in capsys.readouterr().err

    def test_missing_m1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "lemma1"])
        assert info.value.code == 2
        assert "the following arguments are required: --m1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "construction, flag",
        [
            (construction, flag)
            for construction, reads in [
                ("lemma1", "--m1"),
                ("thm1", "--m1 --l --R --s-r"),
                ("thm3", "--m1"),
                ("lemma2", "--m2 --q"),
                ("thm2", "--m2 --q --l --R --s-r"),
            ]
            for flag in ("--m1", "--m2", "--q", "--l", "--R", "--s-r")
            if flag not in reads.split()
        ],
    )
    def test_flag_the_construction_does_not_read_is_exit_2(
        self, capsys, tmp_path, construction, flag
    ):
        family = ["--m2", "2"] if construction in ("lemma2", "thm2") else ["--m1", "6"]
        chain = ["--l", "1", "--R", "2"] if construction in ("thm1", "thm2") else []
        out = tmp_path / "set.json"
        argv = ["generate", construction, *family, "--quadratic", "0-1", *chain, "--out", str(out)]
        assert main(argv) == 0
        out.unlink()
        capsys.readouterr()
        try:
            code = main([*argv, flag, "00,11" if flag == "--s-r" else "8"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_non_path_deletion_is_exit_2(self, capsys):
        args = [a for a in EXAMPLE_ARGS if a not in ("--delete", "0,1", "--beta1", "2")]
        code, _, stderr = run(capsys, "generate", "lemma1", *args, "--delete", "1")
        assert code == 2
        assert "error:" in stderr

    @pytest.mark.parametrize(
        "edges, message",
        # 4 is 0 mod 2 and mod 4: generate takes weights mod q, {q} is filled in below
        [*BAD_EDGE_LISTS, ("0-1:4,1-2", "edge (0, 1) has zero weight: 4 is 0 mod {q}")],
    )
    @pytest.mark.parametrize(
        "family",
        [
            ["lemma1", "--m1", "7"],
            ["thm1", "--m1", "7", "--l", "1", "--R", "2"],
            ["thm3", "--m1", "7"],
            ["lemma2", "--m2", "3", "--q", "4"],
            ["thm2", "--m2", "3", "--q", "4", "--l", "1", "--R", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_edge_list_is_exit_2(self, capsys, family, edges, message):
        message = message.format(q=4 if "--q" in family else 2)
        code, stdout, stderr = run(capsys, "generate", *family, "--quadratic", edges)
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {message}\n"

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

    @pytest.mark.parametrize("q, dims", [(2, (4, 2, 16)), (3, (4, 2, 16)), (8, None)])
    def test_listed_lines_are_the_first_ten_violations(self, capsys, tmp_path, q, dims):
        if dims is None:
            code_set = q8_counterexample()  # one violation: no "more" line
        else:
            code_set = CodeSet(q, 8, np.random.default_rng(q).integers(0, q, dims))
        path = tmp_path / "set.json"
        save_code_set(code_set, path)
        report = zccs.verify_zccs(code_set)
        want = [f"violations in zone: {report.violation_count}"] + [
            f"  codes ({v.i}, {v.j}) shift {v.tau}: {v.value.as_complex()}"
            for v in report.violations[:10]
        ]
        if report.violation_count > 10:
            want.append(f"  ... {report.violation_count - 10} more")
        want.append("FAIL: zone holds: no; not optimal")
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert stdout.splitlines()[3:] == want

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

    @pytest.mark.parametrize("q", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_modulus_beyond_float_range_is_exit_3(self, capsys, tmp_path, q):
        # omega_q^phase is formed in floats, which q must fit
        doc = {"format_version": 1, "metadata": {"q": q, "M": 1, "N": 1, "L": 2, "Z": 1},
               "codes": [[[0, 1]]]}
        path = tmp_path / "huge-q.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert code == 3
        assert stdout == ""
        assert stderr.startswith(f"error: modulus q of {q.bit_length()} bits is beyond the float range")
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    def test_modulus_at_the_float_range_verifies(self, capsys, tmp_path):
        path = tmp_path / "q2-1023.json"
        save_code_set(CodeSet(q=2**1023, zcz=1, phases=np.array([[[0, 1]]])), path)
        code, _, stderr = run(capsys, "verify", str(path))
        assert code == 0 and stderr == ""

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
        # the (8, 8, 160) set has 8 * 8 * (n/2 + 1) spectrum entries and
        # 36 pairs * n inverse-transform work, at n = 320
        n = correlation._fft_length(160)
        monkeypatch.setattr(correlation, "MAX_TRANSFORM_WORK", 36 * n - 1)
        code, stdout, stderr = run(capsys, "verify", str(stored_set))
        assert code == 3
        assert stdout == ""
        assert stderr.startswith(
            f"error: (M, N, L) = (8, 8, 160) needs {8 * 8 * (n // 2 + 1)} spectrum entries "
            f"and {36 * n} inverse-transform work"
        )
        assert stderr.count("\n") == 1 and len(stderr) < 1024

    def test_random_file_report_is_bounded(self, capsys, tmp_path):
        # 263 KB of random binary phases: every pair fails at nearly every shift
        path, report_path = tmp_path / "random.json", tmp_path / "report.json"
        phases = np.random.default_rng(0).integers(0, 2, (64, 2, 1024))
        save_code_set(CodeSet(2, 1024, phases), path)
        code, stdout, _ = run(capsys, "verify", str(path), "--report", str(report_path))
        assert code == 1
        assert "violations in zone: 4111488" in stdout
        assert "  ... 4111478 more" in stdout
        assert report_path.stat().st_size < 1 << 20
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        assert doc["format_version"] == 3 and "peaks" not in doc
        assert doc["summary"]["violation_count"] == 4111488
        assert doc["summary"]["violations_listed"] == len(doc["violations"]) == 1000
        assert doc["summary"]["measured_zcz"] == 0

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
        assert doc["format_version"] == 3 and "peaks" not in doc
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

    @pytest.mark.parametrize("edges", ["0-1,1-2", "0-1:2,1-2", "1-2,0-1:2"])
    def test_unweighted_edges_take_the_required_weight(self, capsys, edges):
        code, stdout, _ = run(
            capsys, "enumerate", "--quadratic", edges, "--k", "0", "--require-weight", "2"
        )
        assert code == 0
        assert stdout.splitlines() == [
            "delete [] -> path 0-1-2, ends [0, 2]",
            "1 admissible deletion(s) of size 0",
        ]

    @pytest.mark.parametrize("edges, message", BAD_EDGE_LISTS)
    def test_bad_edge_list_is_exit_2(self, capsys, edges, message):
        code, stdout, stderr = run(
            capsys, "enumerate", "--quadratic", edges, "--vertices", "3", "--k", "0"
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {message}\n"

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
        lines = csv_path.read_bytes().decode("ascii").splitlines()
        assert lines[0] == "# q=2"
        signs = np.array([[int(x) for x in ln.split(",")] for ln in lines if ln[0] != "#"])
        phases = load_code_set(set_path).phases
        assert np.array_equal(signs, 1 - 2 * phases.reshape(-1, phases.shape[2]))


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
    resource.setrlimit(resource.RLIMIT_CPU, (30, 30))


# edge lists stay below the 128 KiB a single Linux argument may hold
LONG_PATH = ",".join(f"{i}-{i + 1}" for i in range(9000))


class TestResourceLimits:
    """Hostile input to every subcommand, one child process at a time, each
    under an address-space and CPU-time limit: each ends in its exit code
    with a short message, never a traceback or a runaway allocation."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("hostile")
        (path / "huge.json").write_text(
            '{"format_version": 1, "metadata": {"q": 2, "M": 1099511627776, '
            '"N": 1099511627776, "L": 1099511627776, "Z": 1}, "codes": [[[0]]]}',
            encoding="utf-8",
        )
        assert main(["generate", "lemma1", "--m1", "6", "--quadratic", "0-1",
                     "--out", str(path / "forged.json")]) == 0
        doc = json.loads((path / "forged.json").read_text(encoding="utf-8"))
        doc["metadata"]["parameters"]["m1"] = 40
        (path / "forged.json").write_text(json.dumps(doc), encoding="utf-8")
        phases = np.random.default_rng(0).integers(0, 2, (64, 2, 1024))
        save_code_set(CodeSet(2, 1024, phases), path / "random.json")
        return path

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("generate lemma1 --m1 100000000 --quadratic 0-1", 2),
            ("generate thm3 --m1 100000000", 2),
            ("generate lemma2 --m2 100000000 --quadratic 0-1", 2),
            ("generate thm1 --m1 6 --quadratic 0-1 --l 100000000 --R 2", 2),
            ("generate thm2 --m2 2 --q 4 --quadratic 0-1:2 --l 40 --R 1099511627776", 2),
            (f"generate lemma1 --m1 6 --quadratic {LONG_PATH}", 2),
            ("enumerate --vertices 1000000000 --k 1", 2),
            (f"enumerate --quadratic {LONG_PATH} --k 1", 2),
            ("verify huge.json", 3),
            ("export huge.json --out huge.csv", 3),
            ("verify forged.json", 0),
            ("export forged.json --out forged.csv", 0),
            ("verify random.json --report report.json", 1),
        ],
        ids=lambda v: str(v)[:60],
    )
    def test_subcommand_ends_cleanly(self, workdir, argv, code):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "PYTHONPATH": str(Path(zccs.__file__).parents[1]),
        }
        proc = subprocess.run(
            [sys.executable, "-m", "zccs.cli", *argv.split()],
            cwd=workdir, env=env, preexec_fn=_limit_child, capture_output=True, timeout=120,
        )
        output = proc.stdout + proc.stderr
        assert proc.returncode == code, output[-1000:]
        assert b"Traceback" not in output
        assert len(output) < 4096


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

    @pytest.mark.parametrize(
        "argv",
        [
            "generate lemma1 --m1 6 --q 8",
            "generate lemma1 --m1 6 --quad 0-1",
            "generate thm1 --m1 6 --l 1 --R 2 --s 00,11",
            "verify f --rep r",
            "enumerate --quadratic 0-1 --k 0 --weight 2",
        ],
    )
    def test_flags_count_under_their_full_names_only(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv.split()[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "lemma1", *EXAMPLE_ARGS],
            ["enumerate", "--quadratic", "0-1,1-2,2-3,0-3,0-2", "--k", "1"],
            ["generate", "lemma1", "--m1", "7", "--quadratic", "0-1,0-1"],
        ],
        ids=["generate", "enumerate", "refused"],
    )
    def test_calls_share_one_parser(self, capsys, argv):
        cli._build_parser.cache_clear()
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
