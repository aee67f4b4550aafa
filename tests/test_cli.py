"""Command line behaviour: exit codes, JSON payloads, determinism."""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CAPPED_21
from splinephase import SampleSet, SplineFunction, eval_spline, is_local_phaseless, verify_modulus_agreement
from splinephase import families
from splinephase.bspline import MAX_DEGREE
from splinephase.cli import MAX_PROBES, main
from splinephase.jsonio import decode_spline

F = Fraction


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def random_rational_entries(rng, nrows, ncols):
    return [["%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols)] for _ in range(nrows)]


UNIFORM_6_ON_0_3 = {
    "window": [0, 3],
    "points": ["0", "3/5", "6/5", "9/5", "12/5", "3"],
}


class TestCertify:
    def test_uniform_almost_passes(self, capsys, tmp_path):
        path = write_json(tmp_path, "e.json", UNIFORM_6_ON_0_3)
        code, out, _ = run_cli(capsys, ["certify", "--m", "2", "--mode", "almost", "--input", path])
        assert code == 0
        assert json.loads(out) == {"verdict": True, "violated": None}

    def test_global_arithmetic_with_offset_fails(self, capsys, tmp_path):
        payload = {"period": 1, "offsets": ["1/4", "3/4"]}
        path = write_json(tmp_path, "d.json", payload)
        code, out, _ = run_cli(capsys, ["certify", "--m", "1", "--mode", "global", "--input", path])
        assert code == 1
        assert json.loads(out)["verdict"] is False

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, out, err = run_cli(capsys, ["certify", "--m", "1", "--mode", "almost", "--input", str(path)])
        assert code == 2
        assert "error" in err

    def test_mode_global_needs_descriptor(self, capsys, tmp_path):
        path = write_json(tmp_path, "e.json", UNIFORM_6_ON_0_3)
        code, _, err = run_cli(capsys, ["certify", "--m", "1", "--mode", "global", "--input", path])
        assert code == 2 and "descriptor" in err

    def test_reads_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["certify", "--m", "2", "--mode", "almost", "--input", "-"],
            stdin_text=json.dumps(UNIFORM_6_ON_0_3),
            monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["verdict"] is True


class TestGen:
    def test_uniform_family(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--family", "uniform", "--n1", "0", "--n2", "3", "--k", "6"])
        assert code == 0
        assert json.loads(out) == UNIFORM_6_ON_0_3

    def test_example2_family_counts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["gen", "--family", "example2", "--n1", "0", "--n2", "4", "--m", "1", "--k", "5"],
        )
        assert code == 0
        payload = json.loads(out)
        points = [F(p) for p in payload["points"]]
        assert len(points) == 9  # 5 interior + 4 boundary
        assert F(0) in points and F(4) in points and F(1, 2) in points and F(7, 2) in points

    def test_arithmetic_family(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--family", "arithmetic", "--alpha", "1/3", "--beta", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["period"] == 1
        assert payload["offsets"] == ["0", "1/3", "2/3"]

    def test_bad_parameters(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--family", "uniform", "--n1", "0", "--n2", "0", "--k", "6"])
        assert code == 2 and "uniform" in err
        code, _, _ = run_cli(capsys, ["gen", "--family", "arithmetic", "--alpha=-1/3"])
        assert code == 2
        code, _, err = run_cli(capsys, ["gen", "--family", "arithmetic", "--alpha", "1e-999999999"])
        assert code == 2 and "exponent" in err

    def test_family_size_cap(self):
        # Checked before any point is built: K, K + 2(m+1), and alpha's denominator.
        cap = families.MAX_POINTS
        for build in (
            lambda: families.uniform(0, 1, cap + 1),
            lambda: families.example2(0, 4, cap - 3, 1),
            lambda: families.arithmetic(F(3, cap + 1)),
        ):
            with pytest.raises(ValueError, match="capped at %d points, got %d" % (cap, cap + 1)):
                build()
        assert len(families.example2(0, 4, 12, 1)) == 16


class TestPipeline:
    def test_reconstruct_round_trip(self, capsys, tmp_path):
        # unsigned samples of the windowed spline with coefficients (1, 2)
        from splinephase import SampleSet, SplineFunction, eval_spline

        E = SampleSet((F(1, 4), F(1, 2), F(3, 4)), (0, 1))
        f = SplineFunction(1, -1, (F(1), F(2)), (0, 1))
        payload = {
            "sample_set": {"window": [0, 1], "points": ["1/4", "1/2", "3/4"]},
            "values": [str(abs(eval_spline(f, x))) for x in E.points],
        }
        path = write_json(tmp_path, "s.json", payload)
        code, out, _ = run_cli(capsys, ["reconstruct", "--m", "1", "--input", path])
        assert code == 0
        result = json.loads(out)
        assert result["status"] == "unique"
        assert result["solutions"][0]["coeffs"] == ["1", "2"]

    def test_reconstruct_ambiguous_with_probes(self, capsys, tmp_path):
        payload = {
            "sample_set": {"window": [0, 1], "points": ["1/2"]},
            "values": ["1"],
        }
        path = write_json(tmp_path, "s.json", payload)
        code, out, _ = run_cli(capsys, ["reconstruct", "--m", "1", "--probes", "10", "--input", path])
        assert code == 1
        result = json.loads(out)
        assert result["status"] == "ambiguous"
        assert "modulus_agreement" in result

    def test_reconstruct_probes_at_the_cap(self, capsys, tmp_path):
        payload = {"sample_set": {"window": [0, 1], "points": ["1/2"]}, "values": ["1"]}
        path = write_json(tmp_path, "s.json", payload)
        code, out, _ = run_cli(
            capsys, ["reconstruct", "--m", "1", "--probes", str(MAX_PROBES), "--input", path]
        )
        assert code == 1
        result = json.loads(out)
        solutions = [decode_spline(s) for s in result["solutions"]]
        probes = [F(j, MAX_PROBES + 1) for j in range(1, MAX_PROBES + 1)]
        pairwise = all(
            verify_modulus_agreement(a, b, probes)
            for i, a in enumerate(solutions)
            for b in solutions[i + 1:]
        )
        assert result["modulus_agreement"] is pairwise

    def test_counterexample_on_passing_set_exits_two(self, capsys, tmp_path):
        payload = {"window": [0, 1], "points": [str(F(i, 6)) for i in range(7)]}
        path = write_json(tmp_path, "e.json", payload)
        code, _, err = run_cli(capsys, ["counterexample", "--m", "1", "--input", path])
        assert code == 2 and "passes" in err

    def test_counterexample_on_failing_set(self, capsys, tmp_path):
        payload = {"window": [0, 2], "points": ["1/4", "3/4", "5/4", "7/4"]}
        path = write_json(tmp_path, "e.json", payload)
        code, out, _ = run_cli(capsys, ["counterexample", "--m", "1", "--input", path])
        assert code == 0
        result = json.loads(out)
        assert result["nonseparable"] == [True, True]

    def test_oracle_exit_codes(self, capsys, tmp_path):
        passing = write_json(
            tmp_path, "p.json", {"window": [0, 1], "points": ["1/5", "1/2", "4/5"]}
        )
        failing = write_json(
            tmp_path, "f.json", {"window": [0, 1], "points": ["1/2"]}
        )
        assert run_cli(capsys, ["oracle", "--m", "1", "--input", passing])[0] == 0
        assert run_cli(capsys, ["oracle", "--m", "1", "--input", failing])[0] == 1

    def test_frame_check_criteria(self, capsys, tmp_path):
        full_spark = write_json(
            tmp_path,
            "m.json",
            {"rows": 2, "cols": 3, "entries": [["1", "0", "1"], ["0", "1", "1"]]},
        )
        for criterion in ("2", "3", "4", "5", "spark", "weak-spark"):
            code, out, _ = run_cli(
                capsys, ["frame-check", "--criterion", criterion, "--input", full_spark]
            )
            assert code == 0, criterion
            assert json.loads(out)["verdict"] is True
        deficient = write_json(
            tmp_path,
            "d.json",
            {"entries": [["1", "0", "0"], ["0", "1", "2"]]},
        )
        code, out, _ = run_cli(capsys, ["frame-check", "--criterion", "4", "--input", deficient])
        assert code == 1
        rank_deficient = write_json(tmp_path, "r.json", {"entries": [["1", "1"], ["1", "1"]]})
        code, _, err = run_cli(capsys, ["frame-check", "--criterion", "4", "--input", rank_deficient])
        assert code == 2

    def test_frame_check_drops_zero_columns(self, capsys, tmp_path):
        # {e1, e2, e1+e2, 0}: the zero column measures nothing.
        path = write_json(tmp_path, "z.json", {"entries": [["1", "0", "1", "0"], ["0", "1", "1", "0"]]})
        for criterion in ("2", "3", "4", "5"):
            code, out, _ = run_cli(capsys, ["frame-check", "--criterion", criterion, "--input", path])
            assert code == 0, criterion
            assert json.loads(out)["verdict"] is True


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, capsys, tmp_path):
        path = write_json(tmp_path, "e.json", UNIFORM_6_ON_0_3)
        argv = ["certify", "--m", "2", "--mode", "almost", "--input", path]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


def run_process(argv, timeout=10):
    """The CLI in a fresh interpreter, so stderr holds any traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "splinephase.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


class TestParserReuse:
    def test_repeated_calls_in_one_process(self, capsys, tmp_path):
        path = write_json(tmp_path, "e.json", UNIFORM_6_ON_0_3)
        matrix = write_json(tmp_path, "m.json", {"entries": [["1", "0", "1"], ["0", "1", "1"]]})
        certify = ["certify", "--m", "2", "--mode", "almost", "--input", path]
        # (argv, exit code, whether argparse exits through SystemExit)
        calls = [
            (certify, 0, False),
            (["certify", "--m", "2", "--mode", "bogus", "--input", path], 2, True),
            (["--help"], 0, True),
            (["certify", "--m", "1", "--mode", "global", "--input", path], 2, False),
            (["frame-check", "--input", matrix], 0, False),
            (["gen", "--family", "uniform", "--n1", "0", "--n2", "3", "--k", "6"], 0, False),
            (certify, 0, False),
        ]

        def run(argv, code, exits):
            if exits:
                with pytest.raises(SystemExit) as info:
                    main(argv)
                assert info.value.code == code
            else:
                assert main(argv) == code
            captured = capsys.readouterr()
            return captured.out, captured.err

        first = [run(*call) for call in calls]
        assert first[-1] == first[0]
        assert first[1][0] == "" and "invalid choice" in first[1][1]
        assert first[2][0].startswith("usage: splinephase") and first[2][1] == ""
        assert first[3][0] == "" and first[3][1].startswith("error: ")
        assert [run(*call) for call in calls] == first
        done = run_process(certify)
        assert done.returncode == 0 and (done.stdout, done.stderr) == first[0]

    def test_main_builds_no_parser(self, capsys, monkeypatch, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = write_json(tmp_path, "e.json", UNIFORM_6_ON_0_3)
        assert main(["certify", "--m", "2", "--mode", "almost", "--input", path]) == 0
        with pytest.raises(SystemExit):
            main(["certify", "--m", "2", "--input", path])
        capsys.readouterr()
        assert built == []


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--mode", "almost"],
            ["reconstruct"],
            ["counterexample"],
            ["oracle"],
            ["gen", "--family", "example2", "--n1", "0", "--n2", "4", "--k", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_degree_below_one_exits_two_without_traceback(self, tmp_path, argv, m):
        extra = [] if argv[0] == "gen" else ["--input", write_json(tmp_path, "e.json", UNIFORM_6_ON_0_3)]
        done = run_process(argv + ["--m", m] + extra)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("probes", ["-1", "-3"])
    def test_negative_probe_count_exits_two_without_traceback(self, tmp_path, probes):
        # An ambiguous recovery, so the probes would be used.
        payload = {"sample_set": {"window": [0, 1], "points": ["1/2"]}, "values": ["1"]}
        path = write_json(tmp_path, "s.json", payload)
        done = run_process(["reconstruct", "--m", "1", "--probes", probes, "--input", path])
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_probe_count_beyond_the_cap_exits_two_promptly(self, tmp_path):
        payload = {"sample_set": {"window": [0, 1], "points": ["1/2"]}, "values": ["1"]}
        path = write_json(tmp_path, "s.json", payload)
        for probes in (str(MAX_PROBES + 1), "1000000000"):
            done = run_process(["reconstruct", "--m", "1", "--probes", probes, "--input", path])
            assert done.returncode == 2 and done.stdout == ""
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
            assert str(MAX_PROBES) in done.stderr

    def test_huge_exponent_exits_two_promptly(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"window": [0, 1], "points": [0, 1e-999999999, 1]}', encoding="utf-8")
        done = run_process(["certify", "--m", "1", "--mode", "sampling", "--input", str(path)], timeout=10)
        assert done.returncode == 2
        assert "exponent" in done.stderr and "Traceback" not in done.stderr

    def test_full_spark_beyond_the_cap_exits_two_promptly(self, tmp_path):
        # 12 x 24 would need C(24, 12) = 2,704,156 ranks.
        entries = [[str((i + 1) ** k) for i in range(24)] for k in range(12)]
        path = write_json(tmp_path, "m.json", {"entries": entries})
        start = time.perf_counter()
        done = run_process(["frame-check", "--criterion", "spark", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_sign_patterns_beyond_the_cap_exit_two_promptly(self, tmp_path):
        # The elimination budget comes before the rank of this 100 x 200 matrix.
        path = write_json(tmp_path, "m.json", {"entries": random_rational_entries(random.Random(5), 100, 200)})
        start = time.perf_counter()
        done = run_process(["frame-check", "--criterion", "4", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "100 x 200, eliminated 1 time(s), exceeds the elimination budget" in done.stderr

    def test_degree_beyond_the_cap_exits_two_promptly(self, tmp_path):
        # B-spline values recurse m levels deep and rows hold w + m entries.
        path = write_json(tmp_path, "e.json", {"window": [0, 1], "points": ["1/3", "1/2"]})
        start = time.perf_counter()
        done = run_process(["oracle", "--m", "600", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "at most %d, got 600" % MAX_DEGREE in done.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "uniform", "--n1", "0", "--n2", "1", "--k", "1000000000"],
            ["--family", "arithmetic", "--alpha", "1/1000000000"],
        ],
        ids=["uniform", "arithmetic"],
    )
    def test_family_beyond_the_cap_exits_two_promptly(self, argv):
        start = time.perf_counter()
        done = run_process(["gen"] + argv)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: families are capped at %d points, got 1000000000\n" % families.MAX_POINTS

    @pytest.mark.parametrize("criterion", ["2", "3", "4", "5", "spark", "weak-spark"])
    def test_empty_matrix_exits_two(self, capsys, tmp_path, criterion):
        for entries in ([], [[]], [[], []]):
            path = write_json(tmp_path, "m.json", {"entries": entries})
            code, out, err = run_cli(capsys, ["frame-check", "--criterion", criterion, "--input", path])
            assert code == 2 and out == ""
            assert err == "error: a matrix needs at least one row and one column\n"

    def test_scan_beyond_the_cap_exits_two(self, capsys, tmp_path):
        from splinephase.sequences import MAX_SCAN_WIDTH

        payload = {"period": 1, "offsets": ["1/4", "3/4"], "edit_window": [0, MAX_SCAN_WIDTH]}
        path = write_json(tmp_path, "d.json", payload)
        code, out, err = run_cli(capsys, ["certify", "--m", "1", "--mode", "global", "--input", path])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "exceeds" in err


class TestWideFrames:
    def test_weak_spark_of_a_wide_matrix_finishes(self, tmp_path):
        # One reduced echelon form of 50 x 100, not one rank per removed column.
        path = write_json(tmp_path, "m.json", {"entries": random_rational_entries(random.Random(7), 50, 100)})
        done = run_process(["frame-check", "--criterion", "weak-spark", "--input", path], timeout=5)
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout) == {"criterion": "weak-spark", "verdict": True}

    def test_reference_test_decides_a_wide_frame_promptly(self, tmp_path):
        # 200 columns, past the enumeration cap: the reference test enumerates nothing.
        path = write_json(tmp_path, "m.json", {"entries": random_rational_entries(random.Random(11), 6, 200)})
        start = time.perf_counter()
        done = run_process(["frame-check", "--criterion", "4", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert done.returncode in (0, 1) and done.stderr == ""
        assert json.loads(done.stdout)["verdict"] == (done.returncode == 0)

    def test_enumerating_criteria_keep_the_column_cap(self, tmp_path):
        path = write_json(tmp_path, "m.json", {"entries": random_rational_entries(random.Random(13), 2, 15)})
        done = run_process(["frame-check", "--criterion", "2", "--input", path])
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: sign-pattern enumeration is capped at 14 columns, got 15\n"


def twenty_digit_entries(rng, nrows, ncols):
    return [
        ["%d/%d" % (rng.randint(10**19, 10**20 - 1), rng.randint(10**19, 10**20 - 1)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


class TestEliminationBudget:
    @pytest.mark.parametrize("criterion", ["4", "weak-spark"])
    @pytest.mark.parametrize(
        "entries",
        [
            # Each takes seconds to reduce: one-digit entries, then 20-digit ones.
            random_rational_entries(random.Random(5), 100, 200),
            twenty_digit_entries(random.Random(17), 16, 32),
        ],
        ids=["100x200", "16x32-20-digit"],
    )
    def test_refused_before_any_elimination(self, tmp_path, criterion, entries):
        path = write_json(tmp_path, "m.json", {"entries": entries})
        start = time.perf_counter()
        done = run_process(["frame-check", "--criterion", criterion, "--input", path])
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "exceeds the elimination budget" in done.stderr

    def test_full_spark_of_large_minors_exits_two_promptly(self, tmp_path):
        # Only C(201, 200) = 201 subsets, but each is a 200 x 200 elimination.
        path = write_json(tmp_path, "m.json", {"entries": random_rational_entries(random.Random(19), 200, 201)})
        start = time.perf_counter()
        done = run_process(["frame-check", "--criterion", "spark", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "200 x 200, eliminated 201 time(s), exceeds the elimination budget" in done.stderr


class TestWideWindows:
    @pytest.mark.parametrize("command, code", [("oracle", 1), ("counterexample", 0)])
    def test_three_points_in_forty_units_finish_promptly(self, tmp_path, command, code):
        # The splines vanishing on three points span 38 of 41 dimensions here, so
        # the split test must not grow with the subsets of the support.
        path = write_json(tmp_path, "e.json", {"window": [0, 40], "points": ["1/2", "3/2", "5/2"]})
        start = time.perf_counter()
        done = run_process([command, "--m", "1", "--input", path], timeout=5)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == code and done.stderr == ""
        assert json.loads(done.stdout)


class TestPointCaps:
    @pytest.mark.parametrize("command", ["oracle", "counterexample"])
    def test_twenty_one_points_exit_two_promptly(self, tmp_path, command):
        # Past PARTITION_ORACLE_CAP, and no guided split refutes the set.
        path = write_json(tmp_path, "e.json", {"window": [0, 8], "points": list(CAPPED_21)})
        start = time.perf_counter()
        done = run_process([command, "--m", "2", "--input", path], timeout=5)
        assert time.perf_counter() - start < 1.0
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "capped at 20 points, got 21" in done.stderr


class TestLargeRecoveries:
    def test_a_thousand_certified_samples_recover_uniquely(self, tmp_path):
        # More samples than the interpreter's recursion limit: the sign
        # search keeps its own stack.
        width, m = 340, 2
        points = [u + F(k, 4) for u in range(width) for k in (1, 2, 3)]
        points += [F(k, 8) for k in (1, 3, 5)] + [width - F(k, 8) for k in (1, 3, 5)]
        E = SampleSet(tuple(sorted(points)), (0, width))
        assert len(E) == 1026 and is_local_phaseless(E, m).verdict
        f = SplineFunction(m, -m, tuple(F(j % 7 - 3) for j in range(width + m)), (0, width))
        payload = {
            "sample_set": {"window": [0, width], "points": [str(x) for x in E.points]},
            "values": [str(abs(eval_spline(f, x))) for x in E.points],
        }
        path = write_json(tmp_path, "s.json", payload)
        done = run_process(["reconstruct", "--m", str(m), "--input", path], timeout=10)
        assert done.returncode == 0 and done.stderr == ""
        result = json.loads(done.stdout)
        assert result["status"] == "unique"
        assert decode_spline(result["solutions"][0]) == f.negated()
