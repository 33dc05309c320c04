"""Tests for the command-line front end: exit codes, files, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from matchedproj import as_matrix, cli, operator_norm, random_idempotent
from matchedproj.battery import run_battery, sabotaged
from matchedproj.cli import main
from matchedproj.matrixio import dumps, load_matrix, matrix_from_obj, save_matrix
from matchedproj.errors import MatrixFileError

RT2 = np.sqrt(2.0)
# boundary doubles: signed zero, the least subnormal, the first power of ten
# repr writes in exponent form, near overflow, and the non-finite values
EDGE_VALUES = (-0.0, 5e-324, 1e16, 1e308, 1.0, np.nan, np.inf, -np.inf)

# each fault sits deep in a 64 x 64 matrix file; the message is the one the
# entry-by-entry reader gives
DEEP_FAULTS = {
    "short_last_row": "row 63 must hold 64 entries",
    "bool_entry": "entry (63, 63) must be an [re, im] pair",
    "string_entry": "entry (40, 17) must be an [re, im] pair",
    "three_element_pair": "entry (63, 0) must be an [re, im] pair",
    "nan_entry": "matrix entries must be finite",
    "two_faults": "entry (10, 5) must be an [re, im] pair",
}


def run(*argv):
    return main([str(a) for a in argv])


def reference_obj(m):
    """The matrix object as nested lists, built entry by entry."""
    n = m.shape[0]
    entries = [
        [[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)] for i in range(n)
    ]
    return {"dim": [n, n], "entries": entries}


def edge_matrices(n):
    """Complex n x n matrices that hold every EDGE_VALUES entry as a real and an imaginary part."""
    values = EDGE_VALUES + EDGE_VALUES[::-1]
    out = []
    for start in range(0, len(values), 2 * n * n):
        parts = np.random.default_rng(start).standard_normal(2 * n * n)
        chunk = values[start : start + 2 * n * n]
        parts[: len(chunk)] = chunk
        out.append(parts.view(np.complex128).reshape(n, n))
    return out


def matrix_file_obj(n, seed=0):
    """json.loads of a saved n x n matrix, for editing one entry."""
    return json.loads(dumps(np.random.default_rng(seed).standard_normal((n, n)) + 0j))


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        m = as_matrix([[1.0, 1j], [0.5 - 2j, 0.0]])
        path = tmp_path / "m.json"
        save_matrix(path, m)
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_schema_shape(self):
        obj = json.loads(dumps(as_matrix([[1.0, 0.0], [0.0, 1.0]])))
        assert obj["dim"] == [2, 2]
        assert obj["entries"][0][0] == [1.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_dumps_matches_json_encoder(self, n):
        ms = edge_matrices(n)
        refs = [reference_obj(m) for m in ms]
        m, ref = ms[-1], refs[-1]
        cases = [(m, ref) for m, ref in zip(ms, refs)]  # save_matrix
        cases.append((ms, refs))  # path
        cases.append((  # analyze, min2x2
            {"z": [1, {"m": ms}], "checks": [], "matched_projection": m, "x": 0.1},
            {"z": [1, {"m": refs}], "checks": [], "matched_projection": ref, "x": 0.1},
        ))
        # a report string that spells a matrix placeholder is written as given
        cases.append(({"note": "\x00matrix0", "m": m}, {"note": "\x00matrix0", "m": ref}))
        for obj, ref in cases:
            assert dumps(obj) == json.dumps(ref, indent=2, sort_keys=True) + "\n"

    def test_non_finite_use_json_spelling(self):
        text = dumps(np.array([[np.nan, np.inf], [-np.inf, 0.0]], dtype=np.complex128))
        assert "NaN" in text and "Infinity" in text and "-Infinity" in text
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (4,)])
    def test_rejects_non_matrix_array(self, shape):
        with pytest.raises(TypeError):
            dumps({"m": np.zeros(shape)})

    @pytest.mark.parametrize("fault", sorted(DEEP_FAULTS))
    def test_deep_fault_keeps_its_message(self, fault):
        obj = matrix_file_obj(64)
        entries = obj["entries"]
        if fault == "short_last_row":
            entries[63].pop()
        elif fault == "bool_entry":
            entries[63][63][1] = True
        elif fault == "string_entry":
            entries[40][17][0] = "1.0"
        elif fault == "three_element_pair":
            entries[63][0].append(0.0)
        elif fault == "nan_entry":
            entries[50][50][0] = float("nan")
        else:  # the first fault in row-major order is named
            entries[63].pop()
            entries[10][5] = None
        with pytest.raises(MatrixFileError) as excinfo:
            matrix_from_obj(obj)
        assert str(excinfo.value) == DEEP_FAULTS[fault]

    def test_integer_entries_load(self):
        obj = matrix_file_obj(64)
        obj["entries"][0][0] = [2, -3]
        obj["entries"][63][63] = [0, 1]
        m = matrix_from_obj(obj)
        assert m.dtype == np.complex128
        assert m[0, 0] == 2 - 3j and m[63, 63] == 1j
        assert m[1, 1] == complex(*obj["entries"][1][1])

    def test_float_subclass_entries_load(self):
        # np.float64 fails the exact-type scan and loads through the entry-by-entry check
        obj = matrix_file_obj(8)
        plain = matrix_from_obj(obj)
        obj["entries"] = [[[np.float64(v) for v in pair] for pair in row] for row in obj["entries"]]
        assert np.array_equal(matrix_from_obj(obj), plain)
        obj["entries"][7][7] = [np.float64(2.5), np.float64(-1.0)]
        assert matrix_from_obj(obj)[7, 7] == 2.5 - 1j

    def test_rejects_ragged(self):
        with pytest.raises(MatrixFileError):
            matrix_from_obj({"dim": [2, 2], "entries": [[[1, 0]], [[0, 0], [1, 0]]]})

    def test_rejects_rectangular_dim(self):
        with pytest.raises(MatrixFileError):
            matrix_from_obj({"dim": [2, 3], "entries": []})

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixFileError):
            matrix_from_obj(
                {"dim": [1, 1], "entries": [[[float("inf"), 0.0]]]}
            )

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(MatrixFileError):
            load_matrix(path)

    def test_rejects_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(MatrixFileError, match="is not UTF-8 text"):
            load_matrix(path)


class TestGenerate:
    def test_writes_idempotent_with_prescribed_norm(self, tmp_path):
        out = tmp_path / "q.json"
        code = run("generate", "--dim", 8, "--rank", 3, "--offdiag-norm", 2,
                   "--seed", 42, "--output", out)
        assert code == 0
        q = load_matrix(out)
        assert abs(operator_norm(q) - np.sqrt(5.0)) <= 1e-10

    def test_rank_zero_gives_zero_matrix(self, tmp_path):
        out = tmp_path / "z.json"
        assert run("generate", "--dim", 4, "--rank", 0, "--output", out) == 0
        np.testing.assert_allclose(load_matrix(out), np.zeros((4, 4)), atol=1e-15)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("generate", "--dim", 6, "--rank", 2, "--offdiag-norm", 1.5, "--seed", 9)
        assert run(*args, "--output", a) == 0
        assert run(*args, "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_rank_is_usage_error(self, tmp_path):
        assert run("generate", "--dim", 4, "--rank", 9,
                   "--output", tmp_path / "x.json") == 2

    def test_offdiag_cap(self, tmp_path):
        assert run("generate", "--dim", 4, "--rank", 2, "--offdiag-norm", 1e4,
                   "--output", tmp_path / "x.json") == 2


class TestAnalyze:
    def test_report_matches_golden(self, tmp_path, monkeypatch):
        # the golden file is this command's report at an earlier release, on
        # the committed input (generate --dim 8 --rank 3 --offdiag-norm 2
        # --seed 42); the input path is relative, so the report's is fixed.
        # A change to any reported number, check or gate shows here
        data = Path(__file__).parent / "data"
        monkeypatch.chdir(data)
        rep = tmp_path / "rep.json"
        assert run("analyze", "--input", "q_n8.json", "--output", rep) == 0
        assert rep.read_bytes() == (data / "analyze_n8.json").read_bytes()

    def test_generated_file_round_trips(self, tmp_path):
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        assert run("generate", "--dim", 8, "--rank", 3, "--offdiag-norm", 2,
                   "--seed", 42, "--output", q) == 0
        assert run("analyze", "--input", q, "--output", rep) == 0
        report = json.loads(rep.read_text())
        assert report["all_passed"] is True
        assert report["qpp"]["matched"]["holds"] is True
        assert report["input"]["dim"] == 8

    def test_canonical_distances(self, tmp_path):
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.0]]))
        assert run("analyze", "--input", q, "--output", rep) == 0
        report = json.loads(rep.read_text())
        assert report["distances"]["d_matched"] == pytest.approx(RT2 / 2, abs=1e-10)
        assert report["distances"]["d_range"] == pytest.approx(1.0, abs=1e-10)
        # the range projection is not a quasi-projection partner here
        assert report["qpp"]["range_partner"]["holds"] is False

    def test_projection_input_all_distances_zero(self, tmp_path):
        q, rep = tmp_path / "p.json", tmp_path / "rep.json"
        save_matrix(q, as_matrix(0.5 * np.array([[1, 1], [1, 1]])))
        assert run("analyze", "--input", q, "--output", rep) == 0
        report = json.loads(rep.read_text())
        assert report["distances"]["d_matched"] <= 1e-12
        assert report["distances"]["d_range"] <= 1e-12

    @pytest.mark.parametrize("dim", [1, 8, 64])
    def test_full_rank_input_passes(self, tmp_path, dim):
        # the identity: its range-gap and distance closed forms are exactly 0
        q = tmp_path / "q.json"
        assert run("generate", "--dim", dim, "--rank", dim, "--output", q) == 0
        assert run("analyze", "--input", q) == 0

    def test_non_idempotent_is_usage_error(self, tmp_path):
        q = tmp_path / "bad.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.5]]))
        assert run("analyze", "--input", q) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("analyze", "--input", tmp_path / "absent.json") == 2

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        q = tmp_path / "bad.json"
        q.write_bytes(b"\xff\xfe")
        assert run("analyze", "--input", q) == 2
        assert f"error: {q} is not UTF-8 text" in capsys.readouterr().err

    def test_corrupted_formula_is_math_error(self, tmp_path, monkeypatch):
        q = tmp_path / "q.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.0]]))
        certify = cli.as_idempotent
        monkeypatch.setattr(cli, "as_idempotent", lambda m, tol=None: sabotaged(certify(m, tol)))
        assert run("analyze", "--input", q) == 1

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("flag", ["--tol-check", "--tol-rank"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, flag, value):
        # a defect-0.56 matrix must not pass as an idempotent under an infinite gate
        q = tmp_path / "bad.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.5]]))
        assert run("analyze", "--input", q, f"{flag}={value}") == 2

    def test_unreachable_tolerance_is_math_error(self, tmp_path):
        # the exact idempotent passes validation at any gate, but no computed
        # projection can meet a 1e-18 residual bound
        q = tmp_path / "q.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.0]]))
        assert run("analyze", "--input", q, "--tol-check", "1e-18") == 1

    def test_boolean_dim_is_usage_error(self, tmp_path):
        q = tmp_path / "q.json"
        q.write_text('{"dim": [true, true], "entries": [[[1, 0]]]}')
        assert run("analyze", "--input", q) == 2

    def test_boolean_entry_is_usage_error(self, tmp_path):
        # would otherwise load as [[1]], a valid idempotent
        q = tmp_path / "q.json"
        q.write_text('{"dim": [1, 1], "entries": [[[true, false]]]}')
        assert run("analyze", "--input", q) == 2

    def test_factorizations_with_cold_memo(self, tmp_path, factorizations):
        # the ceiling is the measured count; without the memo analyze makes
        # 156, and 94 with exact norms at every gate; the Koliha pencil is
        # solved once per Q, in the V V* oracle
        q = tmp_path / "q.json"
        assert run("generate", "--dim", 8, "--rank", 3, "--offdiag-norm", 2,
                   "--seed", 42, "--output", q) == 0
        factorizations.clear()
        assert run("analyze", "--input", q) == 0
        assert sum(factorizations.values()) <= 65, dict(factorizations)
        assert factorizations["solve"] == 1, dict(factorizations)

    def test_oracle_failure_fails_its_checks_only(self, tmp_path, capsys):
        # at ||A|| = 1e6 the Koliha projections behind the T/V factor oracle
        # miss certification; the production checks all pass and are reported
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        save_matrix(q, random_idempotent(64, 20, 1e6, 3).matrix)
        assert run("analyze", "--input", q, "--output", rep) == 1
        assert "factor oracle: projection defect" in capsys.readouterr().err
        report = json.loads(rep.read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["matched_equals_tt_factor", "matched_equals_vv_factor"]
        assert report["all_passed"] is False

    def test_report_json_round_trips(self, tmp_path):
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.0]]))
        assert run("analyze", "--input", q, "--output", rep) == 0
        text = rep.read_text()
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
        # a larger report, whatever its checks say; its m(Q) loads back bitwise
        save_matrix(q, random_idempotent(64, 20, 1e4, 5).matrix)
        assert run("analyze", "--input", q, "--output", rep) in (0, 1)
        text = rep.read_text()
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
        m = matrix_from_obj(parsed["matched_projection"])
        assert dumps(m) == json.dumps(parsed["matched_projection"], indent=2) + "\n"


class TestPath:
    def test_two_samples_are_endpoints(self, tmp_path):
        q, out = tmp_path / "q.json", tmp_path / "path.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.0]]))
        assert run("path", "--input", q, "--samples", 2, "--output", out) == 0
        samples = [matrix_from_obj(o) for o in json.loads(out.read_text())]
        assert len(samples) == 2
        expect_m = np.array([[RT2 + 1, 1], [1, RT2 - 1]]) / (2 * RT2)
        np.testing.assert_allclose(samples[0], expect_m, atol=1e-10)
        np.testing.assert_allclose(samples[1], [[1, 1], [0, 0]], atol=1e-10)

    def test_eleven_samples_all_idempotent(self, tmp_path):
        q, out = tmp_path / "q.json", tmp_path / "path.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.0]]))
        assert run("path", "--input", q, "--samples", 11, "--output", out) == 0
        for obj in json.loads(out.read_text()):
            s = matrix_from_obj(obj)
            assert operator_norm(s @ s - s) <= 1e-10

    def test_projection_gives_constant_path(self, tmp_path):
        q, out = tmp_path / "p.json", tmp_path / "path.json"
        p = 0.5 * np.array([[1, 1], [1, 1]])
        save_matrix(q, as_matrix(p))
        assert run("path", "--input", q, "--samples", 5, "--output", out) == 0
        for obj in json.loads(out.read_text()):
            np.testing.assert_allclose(matrix_from_obj(obj), p, atol=1e-12)

    def test_invalid_input_is_usage_error(self, tmp_path):
        q = tmp_path / "bad.json"
        save_matrix(q, as_matrix([[1.0, 1.0], [0.0, 0.5]]))
        assert run("path", "--input", q, "--samples", 3) == 2


class TestMin2x2:
    def test_unit_parameter(self, tmp_path):
        out = tmp_path / "min.json"
        assert run("min2x2", "--a-re", 1, "--grid", 512, "--output", out) == 0
        record = json.loads(out.read_text())
        assert record["grid"]["min_value"] == pytest.approx(0.5, abs=5e-3)
        assert record["all_passed"] is True
        p0 = matrix_from_obj(record["closed_form"])
        expect = np.array([[RT2 + 1, 1], [1, RT2 - 1]]) / (2 * RT2)
        np.testing.assert_allclose(p0, expect, atol=1e-12)

    def test_zero_parameter_is_usage_error(self):
        assert run("min2x2", "--a-re", 0, "--a-im", 0) == 2

    def test_depends_on_modulus_only(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run("min2x2", "--a-re", 2, "--grid", 128, "--output", out1) == 0
        assert run("min2x2", "--a-re", 0, "--a-im", 2, "--grid", 128, "--output", out2) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["grid"]["min_value"] == pytest.approx(
            r2["grid"]["min_value"], abs=1e-12
        )


class TestVerify:
    def test_zero_trials_vacuous_pass(self):
        assert run("verify", "--trials", 0) == 0

    def test_negative_trials_is_usage_error(self, capsys):
        assert run("verify", "--trials", -3) == 2
        assert "all checks passed" not in capsys.readouterr().out

    def test_small_battery_passes(self):
        assert run("verify", "--dim-max", 5, "--trials", 4, "--seed", 7) == 0

    def test_factorizations_per_battery(self, factorizations):
        # the ceiling is the measured count: a second build of an oracle shows here
        run_battery(12, 2, 7)
        assert sum(factorizations.values()) <= 601, dict(factorizations)

    def test_sabotage_fails_fast(self):
        assert run("verify", "--dim-max", 4, "--trials", 2, "--seed", 7,
                   "--sabotage") == 1

    def test_tallies_match_golden(self, capsys):
        # the golden file is this command's stdout at an earlier release; a
        # change that alters any tally, or the continuity constant, shows here
        assert run("verify", "--trials", 5, "--dim-max", 8, "--seed", 7) == 0
        golden = Path(__file__).parent / "data" / "verify_seed7.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
