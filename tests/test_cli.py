"""Tests for the command-line front end: exit codes, files, determinism."""

import builtins
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from matchedproj import (
    DEFAULT_TOL,
    Tolerances,
    adjoint,
    as_matrix,
    as_projection,
    battery,
    cli,
    fractional_power_limit,
    identity,
    koliha_projections,
    matched_projection,
    operator_norm,
    psd_power,
    qpp_minimality,
    random_idempotent,
    random_projection,
    two_by_two,
)
from matchedproj.battery import run_battery, sabotaged
from matchedproj.cli import main
from matchedproj.linalg import require_hermitian
from matchedproj.matched import EXPONENT_GRID
from matchedproj.matrixio import dump, dumps, load_matrix, matrix_from_obj
from matchedproj.report import Check, norm_check
from matchedproj.errors import InapplicableHypothesisError, MatrixFileError, ValidationError
from matchedproj.two_by_two import canonical_idempotent

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
    "float_subclass_then_bool": "entry (20, 40) must be an [re, im] pair",
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


def traced_peak(fn):
    """The peak of traced memory while fn() runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def matrix_file_obj(n, seed=0):
    """json.loads of a saved n x n matrix, for editing one entry."""
    return json.loads(dumps(np.random.default_rng(seed).standard_normal((n, n)) + 0j))


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        m = as_matrix([[1.0, 1j], [0.5 - 2j, 0.0]])
        path = tmp_path / "m.json"
        dump(m, path)
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_schema_shape(self):
        obj = json.loads(dumps(as_matrix([[1.0, 0.0], [0.0, 1.0]])))
        assert obj["dim"] == [2, 2]
        assert obj["entries"][0][0] == [1.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_dumps_matches_json_encoder(self, tmp_path, n):
        ms = edge_matrices(n)
        refs = [reference_obj(m) for m in ms]
        m, ref = ms[-1], refs[-1]
        cases = [(m, ref) for m, ref in zip(ms, refs)]  # generate
        cases.append((ms, refs))  # path
        cases.append((  # analyze, min2x2
            {"z": [1, {"m": ms}], "checks": [], "matched_projection": m, "x": 0.1},
            {"z": [1, {"m": refs}], "checks": [], "matched_projection": ref, "x": 0.1},
        ))
        # a report string that spells a matrix placeholder is written as given
        cases.append(({"note": "\x00matrix0", "m": m}, {"note": "\x00matrix0", "m": ref}))
        # the containers and scalars json writes around the matrices
        for empty in ({}, [], ()):
            cases += [(empty, empty), ({"e": empty, "m": m}, {"e": empty, "m": ref})]
        cases.append(((m, (1, [])), (ref, (1, []))))
        scalars = {"b": [True, False], "none": None, "i": [0, -7, 10**30], "f": [0.5, -0.0]}
        cases.append(({**scalars, "m": [m]}, {**scalars, "m": [ref]}))
        text = ['say "hi"', "back\\slash", "tab\tbell\x07", "Hilbert C*-modul\u00e9 \u2016Q\u2016"]
        cases.append(({"text": text, "m": m}, {"text": text, "m": ref}))
        cases.append((  # keys out of order, mixed case
            {"zeta": m, "alpha": {"b": 1, "a": m, "B": 2}, "Zeta": 0, "_": m},
            {"zeta": ref, "alpha": {"b": 1, "a": ref, "B": 2}, "Zeta": 0, "_": ref},
        ))
        # non-finite values in the first and the last row only, between finite rows
        spotted = np.arange(float(n + 2) ** 2).reshape(n + 2, n + 2) + 0.5j
        spotted[0, -1], spotted[-1, 0] = complex(np.nan, -np.inf), np.inf
        cases.append(({"m": spotted}, {"m": reference_obj(spotted)}))
        path = tmp_path / "out.json"
        for obj, ref in cases:
            text = json.dumps(ref, indent=2, sort_keys=True) + "\n"
            assert dumps(obj) == text
            dump(obj, path)  # the file holds the same text
            assert path.read_bytes() == text.encode("utf-8")

    def test_dump_holds_one_row_of_text(self, tmp_path):
        # this n = 128 file is 1.2 MB; written from one string its peak was
        # 4.5 MB, written row by row it is 49 KB
        m = edge_matrices(128)[0]
        path = tmp_path / "m.json"
        assert traced_peak(lambda: dump(m, path)) < 256_000
        assert path.stat().st_size > 990_000

    def test_rejects_non_str_key(self, tmp_path):
        # json would write the key as "1"
        for write in (dumps, lambda obj: dump(obj, tmp_path / "out.json")):
            with pytest.raises(TypeError, match="report keys must be str"):
                write({1: 0})

    def test_non_finite_use_json_spelling(self):
        text = dumps(np.array([[np.nan, np.inf], [-np.inf, 0.0]], dtype=np.complex128))
        assert "NaN" in text and "Infinity" in text and "-Infinity" in text
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (4,)])
    def test_rejects_non_matrix_array(self, tmp_path, shape):
        for write in (dumps, lambda obj: dump(obj, tmp_path / "out.json")):
            for obj in ({"m": np.zeros(shape)}, np.zeros(shape)):
                with pytest.raises(TypeError, match="a matrix must be n x n with n >= 1"):
                    write(obj)

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
        elif fault == "float_subclass_then_bool":
            # the np.float64 fails the row's bulk check; the walk passes it
            entries[20][3][0] = np.float64(entries[20][3][0])
            entries[20][40][1] = True
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

    def test_bad_rank_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("generate", "--dim", 4, "--rank", 9, "--output", out) == 2
        assert capsys.readouterr().err == "error: rank 9 outside [0, 4]\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_is_usage_error(self, tmp_path, capsys, dim):
        out = tmp_path / "x.json"
        assert run("generate", "--dim", dim, "--rank", 0, "--output", out) == 2
        assert capsys.readouterr() == ("", f"error: dim must be at least 1, not {dim}\n")
        assert not out.exists()

    def test_offdiag_cap(self, tmp_path, capsys):
        assert run("generate", "--dim", 4, "--rank", 2, "--offdiag-norm", 1e4,
                   "--output", tmp_path / "x.json") == 2
        assert capsys.readouterr().err == "error: --offdiag-norm capped at 1e3 (conditioning)\n"

    def test_negative_offdiag_norm_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("generate", "--dim", 4, "--rank", 2, "--offdiag-norm", -1, "--output", out) == 2
        message = "error: offdiag_norm must be finite and nonnegative, not -1.0\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_nan_offdiag_norm_is_usage_error(self, tmp_path):
        out = tmp_path / "x.json"
        assert run("generate", "--dim", 4, "--rank", 2, "--offdiag-norm", "nan",
                   "--output", out) == 2
        assert not out.exists()


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

    def test_report_at_ten_times_the_check_tolerance(self, tmp_path, monkeypatch):
        # Q certified at --tol-check 1e-9 is analysed at it: every gate built
        # from check is ten times the golden's, every fixed gate (a verdict's
        # 0.5, the subspace gap) is the golden's, and every check still passes.
        # An analysis that fell back to the default would show the golden's gates
        data = Path(__file__).parent / "data"
        monkeypatch.chdir(data)
        rep = tmp_path / "rep.json"
        assert run("analyze", "--input", "q_n8.json", "--tol-check", "1e-9", "--output", rep) == 0
        report, golden = json.loads(rep.read_text()), json.loads((data / "analyze_n8.json").read_text())
        assert [c["name"] for c in report["checks"]] == [c["name"] for c in golden["checks"]]
        assert report["all_passed"] is True and all(c["passed"] for c in report["checks"])
        gates = [(c["tolerance"], g["tolerance"]) for c, g in zip(report["checks"], golden["checks"])]
        fixed = [(got, want) for got, want in gates if want in (0.5, Tolerances.subspace)]
        scaled = [(got, want) for got, want in gates if want not in (0.5, Tolerances.subspace)]
        scaled += [(report["qpp"][k]["gate"], golden["qpp"][k]["gate"]) for k in golden["qpp"]]
        # (25, 16) while sandwich_equality_iff_projection was a yes/no verdict
        assert (len(scaled), len(fixed)) == (26, 15)
        for got, want in scaled:
            assert got == pytest.approx(10.0 * want, rel=1e-12, abs=0.0)
        assert all(got == want for got, want in fixed)

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
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        assert run("analyze", "--input", q, "--output", rep) == 0
        report = json.loads(rep.read_text())
        assert report["distances"]["d_matched"] == pytest.approx(RT2 / 2, abs=1e-10)
        assert report["distances"]["d_range"] == pytest.approx(1.0, abs=1e-10)
        # the range projection is not a quasi-projection partner here
        assert report["qpp"]["range_partner"]["holds"] is False

    def test_projection_input_all_distances_zero(self, tmp_path):
        q, rep = tmp_path / "p.json", tmp_path / "rep.json"
        dump(as_matrix(0.5 * np.array([[1, 1], [1, 1]])), q)
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
        dump(as_matrix([[1.0, 1.0], [0.0, 0.5]]), q)
        assert run("analyze", "--input", q) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("analyze", "--input", tmp_path / "absent.json") == 2

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        q = tmp_path / "bad.json"
        q.write_bytes(b"\xff\xfe")
        assert run("analyze", "--input", q) == 2
        assert f"error: {q} is not UTF-8 text" in capsys.readouterr().err

    def test_corrupted_formula_is_math_error(self, tmp_path, monkeypatch, capsys):
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        certify = cli.as_idempotent
        monkeypatch.setattr(cli, "as_idempotent", lambda m, tol=None: sabotaged(certify(m, tol)))
        assert run("analyze", "--input", q, "--output", rep) == 1
        assert capsys.readouterr().err.startswith("check failed: ")
        assert not rep.exists()

    def test_failed_analysis_leaves_the_output_untouched(self, tmp_path):
        # the report is written only once the analysis is finished
        q, rep = tmp_path / "bad.json", tmp_path / "rep.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.5]]), q)
        rep.write_text("an earlier report\n")
        assert run("analyze", "--input", q, "--output", rep) == 2
        assert rep.read_text() == "an earlier report\n"

    def test_peak_memory(self, tmp_path, monkeypatch):
        # Q's analysis is freed before the report is encoded: then only m(Q)
        # (256 KB) and the report's scalars are held, and the factor oracle
        # sets the peak, measured here at 8.30 MB with numpy 2.4.6 (the write
        # adds 2.8 MB to what is held).  Holding the analysis (6.5 MB) through
        # the write peaked at 10.67 MB; the ceiling is halfway between the two
        held, written = [], []
        encode = cli.dumps

        def recorded(obj):
            held.append(tracemalloc.get_traced_memory()[0])
            written.append(encode(obj))
            return written[-1]

        monkeypatch.setattr(cli, "dumps", recorded)
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        dump(random_idempotent(128, 60, 1.0, 5).matrix, q)
        assert traced_peak(lambda: run("analyze", "--input", q, "--output", rep)) < 9_500_000
        assert held[0] < 1_000_000
        # the file is the text of the one dumps call, whose bytes a trace counts
        assert len(written) == 1 and rep.read_text(encoding="utf-8") == written[0]
        assert json.loads(written[0])["all_passed"] is True

    def test_missing_output_directory_is_usage_error(self, tmp_path, capsys):
        q, rep = tmp_path / "q.json", tmp_path / "missing" / "rep.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        assert run("analyze", "--input", q, "--output", rep) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(rep)!r}\n"

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("flag", ["--tol-check", "--tol-rank"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, flag, value):
        # a defect-0.56 matrix must not pass as an idempotent under an infinite gate
        q = tmp_path / "bad.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.5]]), q)
        assert run("analyze", "--input", q, f"{flag}={value}") == 2

    def test_unreachable_tolerance_is_math_error(self, tmp_path):
        # the exact idempotent passes validation at any gate, but no computed
        # projection can meet a 1e-18 residual bound
        q = tmp_path / "q.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
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

    @pytest.mark.parametrize(
        "text, message",
        [  # an integer beyond the largest double; nesting past the parser's recursion limit
            ('{"dim": [1, 1], "entries": [[[1' + "0" * 400 + ', 0]]]}', "matrix entries must be finite"),
            ("[" * 200000 + "]" * 200000, "{q} is not valid JSON: "),
        ],
        ids=["huge_integer", "deep_nesting"],
    )
    def test_unreadable_number_or_nesting_is_usage_error(self, tmp_path, capsys, text, message):
        q = tmp_path / "bad.json"
        q.write_text(text)
        assert run("analyze", "--input", q) == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(q=q))

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"entries": [[[1, 0]]]}, "expected an object with 'dim' and 'entries'"),
            ([[[1, 0]]], "expected an object with 'dim' and 'entries'"),
            ({"dim": [2, 2], "entries": [[[1, 0], [0, 0]]]}, "'entries' must hold 2 rows"),
        ],
        ids=["no_dim", "bare_list", "short_entries"],
    )
    def test_schema_fault_is_usage_error(self, tmp_path, capsys, obj, message):
        q = tmp_path / "bad.json"
        q.write_text(json.dumps(obj))
        assert run("analyze", "--input", q) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_factorizations_with_cold_memo(self, tmp_path, factorizations):
        # the ceilings are the measured counts; without the memo analyze makes
        # 156, 94 with exact norms at every gate, 65 (45 exact 2-norms) with
        # an exact norm for every reported residual, 36 (11 full SVDs, 16
        # without vectors) with every Hermitian operand through an SVD, and 28
        # with m(Q) from the SVD (its bases and Koliha's test each an eigh of
        # their own); the Koliha pencil is solved once per Q, in the V V* oracle.
        # The three Hermitian column spaces of range_identities (Q + Q*,
        # |Q*| + |Q| and the four-term sum) take an SVD, not an eigh, since
        # their eigh cost more than the SVD at small n: svd 6 -> 9, eigh 6 -> 3.
        # 27 (eigh 3) while the V V* oracle took (I + |Q*|)^(-1/2) from an
        # eigh of its own rather than from its SVD of Q*
        q = tmp_path / "q.json"
        assert run("generate", "--dim", 8, "--rank", 3, "--offdiag-norm", 2,
                   "--seed", 42, "--output", q) == 0
        factorizations.clear()
        assert run("analyze", "--input", q) == 0
        assert sum(factorizations.values()) <= 26, dict(factorizations)
        assert factorizations["svd"] <= 9, dict(factorizations)
        assert factorizations["eigh"] <= 2, dict(factorizations)
        assert factorizations["svdvals"] <= 8, dict(factorizations)
        assert factorizations["solve"] == 1, dict(factorizations)

    def test_input_is_opened_once(self, tmp_path, monkeypatch):
        # the report's sha256 names the bytes that were parsed, from the one read
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        dump(random_idempotent(4, 2, 1.0, 3).matrix, q)
        opened = []

        def counting(open_):
            def wrapper(file, *args, **kwargs):
                opened.append(Path(file))
                return open_(file, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(io, "open", counting(io.open))
        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        assert run("analyze", "--input", q, "--output", rep) == 0
        assert opened.count(q) == 1, opened
        digest = json.loads(rep.read_text())["input"]["sha256"]
        assert digest == hashlib.sha256(q.read_bytes()).hexdigest()

    def test_oracle_failure_fails_its_checks_only(self, tmp_path, capsys):
        # at ||A|| = 1e6 the Koliha projections behind the T/V factor oracle
        # miss certification; the production checks all pass and are reported
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        dump(random_idempotent(64, 20, 1e6, 3).matrix, q)
        assert run("analyze", "--input", q, "--output", rep) == 1
        assert "factor oracle: projection defect" in capsys.readouterr().err
        report = json.loads(rep.read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["matched_equals_tt_factor", "matched_equals_vv_factor"]
        assert report["all_passed"] is False

    def test_non_hermitian_defect_operator_fails_its_check_only(self, tmp_path, capsys):
        # a 1e-8 Gaussian step off an idempotent of ||A|| = 1e2 (n = 32, rank
        # 21) keeps the idempotency defect, 7.0e-7, within its quadratic gate
        # 1e-6, while D - D* = m (Q - Q*) m - (I - m) (Q - Q*) (I - m) grows
        # to 1.6e-8, past the linear gate 5.1e-9 of require_hermitian: the PSD
        # check fails, and the report is still written
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        step = np.random.default_rng(5)
        g = step.standard_normal((32, 32)) + 1j * step.standard_normal((32, 32))
        dump(random_idempotent(32, 21, 1e2, 32021).matrix + 1e-8 * g / operator_norm(g), q)
        assert run("analyze", "--input", q, "--output", rep) == 1
        assert "asymmetry" not in capsys.readouterr().err
        report = json.loads(rep.read_text())
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["defect_operator_psd"] is False
        assert report["all_passed"] is False

    def test_report_json_round_trips(self, tmp_path):
        q, rep = tmp_path / "q.json", tmp_path / "rep.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        assert run("analyze", "--input", q, "--output", rep) == 0
        text = rep.read_text()
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
        # a larger report, whatever its checks say; its m(Q) loads back bitwise
        dump(random_idempotent(64, 20, 1e4, 5).matrix, q)
        assert run("analyze", "--input", q, "--output", rep) in (0, 1)
        text = rep.read_text()
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text
        m = matrix_from_obj(parsed["matched_projection"])
        assert dumps(m) == json.dumps(parsed["matched_projection"], indent=2) + "\n"


class TestPath:
    def test_two_samples_are_endpoints(self, tmp_path):
        q, out = tmp_path / "q.json", tmp_path / "path.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        assert run("path", "--input", q, "--samples", 2, "--output", out) == 0
        samples = [matrix_from_obj(o) for o in json.loads(out.read_text())]
        assert len(samples) == 2
        expect_m = np.array([[RT2 + 1, 1], [1, RT2 - 1]]) / (2 * RT2)
        np.testing.assert_allclose(samples[0], expect_m, atol=1e-10)
        np.testing.assert_allclose(samples[1], [[1, 1], [0, 0]], atol=1e-10)

    def test_eleven_samples_all_idempotent(self, tmp_path):
        q, out = tmp_path / "q.json", tmp_path / "path.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        assert run("path", "--input", q, "--samples", 11, "--output", out) == 0
        for obj in json.loads(out.read_text()):
            s = matrix_from_obj(obj)
            assert operator_norm(s @ s - s) <= 1e-10

    def test_projection_gives_constant_path(self, tmp_path):
        q, out = tmp_path / "p.json", tmp_path / "path.json"
        p = 0.5 * np.array([[1, 1], [1, 1]])
        dump(as_matrix(p), q)
        assert run("path", "--input", q, "--samples", 5, "--output", out) == 0
        for obj in json.loads(out.read_text()):
            np.testing.assert_allclose(matrix_from_obj(obj), p, atol=1e-12)

    def test_invalid_input_is_usage_error(self, tmp_path):
        q = tmp_path / "bad.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.5]]), q)
        assert run("path", "--input", q, "--samples", 3) == 2

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        q, out = tmp_path / "q.json", tmp_path / "path.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        assert run("path", "--input", q, "--samples", 0, "--output", out) == 2
        assert capsys.readouterr().err == "error: samples must be positive\n"
        assert not out.exists()

    def test_sabotaged_input_is_math_error(self, tmp_path, monkeypatch, capsys):
        # m(Q) fails its certificate, so the path has no start
        q, out = tmp_path / "q.json", tmp_path / "path.json"
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), q)
        certify = cli.as_idempotent
        monkeypatch.setattr(cli, "as_idempotent", lambda m, tol=None: sabotaged(certify(m, tol)))
        assert run("path", "--input", q, "--samples", 3, "--output", out) == 1
        assert capsys.readouterr().err.startswith("check failed: ")
        assert not out.exists()


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

    def test_zero_parameter_is_usage_error(self, capsys):
        assert run("min2x2", "--a-re", 0, "--a-im", 0) == 2
        assert capsys.readouterr().err == "error: parameter a must be nonzero\n"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--a-re", "1e300"), "--a-re must be finite and at most 1e+150 in magnitude, not 1e+300"),
            (("--a-re", "nan"), "--a-re must be finite and at most 1e+150 in magnitude, not nan"),
            (("--a-re", "1", "--a-im=-inf"),
             "--a-im must be finite and at most 1e+150 in magnitude, not -inf"),
        ],
        ids=["overflow", "nan", "infinite"],
    )
    def test_out_of_range_parameter_is_usage_error(self, tmp_path, capsys, flags, named):
        # rejected before the closed form squares |a|: no warning, no traceback, no record
        out = tmp_path / "min.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("min2x2", *flags, "--grid", 4, "--output", out) == 2
        assert capsys.readouterr() == ("", f"error: {named}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [("-1e-3", 0), ("-2.5E1", 0), ("-inf", 2)])
    def test_spaced_negative_value_is_the_joined_form(self, tmp_path, capsys, value, code):
        # argparse alone would read a spaced "-1e-3" or "-inf" as an option and
        # stop at "expected one argument"; both spellings are one request
        seen = []
        for flags in (("--a-re", value), (f"--a-re={value}",)):
            out = tmp_path / f"min{len(seen)}.json"
            exit_code = run("min2x2", *flags, "--a-im", "-1", "--grid", 16, "--output", out)
            seen.append((exit_code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        assert seen[0] == seen[1]
        assert seen[0][0] == code, seen[0][1]

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "min.json"
        assert run("min2x2", "--a-re", 1, "--grid", 0, "--output", out) == 2
        assert capsys.readouterr().err == "error: grid size must be positive\n"
        assert not out.exists()

    def test_sabotaged_idempotent_is_math_error(self, tmp_path, monkeypatch, capsys):
        # m(Q) of the canonical idempotent, which grid_minimize builds, fails its
        # certificate: no record is written
        canonical = two_by_two.canonical_idempotent
        monkeypatch.setattr(two_by_two, "canonical_idempotent", lambda a, tol: sabotaged(canonical(a, tol)))
        out = tmp_path / "min.json"
        assert run("min2x2", "--a-re", 1, "--grid", 64, "--output", out) == 1
        assert capsys.readouterr().err.startswith("check failed: ")
        assert not out.exists()

    def test_failing_check_is_math_error(self, tmp_path, monkeypatch, capsys):
        # m(Q) of another parameter: the closed form does not match it, and the record says so
        matched = cli.matched_projection
        other = canonical_idempotent(2.0)
        monkeypatch.setattr(cli, "matched_projection", lambda q: matched(other))
        out = tmp_path / "min.json"
        assert run("min2x2", "--a-re", 1, "--grid", 64, "--output", out) == 1
        assert "  FAIL closed_form_is_matched: residual " in capsys.readouterr().out
        record = json.loads(out.read_text())
        assert record["all_passed"] is False
        assert [c["name"] for c in record["checks"] if not c["passed"]] == ["closed_form_is_matched"]

    @pytest.mark.parametrize("a", ["1e8", "1e11"])
    def test_large_parameter_passes(self, tmp_path, capsys, a):
        # b = sqrt(1 + |a|^2) rounds to |a| from about 6.7e7; the trivial
        # projections are still farther than the closed-form minimum distance
        out = tmp_path / "min.json"
        assert run("min2x2", "--a-re", a, "--output", out) == 0, capsys.readouterr().out
        record = json.loads(out.read_text())
        assert {c["name"]: c["passed"] for c in record["checks"]}["trivial_projections_farther"] is True

    def test_depends_on_modulus_only(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run("min2x2", "--a-re", 2, "--grid", 128, "--output", out1) == 0
        assert run("min2x2", "--a-re", 0, "--a-im", 2, "--grid", 128, "--output", out2) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["grid"]["min_value"] == pytest.approx(
            r2["grid"]["min_value"], abs=1e-12
        )


class TestMemoryError:
    @pytest.mark.parametrize(
        "command, argv",
        [
            ("cmd_generate", ("generate", "--dim", 3000000, "--rank", 1, "--output", "F")),
            ("cmd_path", ("path", "--input", "q.json", "--samples", 4000000000)),
        ],
        ids=["generate", "path"],
    )
    def test_request_too_large_is_usage_error(self, monkeypatch, capsys, command, argv):
        # the command raises what numpy raises for such a request, without allocating
        message = "Unable to allocate 65.5 TiB for an array with shape (3000000, 3000000)"

        def too_large(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, command, too_large)
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bare_memory_error_is_named(self, monkeypatch, capsys):
        # Python's own MemoryError carries no message
        def too_large(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_generate", too_large)
        assert run("generate", "--dim", 2, "--rank", 1, "--output", "F") == 2
        assert capsys.readouterr() == ("", "error: MemoryError\n")


class TestRankCutoffFlag:
    # --tol-rank is taken only by the commands that run a rank cutoff
    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--dim", 2, "--rank", 1, "--output", "q.json"),
            ("path", "--input", "q.json"),
            ("min2x2", "--a-re", 1),
        ],
        ids=["generate", "path", "min2x2"],
    )
    def test_rejected_where_no_rank_cutoff_runs(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), "q.json")
        with pytest.raises(SystemExit) as stop:
            run(*argv, "--tol-rank", "1e-12")
        assert stop.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: unrecognized arguments: --tol-rank 1e-12\n"), err

    @pytest.mark.parametrize(
        "argv",
        [("analyze", "--input", "q.json"), ("verify", "--trials", 1, "--dim-max", 4)],
        ids=["analyze", "verify"],
    )
    def test_accepted_where_a_rank_cutoff_runs(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        dump(as_matrix([[1.0, 1.0], [0.0, 0.0]]), "q.json")
        assert run(*argv, "--tol-rank", "1e-12") == 0


class TestVerify:
    @pytest.mark.parametrize(
        "flags, code, last_line",
        [((), 0, "all checks passed"), (("--sabotage",), 1, "FIRST FAILURE")],
    )
    def test_runs_as_a_module(self, flags, code, last_line):
        # python -m matchedproj from a source checkout, without the console script
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "matchedproj", "verify", "--trials", "1", "--dim-max", "4"]
        done = subprocess.run([*argv, *flags], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        lines = done.stdout.splitlines()
        if code:
            # a failure ends in the line that reproduces it
            *lines, reproduce = lines
            assert reproduce.startswith("reproduce: python -m matchedproj verify --trials 1 ")
        assert lines[-1].startswith(last_line)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--trials", 2, "--dim-max", 4, "--seed", 7, "--sabotage"),
            # round-off fails this gate first in a later trial (trial 4, seed 5 ^ 4 = 1)
            ("--trials", 6, "--dim-max", 6, "--seed", 5, "--tol-check", "2e-15"),
            ("--trials", 2, "--dim-max", 4, "--seed", 7, "--sabotage", "--tol-rank", "1e-12"),
        ],
        ids=["sabotage", "tight_gate", "rank_cutoff"],
    )
    def test_reproduction_line_replays_the_first_failure(self, capsys, flags):
        assert run("verify", *flags) == 1
        *_, first, reproduce = capsys.readouterr().out.splitlines()
        assert first.startswith("FIRST FAILURE: ")
        command = reproduce.removeprefix("reproduce: python -m matchedproj ")
        assert command != reproduce and "--trials 1 " in command
        for flag in ("--tol-check", "--tol-rank"):
            assert (flag in command) == (flag in flags)
        assert run(*shlex.split(command)) == 1
        # the same check fails first, in the same trial, with the same detail
        *_, replayed, again = capsys.readouterr().out.splitlines()
        assert (replayed, again) == (first, reproduce)

    def test_zero_trials_vacuous_pass(self):
        assert run("verify", "--trials", 0) == 0

    def test_negative_trials_is_usage_error(self, capsys):
        assert run("verify", "--trials", -3) == 2
        assert "all checks passed" not in capsys.readouterr().out

    def test_small_battery_passes(self):
        assert run("verify", "--dim-max", 5, "--trials", 4, "--seed", 7) == 0

    def test_factorizations_per_battery(self, factorizations):
        # the ceilings are the measured counts: a second build of an oracle
        # shows here, and so does a projection drawn, certified or measured
        # apart from its batch (413 calls, 64 qr and 239 svdvals, before the
        # 20 candidates were one stack; 318, 26 and 182 before every batch was).
        # 294 while m(Q) came from the SVD: a Q whose m(Q) and whose values
        # of its own are both read (the generated quasi-projection pair's Q
        # and the two static canonical Q) now takes the pencil's eigh beside
        # its SVD; 296 while the factor oracle took (I + |Q*|)^(-1/2) from an
        # eigh of its own rather than from its SVD of Q*; 294 while the
        # fractional-power table and the convergence table each took an eigh
        # of Q's m(Q) Q m(Q), which they now share (matched.fractional_powers)
        run_battery(12, 2, 7)
        assert sum(factorizations.values()) <= 292, dict(factorizations)
        assert factorizations["qr"] <= 22, dict(factorizations)
        assert factorizations["svdvals"] <= 162, dict(factorizations)

    def test_dim_max_below_two_is_usage_error(self, capsys):
        # a dim-max below 2 used to run 2 x 2 trials and pass
        for dim_max in (1, 0, -2):
            assert run("verify", "--trials", 2, "--dim-max", dim_max) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"error: dim_max must be at least 2, not {dim_max}\n")

    @staticmethod
    def per_candidate_records(rng, dim, q, tol, splice):
        """The 20-candidate records as a loop over single candidates draws and tests them."""
        m = matched_projection(q).projection.matrix
        for k in range(20):
            p = random_projection(dim, int(rng.integers(0, dim + 1)), int(rng.integers(2**32)), tol)
            p = splice.get(k, p)
            mini = qpp_minimality(p, q)
            closer = norm_check("projection-closer-to-matched", p.matrix - m, mini.d_candidate + 1e-9)
            yield closer, f"trial {k}"
            for c in mini.checks:
                yield Check(f"any-projection:{c.name}", c.residual, c.tolerance, c.lower), ""

    def test_candidate_stack_is_the_per_candidate_loop_bitwise(self, monkeypatch):
        # m(Q) is spliced into each trial's stack, so its quasi-projection-pair
        # branch runs beside the random candidates' others
        tol = DEFAULT_TOL
        stacked = battery.random_projection
        splice = {}
        monkeypatch.setattr(
            battery, "random_projection",
            lambda *args: [splice.get(k, p) for k, p in enumerate(stacked(*args))],
        )

        def bits(record):
            check, note = record if isinstance(record, tuple) else (record, "")
            ends = (check.residual, check.tolerance, check.lower)
            return check.name, tuple(None if x is None else float(x).hex() for x in ends), note

        names = set()
        for seed in range(24):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 13))
            q, q2 = (random_idempotent(dim, int(rng.integers(1, dim)), float(10.0 ** rng.uniform(-2, 1)),
                                       int(rng.integers(2**32)), tol) for _ in range(2))
            splice.clear()
            splice[seed % 20] = matched_projection(q).projection
            suite = battery._norm_suite(np.random.default_rng(seed), dim, q, q2, tol)
            got = [r for r in map(bits, suite)
                   if r[0] == "projection-closer-to-matched" or r[0].startswith("any-projection:")]
            reference = self.per_candidate_records(np.random.default_rng(seed), dim, q, tol, splice)
            want = [bits(r) for r in reference]
            assert got == want, seed
            names.update(r[0] for r in got)
        assert "any-projection:psd_dominance_left" in names
        assert "any-projection:small_distance_forces_matched" in names

    def test_batches_are_their_one_at_a_time_forms_bitwise(self):
        # each batch is one stack; every slice is what its own call gave
        tol = DEFAULT_TOL
        for seed in range(12):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 13))
            q = random_idempotent(dim, int(rng.integers(1, dim)), float(10.0 ** rng.uniform(-2, 2)),
                                  int(rng.integers(2**32)), tol)
            # the battery's batches: the block-form P, p1 and p2, p_a and p_b
            for max_rank, count in ((dim, 1), (max(dim // 2, 1), 2), (dim, 2)):
                stacked, looped = np.random.default_rng(seed), np.random.default_rng(seed)
                batch = battery._draw_projections(stacked, dim, max_rank, count, tol)
                for p in batch:
                    rank, draw = int(looped.integers(0, max_rank + 1)), int(looped.integers(2**32))
                    assert p.matrix.tobytes() == random_projection(dim, rank, draw, tol).matrix.tobytes()
                assert stacked.integers(2**63) == looped.integers(2**63)
            # Koliha's pair against two certificates
            qm = q.matrix
            x = np.linalg.solve(qm + adjoint(qm) - identity(dim), np.hstack([adjoint(qm), qm]))
            singles = [as_projection(adjoint(x[:, :dim]), tol), as_projection(adjoint(x[:, dim:]), tol)]
            pair = koliha_projections(q)
            assert [p.matrix.tobytes() for p in pair] == [p.matrix.tobytes() for p in singles]
            # the fractional-power distances against one norm per power
            m = matched_projection(q).projection.matrix
            k = require_hermitian(m @ qm @ m, tol)
            powers = psd_power(k, [1.0 / n for n in EXPONENT_GRID], tol)
            want = [operator_norm(p - m).hex() for p in powers]
            assert [d.hex() for d in fractional_power_limit(q)] == want

    def test_sabotage_fails_fast(self):
        assert run("verify", "--dim-max", 4, "--trials", 2, "--seed", 7,
                   "--sabotage") == 1

    def test_sabotaged_copy_keeps_the_tolerance_of_q(self, capsys):
        # the corrupted m(Q) fails its certificate at the tolerance given, not the default's 1.000e-10
        assert run("verify", "--sabotage", "--trials", 2, "--dim-max", 4, "--seed", 7, "--tol-check", "1e-9") == 1
        lines = capsys.readouterr().out.splitlines()
        first = next(line for line in lines if line.startswith("FIRST FAILURE: "))
        assert "exceeds 1.000e-09" in first
        assert lines[-1].startswith("reproduce: ") and "--tol-check 1e-09" in lines[-1]

    def test_raising_distance_equality_fails_with_its_message(self, monkeypatch, capsys):
        def kkm_distance(p_a, p_b, tol):
            raise InapplicableHypothesisError("no common distance")

        monkeypatch.setattr(battery, "kkm_distance", kkm_distance)
        report = run_battery(4, 2, 7)
        tally = report.tallies["projection-distance-equality"]
        assert (tally.passed, tally.failed) == (0, 2)
        # the raise is recorded in the suite, so the trials complete
        assert report.tallies["trial-completed"].passed == 2
        assert run("verify", "--trials", 2, "--dim-max", 4, "--seed", 7) == 1
        *_, first, _ = capsys.readouterr().out.splitlines()
        assert first.startswith("FIRST FAILURE: projection-distance-equality: (seed=7, dim=")
        assert first.endswith(" tol=5.000e-01 no common distance")

    def test_raising_static_check_fails_static_checks_only(self, monkeypatch, capsys):
        # the closed form that grid_minimize builds raises on the family's
        # second modulus; the trials pass a complex parameter and are left as
        # they were
        closed_form = two_by_two.closed_form_p0

        def family_fault(a, tol):
            if isinstance(a, float) and a > 1e-2:
                raise ValidationError("family fault")
            return closed_form(a, tol)

        monkeypatch.setattr(two_by_two, "closed_form_p0", family_fault)
        report = run_battery(4, 2, 7)
        static = report.tallies["static-checks"]
        assert (static.passed, static.failed, static.first_seed) == (0, 1, None)
        assert static.first_failure == (
            "(one-shot) residual 1.000e+00 tol=5.000e-01 ValidationError('family fault')"
        )
        # records made before the raise are kept: the first modulus's grid
        # checks and argmin, and nothing of the second modulus
        assert report.tallies["distance-ratio-asymptotics"].passed == 2
        assert report.tallies["family-grid:grid_min_near_optimum"].passed == 1
        assert report.tallies["family-argmin-matches-closed-form"].passed == 1
        assert report.tallies["trial-completed"].passed == 2
        assert [t.name for t in report.tallies.values() if t.failed] == ["static-checks"]
        assert run("verify", "--trials", 2, "--dim-max", 4, "--seed", 7) == 1
        *_, first, reproduce = capsys.readouterr().out.splitlines()
        assert first.startswith("FIRST FAILURE: static-checks: (one-shot) ")
        assert reproduce.endswith(" --seed 7 --dim-max 4")

    def test_tallies_match_golden(self, capsys):
        # the golden file is this command's stdout at an earlier release; a
        # change that alters any tally, or the continuity constant, shows here
        assert run("verify", "--trials", 5, "--dim-max", 8, "--seed", 7) == 0
        golden = Path(__file__).parent / "data" / "verify_seed7.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
