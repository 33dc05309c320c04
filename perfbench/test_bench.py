"""Tests of the benchmark itself: tracer rebinding, trace structure, count
repeatability, the oracle, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import inspect
import json
import math
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import matchedproj  # noqa: E402
from matchedproj import battery, matched  # noqa: E402
from matchedproj.idempotents import as_idempotent  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def package_bindings() -> dict[tuple[str, str], object]:
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "matchedproj" or name.startswith("matchedproj."):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    found[(name, attr)] = value
    for kind in ("svd", "eigh", "eigvalsh", "solve", "inv", "qr", "norm"):
        found[("numpy.linalg", kind)] = getattr(np.linalg, kind)
    return found


def test_tracer_rebinds_every_module_and_restores_originals():
    before = package_bindings()
    with tracer_mod.Tracer():
        # names imported into other modules are rebound too
        assert matchedproj.norms.matched_projection is not before[("matchedproj.norms", "matched_projection")]
        assert matchedproj.cli.distance_report is not before[("matchedproj.cli", "distance_report")]
        assert matchedproj.matched_projection is not before[("matchedproj", "matched_projection")]
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
    assert package_bindings() == before


def test_untraced_calls_reach_the_original_functions():
    with tracer_mod.Tracer() as tr:
        pass
    matched.matched_projection(as_idempotent(workloads.WARM_UP_Q))
    assert not tr.calls and not tr.lapack_by_entry


def test_analyze_trace_has_distance_report_over_matched_projection(tmp_path):
    w = workloads.AnalyzeN256(tmp_path)
    w.prepare(run.DEFAULT_SEED, 20)
    with tracer_mod.Tracer() as tr:
        exit_code = w.op(w.LADDER.index(1.0))
    assert w.check(w.LADDER.index(1.0), exit_code) == workloads.OK
    assert tr.edges[("norms.distance_report", "matched.matched_projection")] >= 1
    assert tr.edges[("cli.main", "cli.cmd_analyze")] == 1
    assert tr.bytes_read > 0 and tr.bytes_written > 0


def traced_counts(ops) -> tuple:
    w = workloads.MqStream(Path("."))
    with tracer_mod.Tracer() as tr:
        for op in ops:
            try:
                w.op(op)
            except matchedproj.MatchedProjectionError:
                pass
            tr.end_op()
    lapack = {entry: dict(c) for entry, c in tr.lapack_by_entry.items()}
    return dict(tr.calls), lapack, tr.distinct_q


def test_trace_counts_repeat_exactly():
    ops = workloads.MqStream(Path(".")).prepare(run.DEFAULT_SEED, 1)[:40]
    first = traced_counts(ops)
    assert first == traced_counts(ops)
    assert first[0]["matched.matched_projection"] == 40 and first[2] == 40


def test_confirm_seed_gives_the_same_op_counts(tmp_path):
    for cls in workloads.WORKLOADS.values():
        w = cls(tmp_path)
        assert len(w.prepare(run.DEFAULT_SEED, 20)) == len(w.prepare(run.CONFIRM_SEED, 20))


def test_analyze_rungs_keep_rank_and_spectrum_across_seeds(tmp_path):
    w = workloads.AnalyzeN256(tmp_path)
    w.prepare(run.DEFAULT_SEED, 10)
    first = [q for _, q in w.inputs]
    w.prepare(run.CONFIRM_SEED, 10)
    for a, (_, b) in zip(first, w.inputs):
        assert not np.allclose(a, b)
        np.testing.assert_allclose(
            np.linalg.svd(a, compute_uv=False), np.linalg.svd(b, compute_uv=False), rtol=1e-9, atol=1e-9
        )


def test_oracle_agrees_with_the_program_and_rejects_a_wrong_projection():
    rng = np.random.default_rng(3)
    for dim, rank, norm in ((1, 1, 0.0), (6, 0, 0.0), (6, 6, 0.0), (8, 3, 1e-3), (12, 5, 30.0)):
        q = workloads.random_idempotent(rng, dim, rank, norm)
        got = matched.matched_projection(as_idempotent(q)).projection.matrix
        expected, tol = oracle.matched_projection(q), oracle.tolerance(q)
        assert oracle.within(got, expected, tol)
        if 0 < rank < dim:
            assert not oracle.within(np.eye(dim) - got, expected, tol)


def test_battery_oracle_flags_a_dropped_check():
    report = battery.run_battery(4, 2, 11)
    records = {name: t.passed + t.failed for name, t in report.tallies.items()}
    assert oracle.battery_mismatches(records, 2) == []
    del records["matched-routes-agree"]
    assert oracle.battery_mismatches(records, 2)


def test_sampler_scales_by_the_gauges_around_and_inside_an_interval():
    s = reference.Sampler("small")
    s.at, s.gauges = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
    nominal = reference.NOMINAL_S["small"]
    assert math.isclose(s.scaled(1.0, 1.5, 2.5), nominal * 3 / 14)  # gauges at 1, 2 and 3
    assert math.isclose(s.scaled(1.0, 0.5, 0.7), nominal * 2 / 3)  # gauges at 0 and 1


def test_sampler_gauges_from_the_timer_and_restores_the_handler():
    with reference.Sampler("small") as s:
        stop = time.perf_counter() + 0.3
        while time.perf_counter() < stop:
            pass
    assert len(s.gauges) >= 4 and s.at == sorted(s.at)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
