"""The benchmark's workloads: seeded inputs, one timed op, and the op's check.

Each workload is a single closed-loop caller: the next op starts when the
last one returns.  ``prepare`` makes the inputs from the seed (the program
sees only the generated matrices) and returns the op list, whose length
depends on the run length alone, so every seed gives the same op count.

``op`` is the timed call through the package's public API; ``check`` runs
outside the timed region and returns one of OK, FAILED (the program exited
nonzero or reported a failing check) or WRONG (the program reported success
but the oracle disagrees).  An op that raises is FAILED without a check.

Ops call the package through module attributes (``matched.matched_projection``)
so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from matchedproj import battery, cli, idempotents, linalg, matched

import oracle

OK, FAILED, WRONG = "ok", "failed", "wrong"


def matrix_json(q: np.ndarray) -> str:
    """The package's matrix file schema, written without the package."""
    entries = [[[float(x.real), float(x.imag)] for x in row] for row in q]
    return json.dumps({"dim": list(q.shape), "entries": entries})


def gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    qmat, r = np.linalg.qr(gaussian(rng, dim, dim))
    d = np.diag(r)
    return qmat * (d / np.abs(d))


def idempotent(u: np.ndarray, rank: int, a: np.ndarray) -> np.ndarray:
    """U [[I, A], [0, 0]] U* for a unitary U and a rank x (dim - rank) block A."""
    base = np.zeros(u.shape, dtype=np.complex128)
    base[:rank, :rank] = np.eye(rank)
    base[:rank, rank:] = a
    return u @ base @ u.conj().T


def random_idempotent(rng: np.random.Generator, dim: int, rank: int, offdiag_norm: float) -> np.ndarray:
    """U [[I, A], [0, 0]] U* with a Haar unitary U and a Gaussian A scaled to ||A|| = offdiag_norm."""
    u = haar_unitary(rng, dim)
    a = np.zeros((rank, dim - rank), dtype=np.complex128)
    if 0 < rank < dim:
        a = gaussian(rng, rank, dim - rank)
        a *= offdiag_norm / oracle.operator_norm(a)
    return idempotent(u, rank, a)


def idempotent_with_spectrum(rng: np.random.Generator, dim: int, rank: int, singular_values) -> np.ndarray:
    """U [[I, A], [0, 0]] U* with A = X diag(singular_values) Y*; U, X and Y are Haar."""
    k = len(singular_values)
    x = haar_unitary(rng, rank)[:, :k]
    y = haar_unitary(rng, dim - rank)[:, :k]
    return idempotent(haar_unitary(rng, dim), rank, (x * singular_values) @ y.conj().T)


WARM_UP_Q = random_idempotent(np.random.default_rng(0), 16, 5, 1.0)


class Workload:
    """A closed-loop workload; ``warm_up`` runs one small op on a fixed input."""

    name = why = ""
    REFERENCE = "small"  # the computation that gauges the host (reference.KINDS)
    check_records = 0  # battery checks reported by the ops checked so far

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir


class AnalyzeN256(Workload):
    name = "analyze-n256"
    why = (
        "one big matrix through the analyze CLI: dense O(n^3) LAPACK work and 5 MB of JSON "
        "dominate; the norm ladder holds both ends where the seed fails and a spectrum where "
        "a range check fails"
    )
    DIM = 256
    LADDER = (1e-8, 1e-2, 1.0, 1e2, 1e4)  # ||A|| of the five inputs
    # Whether an input passes depends only on its rank and the singular values
    # of A: Q is unitarily similar to 2 x 2 blocks [[1, s_i], [0, 0]].  So each
    # rung's rank and spectrum are drawn once, from this fixed stream, and the
    # seed draws U and the singular vectors.  A seeded spectrum would make the
    # failure count a property of the draw: at ||A|| = 1e-2 about 3% of
    # Gaussian spectra (rank near n/2, s_min/s_max between 0.008 and 0.035)
    # fail the check range_q_plus_qstar_eq_range_absqstar_plus_absq.  This
    # stream puts the 1e-2 rung in that band (residual 3 to 10 times its gate
    # over 14 seeds), so the defect shows on every seed, beside the two ends
    # of the ladder; the 1e2 rung passes with its worst residual at 0.18-0.23
    # of its gate.
    SPECTRA_STREAM = 74
    SECONDS_PER_LADDER = 10
    REFERENCE = "large"

    def __init__(self, work_dir: Path):
        super().__init__(work_dir)
        self.report = work_dir / "report.json"
        self.inputs: list[tuple[Path, np.ndarray]] = []
        self._expected: dict[int, tuple[np.ndarray, float]] = {}

    def spectra(self) -> list[tuple[int, np.ndarray]]:
        """(rank, singular values of A) for each rung, the same for every seed."""
        rng = np.random.default_rng([self.SPECTRA_STREAM, 3])
        out = []
        for nu in self.LADDER:
            rank = int(rng.integers(self.DIM // 8, 7 * self.DIM // 8 + 1))
            s = np.linalg.svd(gaussian(rng, rank, self.DIM - rank), compute_uv=False)
            out.append((rank, s * (nu / s[0])))
        return out

    def prepare(self, seed: int, seconds: int) -> list[int]:
        rng = np.random.default_rng([seed, 0])
        self.inputs = []
        self._expected = {}
        for i, (rank, singular_values) in enumerate(self.spectra()):
            q = idempotent_with_spectrum(rng, self.DIM, rank, singular_values)
            path = self.work_dir / f"q{i}.json"
            path.write_text(matrix_json(q), encoding="utf-8")
            self.inputs.append((path, q))
        self.warm_input = self.work_dir / "warm.json"
        self.warm_input.write_text(matrix_json(WARM_UP_Q), encoding="utf-8")
        self.report.unlink(missing_ok=True)
        ladders = max(1, round(seconds / self.SECONDS_PER_LADDER))
        return [i for _ in range(ladders) for i in range(len(self.LADDER))]

    def warm_up(self) -> None:
        self._analyze(self.warm_input)
        self.report.unlink(missing_ok=True)

    def op(self, i: int) -> int:
        return self._analyze(self.inputs[i][0])

    def _analyze(self, path: Path) -> int:
        argv = ["analyze", "--input", str(path), "--output", str(self.report)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, exit_code: int) -> str:
        try:
            if exit_code != 0:
                return FAILED
            report = json.loads(self.report.read_text(encoding="utf-8"))
        finally:
            self.report.unlink(missing_ok=True)
        if not report["all_passed"]:
            return FAILED
        if i not in self._expected:
            q = self.inputs[i][1]
            self._expected[i] = (oracle.matched_projection(q), oracle.tolerance(q))
        expected, tol = self._expected[i]
        entries = np.asarray(report["matched_projection"]["entries"], dtype=np.float64)
        got = entries[..., 0] + 1j * entries[..., 1]
        return OK if oracle.within(got, expected, tol) else WRONG


class VerifyD12(Workload):
    name = "verify-d12"
    why = (
        "the verify battery at dim-max 12: thousands of small-matrix calls where per-call "
        "overhead dominates; the only workload that runs battery and two_by_two"
    )
    DIM_MAX = 12
    TRIALS = 10  # per op, about one second at the seed
    TOL = linalg.Tolerances(check=1e-10, rank=None)  # the verify command's defaults

    def prepare(self, seed: int, seconds: int) -> list[int]:
        seeds = np.random.default_rng([seed, 1]).integers(0, 2**31, size=max(1, seconds))
        return [int(s) for s in seeds]

    def warm_up(self) -> None:
        battery.run_battery(self.DIM_MAX, 1, 0, self.TOL)

    def op(self, battery_seed: int):
        return battery.run_battery(self.DIM_MAX, self.TRIALS, battery_seed, self.TOL)

    def check(self, battery_seed: int, report) -> str:
        records = {name: t.passed + t.failed for name, t in report.tallies.items()}
        self.check_records += sum(records.values())
        if not report.all_passed:
            return FAILED
        return WRONG if oracle.battery_mismatches(records, self.TRIALS) else OK


class MqStream(Workload):
    name = "mq-stream"
    why = (
        "library callers needing m(Q) and its homotopy path for distinct small Q across the "
        "full norm envelope; each Q is used once, so sharing an analysis cannot help"
    )
    DIMS = (4, 8, 16, 32)
    LOG10_NORM = (-10.0, 6.0)  # ||A|| envelope
    PATH_SAMPLES = 11
    OPS_PER_SECOND = 200

    def prepare(self, seed: int, seconds: int) -> list[np.ndarray]:
        rng = np.random.default_rng([seed, 2])
        count = self.OPS_PER_SECOND * max(1, seconds)
        # stratified: equal counts per dimension and an even spread of log ||A||,
        # so runs with different seeds cover the envelope alike
        lo, hi = self.LOG10_NORM
        exponents = lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count
        ops = []
        for dim, e in zip(rng.permutation(np.resize(self.DIMS, count)), exponents):
            dim = int(dim)
            ops.append(random_idempotent(rng, dim, int(rng.integers(0, dim + 1)), 10.0**e))
        return ops

    def warm_up(self) -> None:
        self.op(WARM_UP_Q)

    def op(self, q: np.ndarray):
        qi = idempotents.as_idempotent(q)
        m = matched.matched_projection(qi).projection.matrix
        path = matched.homotopy_path(qi, self.PATH_SAMPLES)
        return m, len(path), path[0].matrix, path[-1].matrix

    def check(self, q: np.ndarray, result) -> str:
        m, samples, start, end = result
        expected, tol = oracle.matched_projection(q), oracle.tolerance(q)
        good = (
            samples == self.PATH_SAMPLES
            and oracle.within(m, expected, tol)
            and oracle.within(start, expected, tol)
            and oracle.within(end, q, tol)
        )
        return OK if good else WRONG


WORKLOADS = {w.name: w for w in (AnalyzeN256, VerifyD12, MqStream)}
