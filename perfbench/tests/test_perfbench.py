"""The benchmark's own tests: seeded inputs, the checker, metric names.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {"apsp": 4, "wavefront": 4, "obstacle": 4, "oddeven": 4,
        "ranksort": 4, "matmul": 4}


def test_inputs_are_deterministic_per_seed():
    def digest(seed):
        return (corpus.input_digest(corpus.corpus(seed, corpus.WARM_SIZES)),
                corpus.input_digest(corpus.examples(ROOT, seed)),
                corpus.input_digest(corpus.serve_cases(seed, 12)))

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_apsp_variants_alternate_dense_and_clique_chain():
    (case,) = [c for c in corpus.corpus(3, corpus.WARM_SIZES)
               if c.name == "apsp-solve"]
    no_edge = [int((v.inputs["dist"] == corpus.NO_EDGE).sum()) for v in case.variants]
    assert no_edge[0] == no_edge[2] == 0
    assert no_edge[1] > 0 and no_edge[3] > 0


def _matmul_case():
    (case,) = [c for c in corpus.corpus(1, TINY) if c.name == "matmul"]
    return case


def _run(case, inputs, seed):
    return workload.UCProgram(case.source, defines=case.defines).run(
        inputs, seed=seed)


def test_checker_accepts_a_correct_run():
    wl = workload.Workload(1)
    tally = workload.Tally()
    case = _matmul_case()
    assert wl.op(tally, case, 0, lambda i, s: _run(case, i, s)) is not None
    assert (tally.attempted, tally.failed) == (1, 0)
    assert wl.checker.oracle() == 0


def test_checker_counts_a_corrupted_result():
    wl = workload.Workload(1)
    tally = workload.Tally()
    case = _matmul_case()

    def corrupted(inputs, seed):
        result = _run(case, inputs, seed)
        result["c"][0, 0] += 1
        return result

    assert wl.op(tally, case, 0, corrupted) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_checker_counts_an_exception():
    wl = workload.Workload(1)
    tally = workload.Tally()

    def raises(inputs, seed):
        raise RuntimeError("boom")

    assert wl.op(tally, _matmul_case(), 0, raises) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_oracle_counts_a_fingerprint_mismatch():
    wl = workload.Workload(1)
    case = _matmul_case()
    result = _run(case, case.variants[1].fresh_inputs(), case.variants[1].run_seed)
    result.fingerprint = (result.fingerprint[0] + 1.0,) + result.fingerprint[1:]
    assert wl.checker.check(1, case, 1, result)
    assert wl.checker.oracle() == 1


def _main(monkeypatch, name, trace):
    monkeypatch.setattr(corpus, "WARM_SIZES", TINY)
    monkeypatch.setattr(corpus, "COLD_SIZES", TINY)
    monkeypatch.setattr(corpus, "SERVE_SIZES", TINY)
    monkeypatch.setattr(workload.ServeBurst, "JOBS_PER_PROGRAM", 4)
    out = io.StringIO()
    with redirect_stdout(out):
        assert workload.main(["--workload", name, "--seed", "3",
                              "--seconds", "0.05", "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_emits_every_named_metric(monkeypatch, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _main(monkeypatch, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
    assert not (ROOT / ".perfbench_tmp").exists()


def test_tracing_leaves_the_simulated_clock_identical(monkeypatch):
    monkeypatch.setattr(corpus, "WARM_SIZES", TINY)
    clocks = []
    for traced in (False, True):
        wl = workload.PaperWarm(3)
        wl.setup(workload.Tally())
        tracer = workload.Tracer()
        if traced:
            tracer.install()
        try:
            wl.cycle(workload.Tally(), tracer if traced else None)
        finally:
            tracer.uninstall()
        assert not traced or tracer.spans
        clocks.append((dict(wl.checker.sim_us), dict(wl.checker.fingerprints)))
    assert clocks[0] == clocks[1]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
