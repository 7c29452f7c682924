"""One workload in one fresh process: set up, measure, check, report.

``perfbench/run.py`` starts this module once per measurement (and a few
more times with ``--setup-only`` to sample set-up time).  It can also be
run by hand from the repository root::

    python3 perfbench/workload.py --workload paper-warm --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  Failed ops are
logged to standard error with their op id.
"""

from __future__ import annotations

import time

#: set-up time is measured from here: before the program is imported
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro imported from {repro.__file__}, not from this checkout")

import corpus  # noqa: E402
from repro.interp.compile_store import CompileStore, default_store  # noqa: E402
from repro.interp.deadline import Deadline  # noqa: E402
from repro.interp.program import UCProgram  # noqa: E402
from repro.service import ExecutionService, JobSpec, ServiceConfig  # noqa: E402
from spans import Tracer  # noqa: E402

#: ledger kinds reported per layer (the cost classes the corpus charges;
#: the rest stay zero on every workload)
KINDS = ("router_get", "news", "scan_step", "alu", "dispatch", "context",
         "global_or", "host_cm_latency", "intershard")

#: every program name any workload runs (program.<name>.run_ms)
PROGRAMS = ("apsp-n2", "apsp-n3", "apsp-solve", "apsp-n3-shards4",
            "wavefront", "obstacle", "oddeven", "ranksort", "matmul",
            "ex-apsp", "ex-histogram", "ex-shifted")

#: the paper-warm attribution ladder: each rung adds one layer to the
#: rung below, through the public UCProgram flags
RUNGS = (
    ("tree", dict(plans=False, comm_tiers=False, frontier=False, fusion=False)),
    ("plans", dict(plans=True, comm_tiers=False, frontier=False, fusion=False)),
    ("comm_tiers", dict(plans=True, comm_tiers=True, frontier=False, fusion=False)),
    ("frontier", dict(plans=True, comm_tiers=True, frontier=True, fusion=False)),
    ("fusion", dict(plans=True, comm_tiers=True, frontier=True, fusion=True)),
)

TENANTS = ("alice", "bob", "carol", "dave")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def store_counts(store: CompileStore):
    """(hits, misses) over the store's frontend, backend and program maps."""
    s = store.stats()
    return (s["frontend_hits"] + s["backend_hits"] + s["program_hits"],
            s["frontend_misses"] + s["backend_misses"] + s["program_misses"])


class Tally:
    """What a set of ops measured: latencies, failures and the counters
    every RunResult carries."""

    def __init__(self) -> None:
        self.op_ms = []
        self.by_program = defaultdict(list)
        #: seconds on the clock (timed regions only), in all and per cycle
        self.busy_s = 0.0
        self.cycle_s = []
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.sums = defaultdict(float)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def runs_per_s(self) -> float:
        """Correct ops per cycle over the median cycle's timed seconds: a
        stall in one cycle does not move it, a slower program does."""
        return self.ok / len(self.cycle_s) / statistics.median(self.cycle_s)

    def record(self, program: str, ms: float) -> None:
        self.op_ms.append(ms)
        self.by_program[program].append(ms)

    def absorb(self, result) -> None:
        s = self.sums
        self.runs += 1
        for key in ("plan_s", "fuse_s", "frontier_s", "execute_s"):
            s[key] += result.compile.get(key, 0.0)
        s["charges"] += sum(result.counts.values())
        for kind in KINDS:
            s["count." + kind] += result.counts.get(kind, 0)
            s["sim_us." + kind] += result.times.get(kind, 0.0)
        s["fused"] += result.fusion.get("constructs", 0)
        s["unfusable"] += result.fusion.get("unfusable", 0)
        s["active_lanes"] += result.frontier.get("active_lanes", 0)
        s["domain_lanes"] += result.frontier.get("domain_lanes", 0)
        if result.shards:
            # the shard overlay charges intershard cycles on its own shard
            # clocks, never on the global Clock the ledger above reads
            s["count.intershard"] += result.shards["intershard_cycles"]
            s["intershard_bytes"] += result.shards["intershard_bytes"]
            s["reductions_ordered"] += result.shards["reductions_ordered"]
            s["reductions_precombined"] += result.shards["reductions_precombined"]


class Checker:
    """Checks every op's values against the case's reference, and (off
    the clock, after measuring) every distinct (program, defines, input)
    fingerprint against the tree-walking oracle."""

    def __init__(self) -> None:
        #: (case name, variant) -> Counter(fingerprint -> ops)
        self.fingerprints = defaultdict(Counter)
        self.sim_us = {}
        self.cases = {}
        #: wall seconds spent checking (kept out of set-up time)
        self.seconds = 0.0

    def check(self, op_id: int, case, k: int, result, oracle: bool = True) -> bool:
        """Value check now; with ``oracle``, queue the fingerprint for
        :meth:`oracle` (ablation runs change the Clock, so they skip it)."""
        t0 = time.perf_counter()
        if oracle:
            key = (case.name, k)
            self.cases[key] = case
            self.fingerprints[key][result.fingerprint] += 1
            self.sim_us.setdefault(key, result.elapsed_us)
        msg = case.check(result, case.variants[k], case.defines)
        self.seconds += time.perf_counter() - t0
        if msg is not None:
            log(f"op {op_id}: {case.name} variant {k}: {msg}")
        return msg is None

    def oracle(self) -> int:
        """Ops whose fingerprint differs from the oracle's."""
        failed = 0
        for key, fps in self.fingerprints.items():
            case = self.cases[key]
            v = case.variants[key[1]]
            oracle = UCProgram(
                case.source, defines=case.defines, plans=False,
                compile_store=None, **case.flags,
            ).run(v.fresh_inputs(), seed=v.run_seed)
            for fp, n in fps.items():
                if fp != oracle.fingerprint:
                    failed += n
                    log(f"{n} ops of {key[0]} variant {key[1]}: Clock "
                        f"fingerprint differs from the tree-walking oracle")
        return failed

    def sim_us_per_run(self) -> float:
        """Mean simulated us per run over the distinct (program, input)
        pairs: the op mix of whole cycles, and exact for a given seed."""
        return statistics.fmean(self.sim_us[key] for key in sorted(self.sim_us))


class Workload:
    """A closed loop of ops over a fixed corpus, run in whole cycles: one
    cycle runs every (program, input variant) pair once, so the op mix
    does not depend on how many cycles fit in the run."""

    name = ""
    #: the traced run's attribution ladder, where the workload has one
    ladder = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.checker = Checker()
        self.op_id = 0
        self.store_hits = 0
        self.store_misses = 0
        #: execution-service totals (serve-burst only)
        self.service = defaultdict(float)
        self.spool_bytes = 0
        self.jobs_spooled = 0

    def op(self, tally: Tally, case, k: int, call, tracer=None, oracle=True):
        """Run one timed op and check it; returns its wall seconds, or
        None when it failed."""
        v = case.variants[k]
        inputs = v.fresh_inputs()
        self.op_id += 1
        tally.attempted += 1
        if tracer is not None:
            tracer.op = self.op_id
        span = tracer.span("bench.op") if tracer is not None else nullcontext()
        try:
            t0 = time.perf_counter()
            with span:
                result = call(inputs, v.run_seed)
            dt = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 — counted and logged
            tally.failed += 1
            log(f"op {self.op_id}: {case.name} variant {k} raised "
                f"{type(exc).__name__}: {exc}")
            return None
        if not self.checker.check(self.op_id, case, k, result, oracle):
            tally.failed += 1
            return None
        tally.busy_s += dt
        tally.record(case.name, dt * 1e3)
        tally.absorb(result)
        return dt

    def timed_cycle(self, tally: Tally, tracer=None) -> None:
        before = tally.busy_s
        self.cycle(tally, tracer)
        tally.cycle_s.append(tally.busy_s - before)

    def rounds(self):
        """(index, case, variant) of one cycle: every (program, input
        variant) pair once, round-robin over programs."""
        n_rounds = max(len(c.variants) for c in self.cases)
        for r in range(n_rounds):
            for i, case in enumerate(self.cases):
                if r < len(case.variants):
                    yield i, case, r

    def close(self) -> None:
        pass


class PaperWarm(Workload):
    """One caller, warm compile store: each op is one UCProgram.run."""

    name = "paper-warm"

    def setup(self, prime: Tally) -> None:
        self.cases = corpus.corpus(self.seed, corpus.WARM_SIZES)
        self.programs = [
            UCProgram(c.source, defines=c.defines, **c.flags) for c in self.cases
        ]
        # priming: every program and input runs once, so compiled plans,
        # fused kernels and frontier analyses are all built before timing
        self.cycle(prime)

    def cycle(self, tally: Tally, tracer=None) -> None:
        h0, m0 = store_counts(default_store())
        for i, case, k in self.rounds():
            prog = self.programs[i]
            self.op(tally, case, k,
                    lambda inputs, seed: prog.run(inputs, seed=seed), tracer)
        h1, m1 = store_counts(default_store())
        self.store_hits += h1 - h0
        self.store_misses += m1 - m0

    def ladder(self, seconds: float, tally: Tally) -> dict:
        """attrib.<rung>: geomean over programs of the rung below's median
        op time over this rung's, runs interleaved ABAB across rungs."""
        progs = {
            rung: [UCProgram(c.source, defines=c.defines, **c.flags, **flags)
                   for c in self.cases]
            for rung, flags in RUNGS
        }
        times = defaultdict(list)

        def one_pass(order, record: bool) -> None:
            for rung, _ in order:
                for i, case in enumerate(self.cases):
                    k = len(times[rung, case.name]) % len(case.variants)
                    prog = progs[rung][i]
                    dt = self.op(tally, case, k,
                                 lambda inputs, seed: prog.run(inputs, seed=seed),
                                 oracle=False)
                    if dt is not None and record:
                        times[rung, case.name].append(dt)

        one_pass(RUNGS, record=False)  # build every rung's compiled forms
        t_end = time.perf_counter() + seconds
        rep = 0
        while rep < 2 or time.perf_counter() < t_end:
            one_pass(RUNGS if rep % 2 == 0 else RUNGS[::-1], record=True)
            rep += 1
        out = {}
        for (below, _), (rung, _) in zip(RUNGS, RUNGS[1:]):
            logs = [
                math.log(statistics.median(times[below, c.name])
                         / statistics.median(times[rung, c.name]))
                for c in self.cases
            ]
            out["attrib." + rung] = math.exp(statistics.fmean(logs))
        return out


class CliCold(Workload):
    """What a `repro run` pays beyond the import: a fresh compile store,
    UCProgram built from source text, one run."""

    name = "cli-cold"

    def setup(self, prime: Tally) -> None:
        self.cases = (corpus.corpus(self.seed, corpus.COLD_SIZES)
                      + corpus.examples(ROOT, self.seed))
        # priming: one op per program (nothing compiled survives an op;
        # this warms the interpreter's own imports and allocator)
        for case in self.cases:
            self.op(prime, case, 0, self._call(case))

    def _call(self, case):
        def call(inputs, seed):
            store = CompileStore()
            result = UCProgram(
                case.source, defines=case.defines, compile_store=store,
                **case.flags,
            ).run(inputs, seed=seed)
            hits, misses = store_counts(store)
            self.store_hits += hits
            self.store_misses += misses
            return result

        return call

    def cycle(self, tally: Tally, tracer=None) -> None:
        for _, case, k in self.rounds():
            self.op(tally, case, k, self._call(case), tracer)


class ServeBurst(Workload):
    """A jobs file submitted at once to ExecutionService with a spool
    directory (as `repro serve --spool` does), then drained.  One cycle
    is one burst; an op is one job."""

    name = "serve-burst"
    JOBS_PER_PROGRAM = 12
    WORKERS = 4

    def setup(self, prime: Tally) -> None:
        self.cases = corpus.serve_cases(self.seed, self.JOBS_PER_PROGRAM)
        for case in self.cases:
            # coalescing needs one seed per program; these programs do
            # not call rand(), so the inputs alone distinguish the jobs
            for v in case.variants:
                v.run_seed = case.variants[0].run_seed
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.bursts = 0
        self.cycle(prime)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another benchmark process is still using it

    def jobs(self):
        """(case, variant, JobSpec) in submission order: programs
        interleaved, every fourth input of each program with a deadline
        that never fires (which sends it down the solo path)."""
        out = []
        n = self.JOBS_PER_PROGRAM * len(self.cases)
        for j in range(n):
            case = self.cases[j % len(self.cases)]
            k = j // len(self.cases)
            v = case.variants[k]
            out.append((case, k, JobSpec(
                source=case.source,
                defines=case.defines,
                inputs=v.fresh_inputs(),
                tenant=TENANTS[(j + k) % len(TENANTS)],
                seed=v.run_seed,
                deadline=Deadline(wall_s=3600.0) if k % 4 == 3 else None,
            )))
        return out

    def cycle(self, tally: Tally, tracer=None, coalesce: bool = True) -> float:
        """One burst; returns its wall seconds."""
        jobs = self.jobs()
        self.bursts += 1
        spool = self.tmp / f"burst-{self.bursts}"
        if tracer is not None:
            tracer.op = self.bursts
        span = tracer.span("bench.burst") if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        with span:
            svc = ExecutionService(ServiceConfig(
                workers=self.WORKERS, spool_dir=str(spool), coalesce=coalesce,
            ))
            ids = [svc.submit(spec) for _, _, spec in jobs]
            results = svc.drain()
        wall = time.perf_counter() - t0
        svc.spool.close()
        self.spool_bytes += sum(
            f.stat().st_size for f in spool.rglob("*") if f.is_file()
        )
        self.jobs_spooled += len(jobs)
        shutil.rmtree(spool)
        tally.busy_s += wall
        hits, misses = store_counts(svc.store)
        self.store_hits += hits
        self.store_misses += misses
        for key in ("batches", "coalesced_lanes", "done"):
            self.service[key] += svc.stats[key]
        for (case, k, _), job_id in zip(jobs, ids):
            self.op_id += 1
            tally.attempted += 1
            res = results.get(job_id)
            if res is None or not res.ok:
                tally.failed += 1
                log(f"op {self.op_id}: job {job_id} ({case.name} variant {k}) "
                    f"ended {res.state if res else 'lost'}: "
                    f"{res.error if res else ''}")
                continue
            if not self.checker.check(self.op_id, case, k, res.run):
                tally.failed += 1
                continue
            tally.record(case.name, res.wall_s * 1e3)
            tally.absorb(res.run)
            self.service["latency_s"] += res.wall_s
            self.service["job_wall_s"] += res.run.compile["execute_s"]
        return wall

    def ladder(self, seconds: float, tally: Tally) -> dict:
        """attrib.coalesce: geomean of burst wall with coalescing off over
        on, bursts interleaved ABAB."""
        logs = []
        t_end = time.perf_counter() + seconds
        while len(logs) < 2 or time.perf_counter() < t_end:
            first = len(logs) % 2 == 0
            a = self.cycle(tally, coalesce=not first)
            b = self.cycle(tally, coalesce=first)
            off, on = (a, b) if first else (b, a)
            logs.append(math.log(off / on))
        return {"attrib.coalesce": math.exp(statistics.fmean(logs))}


WORKLOADS = {w.name: w for w in (PaperWarm, CliCold, ServeBurst)}


def run_for(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` have passed (whole cycles only)."""
    t_end = time.perf_counter() + seconds
    step()
    while time.perf_counter() < t_end:
        step()


def percentile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl: Workload, tally: Tally, setup_s: float, rss_mb: float,
               attempted: int, failed: int) -> dict:
    """End-to-end metrics; ``attempted``/``failed`` count every checked op
    of the process, oracle mismatches included."""
    medians = [statistics.median(v) for v in tally.by_program.values()]
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (tally.runs_per_s(), "1/s"),
        "run_ms_p50": (statistics.median(tally.op_ms), "ms"),
        "run_ms_p90": (percentile_ms(tally.op_ms, 90), "ms"),
        "run_ms_geomean": (
            math.exp(statistics.fmean(math.log(m) for m in medians)), "ms"),
        "sim_us_per_run": (wl.checker.sim_us_per_run(), "sim_us"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl: Workload, tally: Tally, plain: Tally, prime: Tally,
              tracer: Tracer, attrib: dict) -> dict:
    """Per-layer metrics of a traced run.  Counters and build times cover
    every run of the process, the priming runs included; layers a
    workload does not exercise report 0 (e.g. service.* on paper-warm)."""
    s = defaultdict(float)
    for t in (tally, plain, prime):
        for key, val in t.sums.items():
            s[key] += val
    runs = max(tally.runs + plain.runs + prime.runs, 1)

    def mean_ms(name):
        d = tracer.durations(name)
        return 1e3 * statistics.fmean(d) if d else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "lang.parse_ms": (mean_ms("lang.parse"), "ms"),
        "lang.analyze_ms": (mean_ms("lang.analyze"), "ms"),
        "mapping.layouts_ms": (mean_ms("mapping.layouts"), "ms"),
        "mapping.placement_ms": (mean_ms("mapping.placement"), "ms"),
        "interp.plan_build_ms": (1e3 * s["plan_s"] / runs, "ms"),
        "interp.fuse_build_ms": (1e3 * s["fuse_s"] / runs, "ms"),
        "interp.frontier_build_ms": (1e3 * s["frontier_s"] / runs, "ms"),
        "interp.prepare_ms": (mean_ms("interp.prepare"), "ms"),
        "interp.execute_ms": (1e3 * s["execute_s"] / runs, "ms"),
        "interp.host_ns_per_charge": (1e9 * ratio(s["execute_s"], s["charges"]), "ns"),
        "interp.fused_construct_frac": (
            ratio(s["fused"], s["fused"] + s["unfusable"]), "frac"),
        "interp.frontier_active_frac": (
            ratio(s["active_lanes"], s["domain_lanes"]), "frac"),
        "interp.store_hit_frac": (
            ratio(wl.store_hits, wl.store_hits + wl.store_misses), "frac"),
    }
    for name in PROGRAMS:
        times = plain.by_program.get(name)
        out[f"program.{name}.run_ms"] = (statistics.median(times) if times else 0.0, "ms")
    for kind in KINDS:
        out[f"machine.count.{kind}"] = (s["count." + kind] / runs, "count")
        out[f"machine.sim_us.{kind}"] = (s["sim_us." + kind] / runs, "sim_us")
    out["machine.shards.intershard_bytes"] = (s["intershard_bytes"] / runs, "B")
    out["machine.shards.reductions_ordered_frac"] = (ratio(
        s["reductions_ordered"],
        s["reductions_ordered"] + s["reductions_precombined"]), "frac")
    svc = wl.service
    done = svc["done"]
    out.update({
        "service.submit_ms": (mean_ms("service.submit"), "ms"),
        "service.step_ms": (mean_ms("service.step"), "ms"),
        "service.queue_ms": (
            1e3 * ratio(svc["latency_s"] - svc["job_wall_s"], done), "ms"),
        "service.job_wall_ms": (1e3 * ratio(svc["job_wall_s"], done), "ms"),
        "service.coalesced_frac": (ratio(svc["coalesced_lanes"], done), "frac"),
        "service.lanes_per_batch": (
            ratio(svc["coalesced_lanes"], svc["batches"]), "lanes"),
        "service.spool_bytes_per_job": (
            ratio(wl.spool_bytes, wl.jobs_spooled), "B"),
    })
    for rung in ("plans", "comm_tiers", "frontier", "fusion", "coalesce"):
        out["attrib." + rung] = (attrib.get("attrib." + rung, 0.0), "x")
    ops = max(len(tally.op_ms), 1)
    self_s = tracer.self_seconds(skip_op=0)
    for layer in ("bench", "lang", "mapping", "interp", "service"):
        out[f"self.{layer}_ms"] = (1e3 * self_s.get(layer, 0.0) / ops, "ms")
    traced_rps, plain_rps = tally.runs_per_s(), plain.runs_per_s()
    out["trace.traced_runs_per_s"] = (traced_rps, "1/s")
    out["trace.untraced_runs_per_s"] = (plain_rps, "1/s")
    out["trace.overhead_frac"] = (1.0 - traced_rps / plain_rps, "frac")
    out["trace.spans"] = (float(len(tracer.spans)), "count")
    return out


def traced_run(wl: Workload, seconds: float, tracer: Tracer):
    """Alternate traced and untraced cycles (so drift hits both), then
    run the attribution ladder; returns the tallies and ladder figures."""
    traced, plain, ablation = Tally(), Tally(), Tally()
    alternate_s = seconds * (2 / 3 if wl.ladder is not None else 1.0)
    cycles = [0]

    def one_cycle():
        if cycles[0] % 2 == 0:
            tracer.install()
            try:
                wl.timed_cycle(traced, tracer)
            finally:
                tracer.uninstall()
        else:
            wl.timed_cycle(plain)
        cycles[0] += 1

    run_for(alternate_s, one_cycle)
    if cycles[0] % 2:
        one_cycle()
    attrib = {}
    if wl.ladder is not None:
        attrib = wl.ladder(seconds - alternate_s, ablation)
    return traced, plain, ablation, attrib


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report setup_s alone")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    prime = Tally()
    try:
        if args.trace:
            # set-up spans keep op id 0: compile work done once per
            # process (all of it, on paper-warm) still shows per layer
            tracer.install()
        try:
            wl.setup(prime)
        finally:
            tracer.uninstall()
        setup_s = time.perf_counter() - T_START - wl.checker.seconds
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            tally, plain, ablation, attrib = traced_run(wl, args.seconds, tracer)
        else:
            tally, plain, ablation = Tally(), Tally(), Tally()
            run_for(args.seconds, lambda: wl.timed_cycle(tally))
        # peak memory of the workload itself, before the oracle re-runs
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tallies = (prime, tally, plain, ablation)
        failed = sum(t.failed for t in tallies) + wl.checker.oracle()
        attempted = sum(t.attempted for t in tallies)
        if args.trace:
            metrics = per_layer(wl, tally, plain, prime, tracer, attrib)
            tracer.write(ROOT / ".perfbench_out"
                         / f"trace-{wl.name}-seed{args.seed}.json")
        else:
            metrics = end_to_end(wl, tally, setup_s, rss_mb, attempted, failed)
    finally:
        wl.close()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
