"""Programs, seeded inputs and independent references for the benchmark.

Every workload draws its programs from here.  A :class:`Case` is one
program at one size with a small pool of seeded input *variants*; a
variant is what one op runs.  Each case carries a checker that compares
a run's values with a reference computed without the UC interpreter
(``repro.algorithms`` or plain numpy), so a wrong answer is caught by
code the engines under test do not share.

Input generation depends only on the seed passed in: the same seed
gives the same programs, inputs and run seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.grid_path import BIG, grid_reference_distances
from repro.algorithms.shortest_path import (
    floyd_warshall,
    min_plus_power,
    random_distance_matrix,
)
from repro.algorithms.wavefront import wavefront_matrix
from repro.bench import workloads as W

#: "no edge" in the clique+chain APSP input (min-plus keeps it unreached)
NO_EDGE = 10**9

#: input variants per case: enough that ops do not replay one input,
#: few enough that the tree-walking oracle can check every one of them
VARIANTS = 4

Inputs = Optional[Dict[str, np.ndarray]]
#: (result, variant, defines) -> None when correct, else a message
Checker = Callable[[Any, "Variant", Dict[str, int]], Optional[str]]


@dataclass
class Variant:
    inputs: Inputs
    run_seed: int
    #: references computed once per variant (see :meth:`memo`)
    refs: Dict[str, Any] = field(default_factory=dict, repr=False)

    def memo(self, key: str, compute: Callable[[], Any]) -> Any:
        if key not in self.refs:
            self.refs[key] = compute()
        return self.refs[key]

    def fresh_inputs(self) -> Inputs:
        """A private copy: the program must never see another op's arrays."""
        if self.inputs is None:
            return None
        return {k: v.copy() for k, v in self.inputs.items()}


@dataclass
class Case:
    name: str
    source: str
    defines: Dict[str, int]
    check: Checker
    variants: List[Variant]
    #: extra UCProgram keyword arguments (``shards``)
    flags: Dict[str, Any] = field(default_factory=dict)


def _equal(name: str, got, want) -> Optional[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != reference {want.shape}"
    if not np.array_equal(got, want):
        bad = int(np.count_nonzero(got != want))
        return f"{name}: {bad} of {want.size} elements differ from the reference"
    return None


# -- input generators ----------------------------------------------------------


def clique_chain(n: int, rng: np.random.Generator) -> np.ndarray:
    """Two disconnected communities: a dense clique that is closed under
    min-plus after one sweep and a unit chain whose long paths keep a
    few lanes changing.  Frontier compression fires on this input and
    not on a dense random matrix."""
    chain = min(int(rng.integers(8, 14)), n - 1)
    d = np.full((n, n), NO_EDGE, dtype=np.int64)
    d[chain:, chain:] = int(rng.integers(2, 5))
    np.fill_diagonal(d, 0)
    for v in range(chain - 1):
        d[v, v + 1] = d[v + 1, v] = 1
    return d


def apsp_input(n: int, rng: np.random.Generator, k: int) -> np.ndarray:
    """Variant k alternates dense random matrices and clique+chain graphs."""
    if k % 2 == 0:
        return random_distance_matrix(n, seed=int(rng.integers(2**31)))
    return clique_chain(n, rng)


def distinct_ints(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(10 * n, size=n, replace=False).astype(np.int64)


# -- checkers ------------------------------------------------------------------


def check_apsp_closure(var: str) -> Checker:
    def check(result, v, defines):
        want = v.memo(var, lambda: floyd_warshall(v.inputs[var]))
        return _equal(var, result[var], want)

    return check


def check_apsp_n3(result, v, defines):
    want = v.memo(
        "d", lambda: min_plus_power(v.inputs["d"], squarings=defines["LOGN"])
    )
    return _equal("d", result["d"], want)


def _wavefront(n: int) -> np.ndarray:
    # the recurrence overflows int64 past n ~ 28; the reference wraps
    # exactly as the machine's 64-bit ints do
    with np.errstate(over="ignore"):
        return wavefront_matrix(n)


def check_wavefront(result, v, defines):
    want = v.memo("a", lambda: _wavefront(defines["N"]))
    return _equal("a", result["a"], want)


def check_obstacle(result, v, defines):
    want = v.memo("a", lambda: grid_reference_distances(defines["R"]))
    return _equal("a", result["a"], want)


def check_sorted(var: str) -> Checker:
    def check(result, v, defines):
        return _equal(var, result[var], np.sort(v.inputs[var]))

    return check


def check_matmul(result, v, defines):
    return _equal("c", result["c"], v.inputs["a"] @ v.inputs["b"])


def check_self_init_apsp(result, v, defines):
    """examples/uc/apsp.uc draws its own matrix with rand(): the value
    check is that the result is a shortest-path closure (a fixed point
    of Floyd-Warshall with a zero diagonal); the oracle fingerprint
    check covers the exact values."""
    d = np.asarray(result["d"])
    if np.any(np.diag(d) != 0) or np.any(d < 0):
        return "d: not a distance matrix"
    return _equal("d", d, floyd_warshall(d))


def check_histogram(result, v, defines):
    samples = np.asarray(result["samples"])
    if samples.min() < 0 or samples.max() > 9:
        return "samples: outside 0..9"
    return _equal("count", result["count"], np.bincount(samples, minlength=10))


def check_shifted(result, v, defines):
    b = np.arange(64)
    a = np.zeros(64, dtype=np.int64)
    a[:63] += b[1:]
    return _equal("b", result["b"], b) or _equal("a", result["a"], a)


# -- corpora -------------------------------------------------------------------


def _make_case(rng, name, source, defines, check, make_inputs=None,
               flags=None, variants=VARIANTS):
    """A case with ``variants`` seeded variants (one when it takes no input)."""
    count = variants if make_inputs is not None else 1
    variants = [
        Variant(
            make_inputs(rng, k) if make_inputs is not None else None,
            int(rng.integers(1, 2**31)),
        )
        for k in range(count)
    ]
    return Case(name, source, dict(defines), check, variants, dict(flags or {}))


def corpus(seed: int, sizes: Dict[str, int], variants: int = VARIANTS) -> List[Case]:
    """The paper corpus of ``repro.bench.workloads`` at the given sizes.

    ``sizes`` maps apsp / wavefront / obstacle / oddeven / ranksort /
    matmul to N (R for the obstacle grid); programs that take inputs get
    ``variants`` seeded input variants.
    """
    rng = np.random.default_rng([seed, 1])
    n = sizes["apsp"]
    logn = W.log2_ceil(n)

    def _case(*args, **kwargs):
        return _make_case(rng, *args, variants=variants, **kwargs)

    return [
        _case("apsp-n2", W.APSP_N2_UC, {"N": n}, check_apsp_closure("d"),
              lambda r, k: {"d": apsp_input(n, r, k)}),
        _case("apsp-n3", W.APSP_N3_UC, {"N": n, "LOGN": logn}, check_apsp_n3,
              lambda r, k: {"d": apsp_input(n, r, k)}),
        _case("apsp-solve", W.APSP_SOLVE_UC, {"N": n},
              check_apsp_closure("dist"),
              lambda r, k: {"dist": apsp_input(n, r, k)}),
        _case("apsp-n3-shards4", W.APSP_N3_UC, {"N": n, "LOGN": logn},
              check_apsp_n3, lambda r, k: {"d": apsp_input(n, r, k)},
              flags={"shards": 4}),
        _case("wavefront", W.WAVEFRONT_UC, {"N": sizes["wavefront"]},
              check_wavefront),
        _case("obstacle", W.OBSTACLE_UC, {"R": sizes["obstacle"], "WALL": BIG},
              check_obstacle),
        _case("oddeven", W.ODDEVEN_UC, {"N": sizes["oddeven"]},
              check_sorted("x"),
              lambda r, k: {"x": distinct_ints(sizes["oddeven"], r)}),
        _case("ranksort", W.RANKSORT_UC, {"N": sizes["ranksort"]},
              check_sorted("a"),
              lambda r, k: {"a": distinct_ints(sizes["ranksort"], r)}),
        _case("matmul", W.MATMUL_UC, {"N": sizes["matmul"]}, check_matmul,
              lambda r, k: {
                  "a": r.integers(0, 10, (sizes["matmul"],) * 2),
                  "b": r.integers(0, 10, (sizes["matmul"],) * 2),
              }),
    ]


def examples(root: Path, seed: int) -> List[Case]:
    """The shipped ``examples/uc`` programs (they draw their data with
    rand(), so each variant is a distinct run seed)."""
    rng = np.random.default_rng([seed, 2])
    uc = root / "examples" / "uc"
    cases = [
        ("ex-apsp", "apsp.uc", {"N": 16}, check_self_init_apsp),
        ("ex-histogram", "histogram.uc", {"N": 16}, check_histogram),
        ("ex-shifted", "shifted.uc", {}, check_shifted),
    ]
    return [
        Case(name, (uc / fname).read_text(), defines, check,
             [Variant(None, int(rng.integers(1, 2**31))) for _ in range(VARIANTS)])
        for name, fname, defines, check in cases
    ]


#: paper-warm: the sizes the paper's figures are drawn at, scaled to run
#: in tens of milliseconds each
WARM_SIZES = {"apsp": 64, "wavefront": 48, "obstacle": 32, "oddeven": 64,
              "ranksort": 256, "matmul": 32}
#: cli-cold: example sizes (N <= 16), where compile cost is a large share
COLD_SIZES = {"apsp": 16, "wavefront": 16, "obstacle": 16, "oddeven": 16,
              "ranksort": 16, "matmul": 16}
#: serve-burst job programs: small, batchable, with distinct inputs
SERVE_SIZES = {"apsp": 32, "wavefront": 8, "obstacle": 8, "oddeven": 64,
               "ranksort": 128, "matmul": 32}
SERVE_PROGRAMS = ("apsp-solve", "oddeven", "ranksort", "matmul")


def serve_cases(seed: int, jobs_per_program: int) -> List[Case]:
    """serve-burst programs, each with ``jobs_per_program`` distinct inputs."""
    cases = corpus(seed, SERVE_SIZES, variants=jobs_per_program)
    return [c for c in cases if c.name in SERVE_PROGRAMS]


def input_digest(cases: List[Case]) -> Tuple:
    """A hashable summary of every generated input (for determinism tests)."""
    out = []
    for case in cases:
        for v in case.variants:
            arrays = tuple(
                (k, a.tobytes()) for k, a in sorted((v.inputs or {}).items())
            )
            out.append((case.name, tuple(sorted(case.defines.items())),
                        arrays, v.run_seed))
    return tuple(out)
