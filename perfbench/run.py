"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 10 --trace 0

Each measurement runs in a fresh process (``perfbench/workload.py``) so
warm-up and peak memory never carry from one workload to the next.
Without tracing, set-up time is sampled in SETUP_PROBES more fresh
processes that stop after set-up, and ``setup_s`` reports the median of
all samples.  The last line of standard output is the JSON result; a
missing program or a failed child exits non-zero without one.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: extra set-up samples per measured run (setup_s is their median with
#: the measured process's own)
SETUP_PROBES = 2
#: every child must finish inside this many seconds in total
DEADLINE_S = 170.0


def child(args, deadline: float) -> dict:
    """Run workload.py with ``args``; its last stdout line, parsed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("benchmark ran out of time before all processes ran")
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper-warm", "cli-cold", "serve-burst"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace:
        result = child(common + ["--trace", "1"], deadline)
    else:
        setups = [child(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = child(common + ["--trace", "0"], deadline)
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
