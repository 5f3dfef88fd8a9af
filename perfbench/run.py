"""otpost benchmark: one acceptance pipeline per workload, timed by phase.

    python3 perfbench/run.py --workload mixture --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Each workload runs in its own process
(workload.py) with BLAS and OpenMP pinned to one thread. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload once plainly
and once traced, checks that both give bit-identical outputs and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

A run of ``--trace 0`` repeats whole rounds of the pipeline, each round the
same operations with its own seed, while the next round is expected to end
within ``--seconds`` (at least one round). Each phase metric is the median
over the rounds. Times are CPU seconds of the single-threaded workload
process, so that time the machine gives to other processes or guests does
not count, divided by the machine's slowdown against a fixed reference
computation (speed.py), so that much of a slowdown of the CPU itself does
not count either.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ("mixture", "logistic", "gmm")
SETUP_PROBES = 2  # extra processes that only set up; setup_s is the median
DEADLINE = time.monotonic() + 170  # the whole run ends within 180 s


def _child(workload, seed, trace=0, setup_only=False, seconds=0):
    env = dict(os.environ, OTPOST_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", OUT_DIR, "--trace", str(trace),
           "--seconds", str(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _correct(res):
    bad = [c for c in res["checks"] if c[1] is False]
    for name, _, detail in bad:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    return not bad


def end_to_end(workload, seed, seconds):
    setups = [_child(workload, seed, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _child(workload, seed, seconds=seconds)
    rounds = res["rounds"]
    slow = res["slowdown"]
    print(f"{len(rounds)} rounds of " + ", ".join(f"{sum(r.values()):.3f}" for r in res["cpu_rounds"])
          + f" CPU seconds; machine slowdown median {statistics.median(slow):.3f}, "
          f"{min(slow):.3f} to {max(slow):.3f} over {len(slow)} readings", file=sys.stderr)
    setup_s = statistics.median(setups + [res["setup_s"]])

    def med(phase):
        return statistics.median(r[phase] for r in rounds)

    values = {
        "setup_s": (setup_s, "s"),
        "fit_s": (med("fit"), "s"),
        "draws_per_s": (statistics.median(res["draws"] / r["draws"] for r in rounds), "1/s"),
        "infer_s": (med("infer"), "s"),
        "eval_s": (med("eval"), "s"),
        "total_s": (setup_s + statistics.median(sum(r.values()) for r in rounds), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return res, {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload, seed):
    plain = _child(workload, seed)
    res = _child(workload, seed, trace=1)
    same = plain["digest"] == res["digest"]
    print(f"traced vs plain outputs: {'bit-identical' if same else 'DIFFER'}", file=sys.stderr)
    res["checks"].append(["traced run outputs equal plain run", same, ""])
    values = dict(res["per_layer"])
    values["trace.overhead_s"] = (res["setup_s"] + sum(res["rounds"][0].values())
                                  - plain["setup_s"] - sum(plain["rounds"][0].values()))
    return res, {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "otpost", "__init__.py")):
        print(f"no otpost sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        res, metrics = per_layer(args.workload, args.seed)
    else:
        res, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for name, detail in ((c[0], c[2]) for c in res["checks"] if c[1] is None):
        print(f"operation failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": _correct(res),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
