"""One workload in one process: set up, run the timed phases, check.

Started by run.py with BLAS and OpenMP pinned to one thread in the
environment, before numpy is imported. After the set-up it runs whole rounds
of the workload's pipeline, each with its own seed derived from ``--seed``,
for as long as the next round still fits in ``--seconds`` (always at least
one round). Prints one JSON object as the last line of standard output, with
the phase times of every round. With ``--setup-only`` it times the set-up
alone.

Every time is CPU time of this process (``time.process_time``), divided by
the machine's slowdown that ``speed.Speedometer`` reads between timed
blocks. The process has one thread, so on an idle machine CPU time equals
wall time; unlike wall time it leaves out the time the CPU spends on other
processes and, under a hypervisor that reports steal time, on other guests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from speed import Speedometer, clock

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
ROUND_SEED_STRIDE = 100_000  # round r runs with seed + r * stride


class Run:
    """Phase timers, checks and a digest of the program's outputs."""

    def __init__(self, out_dir, tag, meter):
        self.seconds = defaultdict(float)  # CPU time over the slowdown
        self.cpu = defaultdict(float)  # CPU time as measured
        self._meter = meter
        self.checks = []  # (name, passed, detail)
        self.attempted = 0
        self.failed = 0
        self.draws = 0
        self._digest = hashlib.sha256()
        self._out_dir, self._tag = out_dir, tag
        self.written = []  # paths, removed when the run ends

    @contextmanager
    def timed(self, phase):
        before = self._meter.slowdown()
        t0 = clock()
        try:
            yield
        finally:
            dt = clock() - t0
            self.cpu[phase] += dt
            self.seconds[phase] += dt / ((before + self._meter.slowdown()) / 2)

    def call(self, phase, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` as one timed block of ``phase``."""
        with self.timed(phase):
            return fn(*args, **kwargs)

    def check(self, name, passed, detail=""):
        """One operation whose output is compared with an independent answer."""
        self.attempted += 1
        self.verify(name, passed, detail)

    def verify(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    def attempt(self, name, error, fn, *args):
        """One operation that may raise ``error``; returns None when it does."""
        self.attempted += 1
        try:
            return fn(*args)
        except error as e:
            self.failed += 1
            self.checks.append((name, None, f"failed: {e}"))
            return None

    def record(self, *outputs):
        """Add texts, arrays or lists of numbers to the digest."""
        for x in outputs:
            self._digest.update(x.encode() if isinstance(x, str) else repr(x).encode()
                                if isinstance(x, list) else x.tobytes())

    def write(self, name, text):
        path = os.path.join(self._out_dir, f"{self._tag}-{name}")
        self.written.append(path)
        with open(path, "w") as fh:
            fh.write(text)

    def read(self, name):
        with open(os.path.join(self._out_dir, f"{self._tag}-{name}")) as fh:
            return fh.read()

    def digest(self):
        return self._digest.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="start another round while it is expected to end within this many seconds")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.begin("import.otpost")
    t0 = clock()
    sys.path.insert(0, SRC)
    import otpost

    import_s = clock() - t0
    if tracer is not None:
        tracer.end()
        tracer.install()
    if not os.path.abspath(otpost.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"otpost was imported from {otpost.__file__}, not from {SRC}")

    import pipelines

    setup, run_workload = pipelines.WORKLOADS[args.workload]
    t0 = clock()
    state = setup()
    setup_cpu = import_s + clock() - t0
    meter = Speedometer()
    setup_s = setup_cpu / meter.slowdown()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tag = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}-{os.getpid()}"
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        run = Run(args.out_dir, f"{tag}-{len(rounds)}", meter)
        try:
            run_workload(run, state, args.seed + len(rounds) * ROUND_SEED_STRIDE)
        finally:
            # the maps are megabytes each and only read back within the round
            for path in run.written:
                os.remove(path)
        rounds.append(run)
        if len(rounds) == 1:
            # later rounds reuse memory the allocator kept, so the peak of the
            # first round is the workload's own
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break
    out = {
        "setup_s": setup_s,
        "rounds": [dict(r.seconds) for r in rounds],
        "cpu_rounds": [dict(r.cpu) for r in rounds],
        "slowdown": meter.readings,
        "draws": rounds[0].draws,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "checks": [c for r in rounds for c in r.checks],
        "digest": hashlib.sha256("".join(r.digest() for r in rounds).encode()).hexdigest(),
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        path = os.path.join(args.out_dir, f"{tag}-trace.jsonl")
        tracer.write(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
