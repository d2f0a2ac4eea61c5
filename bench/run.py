#!/usr/bin/env python3
"""twohom benchmark: one seeded workload per run, every metric by name.

    python3 bench/run.py --workload derive-z --seed 1 --seconds 12 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
workload is a closed loop with one client (one process, no threads): the
next query starts when the previous answer is back.  Only the library call
is timed; every answer is checked by an oracle outside the timed region.

Times are scaled to a reference machine speed measured by a probe run
around every query (see ``at_reference_speed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a plan of
half as many cycles twice, untraced and then traced, checks that both give
the same answer digest, and prints the per-layer metrics (spans around each
layer's public functions, timed from this directory; nothing under ``src/``
changes).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people, with the tail percentile, the answer digest and the run
metadata.  A traced run also writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# How many seconds of ``--seconds`` one cycle is worth: ``--seconds S`` buys
# round(S / cycle) whole cycles, so a plan depends only on the arguments,
# never on how fast the code under test is.  Chosen on the reference machine
# (2 vCPU x86-64, Python 3.11) so that one pass, oracle checks included,
# takes about S seconds at reference speed (see ``probe``).  A traced run
# splits the cycles between its untraced and traced passes.
CYCLE_SECONDS = {
    "derive-z": 0.5,
    "derive-zmod": 0.8,
    "snf-dense": 0.32,
    "cli-small": 0.3,
}
MIN_CYCLES = 2
SETUP_REPEATS = 7
TAIL_BEYOND = 10            # samples at least, beyond the reported tail
TAIL_LEVELS = (50, 75, 90)  # p95 and above spread 0.10 to 0.15 across seeds
                            # on derive-z, p90 0.04 to 0.08 (bench/README.md)
TIME_LIMIT_S = 140          # start no query after this, so a run ends within 180 s
QUERY_LIMIT_S = 20          # stop a query still running after this; it fails
REFERENCE_PROBE_S = 0.4e-3  # probe() on the reference machine when it is quiet

WORKLOADS = {
    "derive-z": workloads.Derive(None, 6),
    "derive-zmod": workloads.Derive(12, 4),
    "snf-dense": workloads.SnfDense(),
    "cli-small": workloads.CliSmall(),
}

END_TO_END = [
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("setup_s", "s"),
    ("max_entry_bits", "bits"),
]

# Per-layer metrics: (name, unit, better).
_SPANS = [
    "exactlin.snf", "exactlin.hnf", "exactlin.solve_many",
    "exactlin.kernel_basis",
    "fpmod.kernel", "fpmod.column_basis", "fpmod.factor_through",
    "fpmod.invariant_factors", "fpmod.is_valid_mor", "fpmod.equal_mor",
    "twomod.relative_kernel", "twomod.relative_cokernel", "twomod.pi_profile",
    "twomod.is_extension", "twomod.check_relative_two_exact",
    "complex2.homology", "complex2.induced",
    "resolution.resolve", "resolution.horseshoe", "resolution.lift_through",
    "derived.apply", "derived.long_sequence", "derived.check_long_sequence",
    "cli.load", "cli.emit",
]
PER_LAYER = (
    [(f"{s}.{m}", u, "lower") for s in _SPANS
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("exactlin.snf.cells", "count", "lower"),
        ("exactlin.snf.cache_hit_ratio", "ratio", "higher"),
        ("exactlin.snf.max_out_bits", "bits", "lower"),
        ("exactlin.solve_many.none_ratio", "ratio", "lower"),
        ("exactlin.kernel_basis.max_out_bits", "bits", "lower"),
        ("exactlin.zmod_lift.calls", "count", "lower"),
        ("complex2.homology.memo_hit_ratio", "ratio", "higher"),
        ("resolution.resolve.max_diff_bits", "bits", "lower"),
        ("derived.find_null_homotopy.calls", "count", "lower"),
        ("cli.stdout_bytes", "bytes", "lower"),
        ("setup.import_s", "s", "lower"),
        ("setup.generate_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def probe() -> float:
    """Seconds for a fixed piece of pure-Python work (no twohom code) in the
    style of the library's: int arithmetic, small object-dtype numpy
    products, lists and dicts; about 0.4 ms on the reference machine."""
    import numpy as np

    t = perf_counter()
    a = np.array([[i * j + 1 for j in range(6)] for i in range(6)], dtype=object)
    x = 1
    for i in range(1500):
        x = (x * 1103515245 + i) % (1 << 61)
    for _ in range(5):
        a = a.dot(a) % 1000003
    d = {i: [i] * 3 for i in range(300)}
    del d
    return perf_counter() - t


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference machine's speed, using the probes
    run just before and just after the timed work.

    On a shared VM the CPU's speed drifts by up to 2x in phases of one to
    tens of seconds, uniformly over the code (process CPU time drifts with
    wall time, so it is not time lost to other processes).  Scaled times are what make
    runs at different moments comparable; bench/README.md gives the spreads
    with and without scaling."""
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_library():
    """Import twohom from this checkout's src/ (never from elsewhere)."""
    sys.path.insert(0, str(SRC))
    import twohom

    if Path(twohom.__file__).resolve().parent != SRC / "twohom":
        raise ImportError(f"twohom imported from {twohom.__file__}, not {SRC}")
    return twohom


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import twohom\n"
    "print(repr(time.perf_counter() - t))\n"
)


def time_import() -> float:
    """Seconds to import twohom (and numpy) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def generate(wl, seed: int, cycles: int, path: Path) -> list:
    if isinstance(wl, workloads.CliSmall):
        return wl.inputs(seed, cycles, path)
    return wl.inputs(seed, cycles)


def setup(wl, seed: int, cycles: int, path: Path):
    """Median import and input-generation times over SETUP_REPEATS tries,
    each scaled to reference speed."""
    imports, gens = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t = time_import()
        after = probe()
        imports.append(at_reference_speed(t, before, after))
        t = perf_counter()
        inputs = generate(wl, seed, cycles, path)
        t = perf_counter() - t
        before = probe()
        gens.append(at_reference_speed(t, after, before))
    return inputs, statistics.median(imports), statistics.median(gens)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def _feed(h, x) -> None:
    """Canonical, str-free hash encoding of ints, bools, lists and strings."""
    if isinstance(x, bool):
        h.update(b"T" if x else b"F")
    elif isinstance(x, int):
        h.update(b"i" + x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True))
    elif isinstance(x, str):
        b = x.encode()
        h.update(b"s" + len(b).to_bytes(4, "big") + b)
    elif isinstance(x, (list, tuple)):
        h.update(b"l" + len(x).to_bytes(4, "big"))
        for y in x:
            _feed(h, y)
    elif x is None:
        h.update(b"n")
    else:
        raise TypeError(f"cannot digest {type(x).__name__}")


class Pass:
    """One pass over the plan: per-query times, failures, digest, bits."""

    def __init__(self):
        self.times: list = []      # wall seconds of each query
        self.probes: list = []     # probe() before the first query and after each
        self.strata: list = []     # the stratum of each timed query
        self.bits: dict = {}       # stratum -> largest entry of each answer, in bits
        self.failed = 0
        self.digest = hashlib.sha256()
        self.stdout_bytes = 0
        self.errors: list = []

    def fail(self, k: int, why: str) -> None:
        self.failed += 1
        _feed(self.digest, ["failed", k])
        if len(self.errors) < 5:
            self.errors.append(f"query {k}: {why}")


class QueryTimeout(BaseException):
    """Raised in a query that runs past QUERY_LIMIT_S.  A BaseException, so
    that no ``except Exception`` inside the library swallows it."""


def _stop_query(signum, frame):
    raise QueryTimeout(f"no answer within {QUERY_LIMIT_S} s")


def measure(wl, inputs, tracer=None, deadline=None) -> Pass:
    """Run every query; time only the library call; check outside it.

    Some inputs make the coefficients explode (ROADMAP item 2), and one
    such query can run for minutes; QUERY_LIMIT_S stops it, and it counts
    as failed, so that the run still ends within its time limit."""
    previous = signal.signal(signal.SIGALRM, _stop_query)
    try:
        return _measure(wl, inputs, tracer, deadline)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _measure(wl, inputs, tracer, deadline) -> Pass:
    out = Pass()
    out.probes.append(probe())
    for k, raw in enumerate(inputs):
        if deadline is not None and perf_counter() > deadline:
            out.errors.append(f"time limit reached after {k} of {len(inputs)} queries")
            out.failed += len(inputs) - k
            break
        gc.collect()      # no query pays for collecting an earlier one's garbage
        with tracer.span("query") if tracer else nullcontext():
            t0 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
            try:
                answer = wl.query(raw)
            except (Exception, QueryTimeout) as exc:  # counted, not fatal
                answer = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out.times.append(perf_counter() - t0)
        out.probes.append(probe())
        out.strata.append(raw["stratum"])
        if isinstance(answer, (Exception, QueryTimeout)):
            out.fail(k, f"raised {answer!r}")
            continue
        if isinstance(wl, workloads.CliSmall):
            out.stdout_bytes += len(answer[1].encode())
        try:
            with tracer.pause() if tracer else nullcontext():
                ok, canon, bits = wl.check(raw, answer)
        except Exception as exc:
            out.fail(k, f"oracle raised {exc!r}")
            continue
        del answer
        if not ok:
            out.fail(k, "answer rejected by the oracle")
            continue
        _feed(out.digest, canon)
        out.bits.setdefault(raw["stratum"], []).append(bits)
    return out


def scaled_times(run: Pass) -> list:
    """Each query's time at reference speed (see ``at_reference_speed``)."""
    p = run.probes
    return [at_reference_speed(t, p[k], p[k + 1]) for k, t in enumerate(run.times)]


def tail(times):
    """(value, percentile, n): the highest of TAIL_LEVELS whose nearest-rank
    value has at least TAIL_BEYOND samples beyond it (else the median)."""
    s = sorted(times)
    n = len(s)
    level, rank = 50, max(1, math.ceil(n / 2))
    for p in TAIL_LEVELS:
        r = max(1, math.ceil(p * n / 100))
        if n - r >= TAIL_BEYOND:
            level, rank = p, r
    return s[rank - 1], level, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stratified_p50(strata, times) -> float:
    """Geometric mean over the strata (sizes or commands) of each stratum's
    median time.  The pooled median of a size mix falls between the sizes'
    clusters and jumps between them from seed to seed (cli-small: spread
    0.19 across seeds against 0.06 for this)."""
    by = {}
    for stratum, t in zip(strata, times):
        by.setdefault(stratum, []).append(t)
    return math.exp(statistics.mean(math.log(statistics.median(v))
                                    for v in by.values()))


def cycle_throughput(strata, times) -> float:
    """Median over the plan's cycles (one query of every stratum each) of
    the cycle's queries per second.  Every sample counts, but a single input
    whose coefficients explode slows one cycle only: on derive-zmod with
    sizes up to g = 20, where one query in a run took 94x the median, the
    plain queries-over-total-time spread 0.40 across six seeds, against 0.13
    for this.  If
    the slowest 5% of inputs got 10x slower, about half the cycles of 11
    to 13 queries would hold one, and this median would fall with them."""
    k = len(set(strata))
    cycles = [times[i:i + k] for i in range(0, len(times) - k + 1, k)] or [times]
    return statistics.median(len(c) / sum(c) for c in cycles)


def entry_bits(run: Pass) -> float:
    """Geometric mean over the strata of the mean, over a stratum's answers,
    of each answer's largest entry in bits; strata whose answers hold no
    integer but 0 (CLI verdicts) are left out.  Every answer counts, but
    the largest sizes, where coefficients explode, do not outweigh the
    rest: across ten seeds of snf-dense this spread 0.07, a plain mean over
    the answers 0.19, and the largest entry of the run 0.98."""
    means = [statistics.mean(v) for v in run.bits.values()]
    logs = [math.log(m) for m in means if m > 0]
    return math.exp(statistics.mean(logs)) if logs else 0.0


def end_to_end(run: Pass, setup_s: float) -> dict:
    """Times are at reference speed."""
    times = scaled_times(run)
    return {
        "query_p50_ms": stratified_p50(run.strata, times) * 1e3,
        "query_tail_ms": tail(times)[0] * 1e3,
        "throughput_qps": cycle_throughput(run.strata, times),
        "setup_s": setup_s,
        "max_entry_bits": entry_bits(run),
    }


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass,
              import_s: float, generate_s: float) -> dict:
    calls = tracer.calls()
    self_s = tracer.self_times()
    c = tracer.counters
    out = {}
    for name in _SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["complex2.homology.calls"] = c["complex2.homology.requests"]

    def ratio(num, den):
        return num / den if den else 0.0

    out.update({
        "exactlin.snf.cells": c["exactlin.snf.cells"],
        "exactlin.snf.cache_hit_ratio": ratio(c["exactlin.snf.cache_hits"],
                                              calls.get("exactlin.snf", 0)),
        "exactlin.snf.max_out_bits": tracer.maxes.get("exactlin.snf.max_out_bits", 0),
        "exactlin.solve_many.none_ratio": ratio(c["exactlin.solve_many.none"],
                                                calls.get("exactlin.solve_many", 0)),
        "exactlin.kernel_basis.max_out_bits":
            tracer.maxes.get("exactlin.kernel_basis.max_out_bits", 0),
        "exactlin.zmod_lift.calls": c["exactlin.zmod_lift.calls"],
        "complex2.homology.memo_hit_ratio": ratio(c["complex2.homology.memo_hits"],
                                                  c["complex2.homology.requests"]),
        "resolution.resolve.max_diff_bits":
            tracer.maxes.get("resolution.resolve.max_diff_bits", 0),
        "derived.find_null_homotopy.calls": calls.get("derived.find_null_homotopy", 0),
        "cli.stdout_bytes": traced.stdout_bytes,
        "setup.import_s": import_s,
        "setup.generate_s": generate_s,
        "trace.overhead_ratio": ratio(
            stratified_p50(traced.strata, scaled_times(traced)),
            stratified_p50(untraced.strata, scaled_times(untraced))),
    })
    return out


# ---------------------------------------------------------------------------
# metadata and output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of this checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(seed: int, cycles: int, n_queries: int) -> dict:
    import platform

    import numpy

    try:
        from importlib.metadata import version
        sympy_version = version("sympy")
    except Exception:  # the metadata must not fail the run
        sympy_version = "missing"
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"commit": git_commit(), "seed": seed, "cycles": cycles,
            "queries": n_queries, "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy_version,
            "nproc": os.cpu_count(), "src_lines": src_lines}


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else repr(float(v))


def report_lines(values: dict, units: dict, untraced: Pass, attempted: int,
                 failed: int, digest: str, meta: dict) -> list:
    """The human-readable lines printed before the final JSON line."""
    _, pct, n = tail(untraced.times)
    lines = []
    for name, unit in units.items():
        line = f"{name} = {_fmt(values[name])} {unit}"
        if name == "query_tail_ms":
            line += f"  (p{pct} of {n} queries, {n - math.ceil(pct * n / 100)} beyond)"
        lines.append(line)
    wall = untraced.times
    if wall:
        lines.append(f"wall-clock query_p50_ms = "
                     f"{stratified_p50(untraced.strata, wall) * 1e3!r} ms, "
                     f"machine speed = {REFERENCE_PROBE_S / statistics.median(untraced.probes)!r}"
                     " x reference (not gated)")
    lines.append(f"failed_ratio = {failed / attempted!r} ({failed} of {attempted})")
    lines.append(f"largest entry of any answer = "
                 f"{max(map(max, untraced.bits.values()), default=0)} bits"
                 " (not gated)")
    lines.append(f"peak_rss_mb = {peak_rss_mb()!r} MB (not gated)")
    lines.append(f"answer_digest = {digest}")
    lines.append(f"meta = {json.dumps(meta, sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = perf_counter()
    try:
        import_library()
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import twohom from {SRC}: {exc}\n")
        return 1

    wl = WORKLOADS[args.workload]
    cycles = round(args.seconds / CYCLE_SECONDS[args.workload])
    if args.trace:        # two passes share the time of one
        cycles //= 2
    cycles = max(MIN_CYCLES, cycles)
    OUT.mkdir(exist_ok=True)
    ws_path = OUT / f"workspace-{args.workload}-{os.getpid()}.json"
    try:
        inputs, import_s, generate_s = setup(wl, args.seed, cycles, ws_path)
        gc.collect()
        gc.freeze()       # keeps gc.collect() before each query cheap
        deadline = started + TIME_LIMIT_S
        untraced = measure(wl, inputs, deadline=deadline)
        passes = [untraced]
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced = measure(wl, inputs, tracer, deadline)
            passes.append(traced)
    finally:
        ws_path.unlink(missing_ok=True)

    attempted = len(inputs) * len(passes)
    failed = sum(r.failed for r in passes)
    digests = [r.digest.hexdigest() for r in passes]
    correct = failed == 0 and len(set(digests)) == 1
    for r in passes:
        for line in r.errors:
            sys.stderr.write(f"bench: {args.workload}: {line}\n")
    if len(set(digests)) != 1:
        sys.stderr.write("bench: traced and untraced answer digests differ\n")

    if args.trace:
        values = per_layer(tracer, traced, untraced, import_s, generate_s)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(OUT / f"trace-{args.workload}.npz")
    else:
        values = end_to_end(untraced, import_s + generate_s)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    meta = metadata(args.seed, cycles, len(inputs))
    for line in report_lines(values, units, untraced, attempted, failed,
                             digests[0], meta):
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
