"""One workload in one process: the untraced and the traced run.

Phase order is fixed: import, build inputs, warm-up (set-up ends here),
canary, dense reference, timed operations with their output checks, canary,
and for the untraced run two more set-ups in fresh interpreters so that
``setup_s`` is a median. ``run.py`` is the only caller.

**Scaled seconds.** The baseline host is a shared VM whose speed moves by
10-20% over seconds: the median of ten-second windows of one fixed
operation had a quartile distance of 7% of itself over seven minutes.
Scaling each operation by canary passes timed right before and after it
brought that to 2.5%. So the untraced run times a canary pass between
operations (at least every :data:`Yardstick.INTERVAL_S`) and reports every
timing as ``seconds * CANARY_REFERENCE_S / (mean of the two nearest
passes)``: seconds at the speed at which a pass takes the reference time.
The canary does not touch the program, so a faster program reads faster by
the same factor. The traced run reports raw seconds.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import probe
from trace import Tracer
from workloads import by_name, check, release

MIN_OPS = 3
DENSE_WARMUPS, DENSE_REPEATS, DENSE_SECONDS = 3, 15, 1.5
EXTRA_SETUPS = 2
TRACED_DENSE_OPS = 3
UNTRACED_SHARE = 0.25  # of --seconds, spent on the overhead baseline
SMOKE_PROBE_SHRINK = 16
SETUP_TIMEOUT_S = 120


class NoResult(Exception):
    """The run cannot report its metrics."""


def p90_rank(count):
    """Nearest rank of the 90th percentile among ``count`` samples."""
    return -(-9 * count // 10)


def p90(values):
    """With fewer than ten samples this is the slowest one."""
    return sorted(values)[p90_rank(len(values)) - 1]


class Yardstick:
    """Canary passes timed between the operations (see the module text)."""

    INTERVAL_S = 0.3

    def __init__(self, canary):
        self.canary = canary
        self.at = []  # when each pass ran (its middle)
        self.took = []  # its seconds

    def mark(self):
        t0 = time.perf_counter()
        self.canary.one_pass()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def mark_if_due(self):
        if time.perf_counter() - self.at[-1] >= self.INTERVAL_S:
            self.mark()

    def scaled(self, start, seconds):
        """``seconds`` of work begun at ``start``, at reference speed."""
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, start + seconds),
                    len(self.at) - 1)
        local = 0.5 * (self.took[before] + self.took[after])
        return seconds * probe.CANARY_REFERENCE_S / local


def measure(args, spec, out_dir, tmp_dir, started):
    """Run ``args.workload`` as ``args`` says and print the result object
    as the last line; returns the process exit code. ``started`` is the
    ``perf_counter`` reading taken when the process began."""
    tracer = Tracer()
    workload = by_name(args.workload)
    workload.prepare(args.seed, args.smoke, tracer)
    for _ in range(min(workload.warmups, 3) if args.smoke
                   else workload.warmups):
        outcome = workload.op()
        release(outcome.result)
    setup_raw = time.perf_counter() - started
    canary = probe.Canary()
    yard = Yardstick(canary)
    for _ in range(3):
        yard.mark()
    setup_s = (setup_raw * probe.CANARY_REFERENCE_S
               / statistics.median(yard.took))
    if args.setup_only:
        print(repr(setup_s))
        return 0

    run = Run(args, workload, tracer, outcome.circuit,
              None if args.trace else yard)
    canary_repeats = 1 if args.smoke else 9
    canary_before = canary.seconds(canary_repeats)
    if args.trace:
        values, record = traced(run, out_dir, tmp_dir)
    else:
        values, record = untraced(run, setup_s)
    canary_after = canary.seconds(canary_repeats)
    drift = probe.drift(canary_before, canary_after)
    unstable = drift > probe.CANARY_DRIFT_LIMIT
    if args.trace:
        values["host.canary_s"] = canary_before
        values["host.canary_drift"] = drift
    print(f"canary {canary_before!r} s before, {canary_after!r} s after, "
          f"drift {drift:.4f}{' UNSTABLE' if unstable else ''}")
    for sentence in run.failures:
        print(f"check failed: {sentence}")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if names != set(values):
        raise NoResult("BENCHMARK.json and measure.py disagree on metric "
                       f"names: {sorted(names ^ set(values))}")
    notes = record.pop("notes", {})
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {values[name]!r} {unit}{note}")
        metrics[name] = {"value": values[name], "unit": unit}
    correct = not run.failures
    record.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, smoke=args.smoke, unstable=unstable,
        canary_before_s=canary_before, canary_after_s=canary_after,
        attempted=run.attempted, failed=run.failed, failures=run.failures)
    with open(os.path.join(
            out_dir, f"{workload.name}.trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


class Run:
    """The operation loop shared by the untraced and the traced run.

    With a :class:`Yardstick` every returned timing is scaled by it;
    without one (the traced run) timings are raw seconds.
    """

    def __init__(self, args, workload, tracer, circuit, yard):
        self.args = args
        self.workload = workload
        self.tracer = tracer
        self.circuit = circuit  # the fixed circuit, or a warm-up one
        self.yard = yard
        self.reference = None  # (dense state, energy) of the fixed circuit
        self.dense_timed = []  # (start, seconds) of every timed dense run
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None
        self.checked = []  # workloads.Checked of every completed operation

    def _scaled(self, timed):
        if self.yard is None:
            return [seconds for _, seconds in timed]
        return [self.yard.scaled(start, seconds) for start, seconds in timed]

    def _close(self):
        """A canary pass after the last timing of a phase, so that each
        one lies between two passes."""
        if self.yard is not None:
            self.yard.mark()

    def _dense(self, circuit):
        t0 = time.perf_counter()
        reference = self.workload.dense_op(circuit)
        self.dense_timed.append((t0, time.perf_counter() - t0))
        if self.yard is not None:
            self.yard.mark_if_due()
        return reference

    def dense_reference(self, warmups, repeats, seconds=0.0):
        """Time the dense baseline on the fixed circuit, ``repeats`` times
        and for at least ``seconds``. A workload with fresh inputs per
        operation times it per operation instead, after the same
        warm-ups."""
        for _ in range(warmups):
            self.workload.dense_op(self.circuit)
        if not self.workload.fresh_inputs:
            self._close()
            start = time.perf_counter()
            while (len(self.dense_timed) < repeats
                   or time.perf_counter() - start < seconds):
                self.reference = self._dense(self.circuit)
            self._close()

    def dense_times(self):
        return self._scaled(self.dense_timed)

    def operation(self, root=None):
        """One timed operation and its (untimed) output checks; returns
        ``(start, seconds)``, or None if it raised."""
        self.attempted += 1
        try:
            if root is None:
                t0 = time.perf_counter()
                outcome = self.workload.op()
                seconds = time.perf_counter() - t0
            else:
                with self.tracer.span("harness", root, "op", root=True):
                    t0 = time.perf_counter()
                    outcome = self.workload.op()
                    seconds = time.perf_counter() - t0
            if self.yard is not None:
                self.yard.mark_if_due()
            reference = self.reference
            if self.workload.fresh_inputs:
                reference = self._dense(outcome.circuit)
            checked = check(self.workload, outcome, *reference, self.digest)
            release(outcome.result)
        except Exception:  # the boundary that must keep measuring
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=8))
            return None
        if checked.failures:
            self.failed += 1
            self.failures.extend(checked.failures)
        self.digest = checked.digest
        self.checked.append(checked)
        return t0, seconds

    def loop(self, seconds, root=None, min_ops=None):
        """Operations back to back (closed loop, one client) for
        ``seconds`` and at least ``min_ops``; a smoke run does exactly the
        minimum, which is then the workload's small fixed count. Returns
        the operations' ``(scaled, raw)`` seconds."""
        smoke = self.args.smoke
        if min_ops is None:
            min_ops = self.workload.smoke_ops if smoke else MIN_OPS
        if smoke:
            seconds = 0.0
        timed = []
        raised = 0
        self._close()
        start = time.perf_counter()
        while raised < MIN_OPS and (
                len(timed) < min_ops
                or time.perf_counter() - start < seconds):
            took = self.operation(root)
            if took is None:
                raised += 1
            else:
                timed.append(took)
        self._close()
        if not timed:
            raise NoResult("no operation completed:\n"
                           + "\n".join(self.failures))
        return self._scaled(timed), [seconds for _, seconds in timed]


def untraced(run, setup_s):
    """The end-to-end metrics, with tracing off."""
    args = run.args
    if args.smoke:
        run.dense_reference(1, 2)
    else:
        run.dense_reference(DENSE_WARMUPS, DENSE_REPEATS, DENSE_SECONDS)
    times, raw = run.loop(args.seconds)
    dense_times = run.dense_times()
    setups = [setup_s]
    for _ in range(1 if args.smoke else EXTRA_SETUPS):
        setups.append(_setup_again(args))
    run_s = statistics.median(times)
    dense_s = statistics.median(dense_times)
    first = run.checked[0]
    failed_frac = run.failed / run.attempted
    values = {
        "run_s": run_s,
        "run_p90_s": p90(times),
        "dense_s": dense_s,
        "slowdown_vs_dense": run_s / dense_s,
        "peak_bytes_ratio": first.peak_bytes_ratio,
        "fidelity": first.fidelity,
        "setup_s": statistics.median(setups),
        "ok_ops_frac": 1.0 - failed_frac,
    }
    notes = {
        "run_s": f"min {min(times):.6g} max {max(times):.6g} "
                 f"n {len(times)}; unscaled median "
                 f"{statistics.median(raw):.6g}",
        "run_p90_s": f"n {len(times)}, "
                     f"{len(times) - p90_rank(len(times))} beyond",
        "dense_s": f"n {len(dense_times)}",
        "setup_s": f"n {len(setups)}",
        "ok_ops_frac": f"failed_ops_frac {failed_frac!r} "
                       f"of {run.attempted}",
    }
    return values, {"notes": notes, "run_samples_s": times,
                    "run_unscaled_samples_s": raw,
                    "dense_samples_s": dense_times,
                    "setup_samples_s": setups,
                    "canary_passes_s": run.yard.took,
                    "canary_reference_s": probe.CANARY_REFERENCE_S}


def _setup_again(args):
    """Set-up in a fresh interpreter; returns its (scaled) seconds."""
    cmd = [sys.executable, sys.argv[0], "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def traced(run, out_dir, tmp_dir):
    """The per-layer metrics: a short untraced baseline for the overhead,
    then the same operations with the layer boundaries wrapped."""
    args = run.args
    shrink = SMOKE_PROBE_SHRINK if args.smoke else 1
    ceilings = probe.ceilings(tmp_dir, shrink)
    run.dense_reference(1, 1)
    base, _ = run.loop(args.seconds * UNTRACED_SHARE, min_ops=2)
    run.checked.clear()
    wrapped = run.tracer.install()
    try:
        times, _ = run.loop(args.seconds * (1.0 - UNTRACED_SHARE),
                            root=run.workload.name)
        for _ in range(TRACED_DENSE_OPS):
            with run.tracer.span("harness", "dense", "dense_op", root=True):
                run.workload.dense_op(run.circuit)
    finally:
        not_restored = run.tracer.uninstall()
    if not_restored:
        run.failures.append(f"not restored after tracing: {not_restored}")

    ops, root_s, buckets = run.tracer.summarize("op")
    dense_ops, _, dense_buckets = run.tracer.summarize("dense_op")
    zero = {"self_s": 0.0, "calls": 0, "n": 0, "m": 0}

    def per_op(bucket, field="self_s"):
        return buckets.get(bucket, zero)[field] / ops

    def ratio(work, per, scale=1.0):
        return work / per / scale if per > 0 else 0.0

    residual = abs(sum(b["self_s"] for b in buckets.values()) - root_s)
    if residual > 1e-6:
        run.failures.append(
            f"layer self times miss the root spans by {residual:.3g} s")
    counts = {k: sum(c.counts[k] for c in run.checked) / ops
              for k in run.checked[0].counts}
    copy_s = per_op("h2d") + per_op("d2h")
    copy_bytes = per_op("h2d", "n") + per_op("d2h", "n")
    copy_gbps = ratio(copy_bytes, copy_s, 1e9)
    values = {
        "compression.compress_s": per_op("compress"),
        "compression.decompress_s": per_op("decompress"),
        "compression.compress_calls": per_op("compress", "calls"),
        "compression.decompress_calls": per_op("decompress", "calls"),
        "compression.compress_MBps": ratio(
            per_op("compress", "n"), per_op("compress"), 1e6),
        "compression.decompress_MBps": ratio(
            per_op("decompress", "n"), per_op("decompress"), 1e6),
        "compression.ratio": ratio(
            per_op("compress", "n"), per_op("compress", "m")),
        "statevector.kernel_s": per_op("kernel"),
        "statevector.kernel_calls": per_op("kernel", "calls"),
        "statevector.amp_updates_per_s": ratio(
            per_op("kernel", "n"), per_op("kernel")),
        "statevector.dense_self_s":
            dense_buckets["dense"]["self_s"] / dense_ops,
        "device.h2d_s": per_op("h2d"),
        "device.d2h_s": per_op("d2h"),
        "device.copy_bytes": copy_bytes,
        "device.copy_GBps": copy_gbps,
        "device.copy_frac_of_memcpy":
            copy_gbps / ceilings["host.memcpy_GBps"],
        "device.arena_s": per_op("arena"),
        "memory.store_self_s": per_op("store"),
        "memory.cache_self_s": per_op("cache"),
        "memory.cache_hits": counts["cache_hits"],
        "memory.cache_misses": counts["cache_misses"],
        "memory.cache_hit_rate": ratio(
            counts["cache_hits"],
            counts["cache_hits"] + counts["cache_misses"]),
        "memory.disk_read_s": per_op("disk_read"),
        "memory.disk_write_s": per_op("disk_write"),
        "memory.disk_bytes":
            per_op("disk_read", "n") + per_op("disk_write", "n"),
        "memory.spills": counts["spills"],
        "memory.promotions": counts["promotions"],
        "memory.pool_s": per_op("pool"),
        "pipeline.plan_s": per_op("plan"),
        "pipeline.scheduler_self_s": per_op("scheduler"),
        "pipeline.group_passes": counts["group_passes"],
        "pipeline.glue_us_per_pass": ratio(
            per_op("scheduler"), counts["group_passes"], 1e-6),
        "compile.compile_s": per_op("compile"),
        "compile.ops_out": counts["ops_out"],
        "compile.fusion_ratio": ratio(counts["gates_in"], counts["ops_out"]),
        "core.facade_self_s": per_op("facade"),
        "core.query_s": per_op("query"),
        "circuits.build_s": per_op("build"),
        "harness.op_self_s": per_op("op"),
        "trace.overhead_frac": root_s / ops / statistics.median(base) - 1.0,
    }
    values.update(ceilings)
    run.tracer.write(os.path.join(out_dir, f"trace_{run.workload.name}.json"))
    return values, {
        "traced_ops": ops, "traced_op_s": root_s / ops,
        "untraced_samples_s": base, "traced_samples_s": times,
        "wrapped_callables": wrapped, "self_time_residual_s": residual,
        "spans": len(run.tracer.spans),
        "memcpy_array_bytes": probe.MEMCPY_BYTES // shrink,
        "l2_bytes_assumed": probe.L2_BYTES}
