"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate a named workload (or an OpenQASM file) with MEMQSim
  and print the result report; optionally sample, save a checkpoint, or
  compare against the dense baseline.
* ``workloads`` — list the registered workload generators.
* ``compressors`` — list registered codecs, optionally evaluating them on
  a workload's state vector.
* ``plan`` — show the offline stage plan for a workload at a given layout.
* ``trace`` — run a workload with full telemetry and export the pipeline
  spans as a Chrome-trace / Perfetto JSON file plus a metrics snapshot.
* ``report`` — run a workload with telemetry + resource monitoring forced
  on and render a self-contained HTML run report (stage timeline, memory
  curve, compression table — no external assets, opens from ``file://``).
* ``memtrace`` — record a run's exact chunk access sequence and analyze
  its reuse: distance histogram, the exact LRU hit-rate-vs-capacity
  curve, and the Belady-optimal miss bound vs the live LRU cache.
* ``audit`` — plan-vs-actual verification: the access schedule predicted
  from the compiled plan must match the recorded one exactly, and the
  measured bytes must fall inside the predicted traffic envelope.
* ``top`` — live terminal dashboard for a running simulation: polls the
  ``/progress`` endpoint of a run started with ``--serve-metrics``.
* ``serve`` — persistent multi-tenant job daemon: accepts circuit
  submissions over HTTP/JSON, shares one device arena (admission control)
  and one compiled-plan cache across concurrent jobs.
* ``submit`` / ``jobs`` / ``result`` / ``cancel`` — client commands
  against a running daemon.

Examples::

    python -m repro run qft -n 14 --compressor szlike --error-bound 1e-6
    python -m repro run qft -n 16 --workers 4
    python -m repro run qft -n 10 --trace-out qft.trace.json --json
    python -m repro run --qasm circuit.qasm --shots 1000
    python -m repro compressors --evaluate qft -n 12
    python -m repro plan grover -n 12 --chunk-qubits 6
    python -m repro trace qft -n 12 --trace-out qft.trace.json
    python -m repro report qft -n 12 -o qft.report.html
    python -m repro run qft -n 12 --mem-trace-out qft.access.jsonl
    python -m repro memtrace vqe -n 12 --device-mb 0.002 --cache-chunks 16
    python -m repro audit qft -n 12 --device-mb 0.002
    python -m repro run qft -n 15 --monitor --serve-metrics 9644 --live
    python -m repro top --port 9644
    python -m repro serve --port 9645 --device-mb 64 --max-jobs 4
    python -m repro submit qft -n 12 --port 9645 --tenant alice --wait
    python -m repro jobs --port 9645
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .analysis import Table, format_bytes, format_seconds
from .circuits import WORKLOADS, from_qasm, get_workload
from .compression import (available_compressors, compressor_options,
                          evaluate_compressor, get_compressor)
from .core import MemQSim, MemQSimConfig
from .device import DeviceSpec
from .telemetry import NULL_TELEMETRY, Telemetry, configure_logging

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="MEMQSim: memory-efficient quantum state-vector simulation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate a workload or QASM file")
    runp.add_argument("workload", nargs="?", help=f"one of {sorted(WORKLOADS)}")
    runp.add_argument("--qasm", help="OpenQASM 2.0 file to simulate instead")
    runp.add_argument("-n", "--qubits", type=int, default=12)
    _add_codec_args(runp)
    _add_fusion_args(runp)
    _add_precision_arg(runp)
    runp.add_argument("--cache-chunks", type=int, default=0,
                      help="decompressed-chunk cache capacity (0 = off)")
    runp.add_argument("--cache-policy", default="mru",
                      choices=["lru", "mru", "belady"],
                      help="eviction policy; belady evicts by the compiled "
                           "plan's farthest next use")
    runp.add_argument("--host-store-mb", type=float, default=0.0,
                      help="RAM budget (MiB) for compressed blobs; > 0 "
                           "runs the tiered store (plan-coldest blobs "
                           "spill to an append log)")
    runp.add_argument("--disk-path", metavar="FILE",
                      help="append-log file for the tiered store (default: "
                           "a temp file, removed afterwards); alone, with "
                           "no --host-store-mb, every blob lives on disk")
    _add_parallel_args(runp)
    runp.add_argument("--shots", type=int, default=0, help="sample this many shots")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--save-state", help="write a compressed checkpoint here")
    runp.add_argument("--checkpoint", help="resume from this checkpoint")
    runp.add_argument("--compare-dense", action="store_true",
                      help="also run the dense baseline and report fidelity")
    runp.add_argument("--state-digest", action="store_true",
                      help="print a sha256 over the final state's chunk "
                           "stream (bit-identity fingerprint; also lands "
                           "in --json output)")
    _add_telemetry_args(runp)
    runp.add_argument("--mem-trace-out", metavar="FILE",
                      help="record the exact per-chunk access sequence and "
                           "write it as JSONL (analyze with `repro "
                           "memtrace`)")
    runp.add_argument("--json", nargs="?", const="-", default=None,
                      metavar="FILE",
                      help="emit the full result as JSON (to FILE, or to "
                           "stdout instead of the report when no FILE given)")

    sub.add_parser("workloads", help="list workload generators")

    comp = sub.add_parser("compressors", help="list / evaluate codecs")
    comp.add_argument("--evaluate", metavar="WORKLOAD",
                      help="evaluate all codecs on this workload's state")
    comp.add_argument("-n", "--qubits", type=int, default=12)

    planp = sub.add_parser("plan", help="show the offline stage plan")
    planp.add_argument("workload")
    planp.add_argument("-n", "--qubits", type=int, default=12)
    planp.add_argument("--chunk-qubits", type=int, default=6)
    planp.add_argument("--max-group", type=int, default=2)

    tracep = sub.add_parser(
        "trace", help="run a workload with full telemetry and export a trace")
    tracep.add_argument("workload", help=f"one of {sorted(WORKLOADS)}")
    tracep.add_argument("-n", "--qubits", type=int, default=12)
    _add_codec_args(tracep)
    tracep.add_argument("--cache-chunks", type=int, default=0)
    _add_fusion_args(tracep)
    _add_precision_arg(tracep)
    _add_parallel_args(tracep)
    _add_telemetry_args(tracep)
    tracep.add_argument("--top", type=int, default=10,
                        help="rows in the printed span summary")

    repp = sub.add_parser(
        "report",
        help="run a workload and render a self-contained HTML run report")
    repp.add_argument("workload", help=f"one of {sorted(WORKLOADS)}")
    repp.add_argument("-n", "--qubits", type=int, default=12)
    _add_codec_args(repp)
    repp.add_argument("--cache-chunks", type=int, default=0)
    _add_precision_arg(repp)
    _add_parallel_args(repp)
    repp.add_argument("--monitor-interval", type=float, default=5.0,
                      metavar="MS",
                      help="resource sampling period (default 5; the "
                           "monitor is always on for reports)")
    repp.add_argument("-o", "--out", metavar="FILE",
                      help="output path (default <workload>.report.html)")
    repp.add_argument("--title", help="report title")

    mtp = sub.add_parser(
        "memtrace",
        help="record a run's chunk access trace and analyze its reuse: "
             "distance histogram, hit-rate-vs-capacity curve, and the "
             "Belady-optimal miss bound vs the live LRU cache")
    mtp.add_argument("workload", help=f"one of {sorted(WORKLOADS)}")
    mtp.add_argument("-n", "--qubits", type=int, default=12)
    _add_codec_args(mtp)
    mtp.add_argument("--cache-chunks", type=int, default=4, metavar="C",
                     help="chunk-cache capacity to run with (the "
                          "analysis then sweeps every capacity)")
    mtp.add_argument("--policy", default="lru",
                     choices=["lru", "mru", "belady"],
                     help="eviction policy to run live and replay offline "
                          "(the live cache must match miss-for-miss)")
    mtp.add_argument("--trace-in", metavar="FILE",
                     help="analyze a trace recorded earlier with "
                          "`run --mem-trace-out` instead of running")
    mtp.add_argument("--json", action="store_true",
                     help="print the analysis as JSON")

    audp = sub.add_parser(
        "audit",
        help="verify a run against its compiled plan: predicted access "
             "schedule must match the recorded one exactly, and measured "
             "bytes must fall inside the predicted traffic envelope")
    audp.add_argument("workload", help=f"one of {sorted(WORKLOADS)}")
    audp.add_argument("-n", "--qubits", type=int, default=12)
    _add_codec_args(audp)
    _add_precision_arg(audp)
    audp.add_argument("--host-store-mb", type=float, default=0.0,
                      help="audit against the tiered store with this RAM "
                           "blob budget (0 = plain memory store)")
    audp.add_argument("--workers", type=int, default=1, metavar="N",
                      help="codec lane threads; the audit must balance "
                           "to the byte for any count (default 1)")
    audp.add_argument("--ratio-slack", type=float, default=1.25,
                      help="compressed-bytes envelope: compressed <= "
                           "slack * raw (default 1.25)")
    audp.add_argument("--json", action="store_true",
                      help="print the audit report as JSON")
    audp.add_argument("--perturb", action="store_true",
                      help=argparse.SUPPRESS)  # CI: corrupt the measured
    # trace before comparing, to prove the audit actually fails on drift

    topp = sub.add_parser(
        "top",
        help="live dashboard for a running simulation (polls /progress of "
             "a run started with --serve-metrics)")
    topp.add_argument("--url", default=None, metavar="URL",
                      help="telemetry server base URL "
                           "(default http://127.0.0.1:9644)")
    topp.add_argument("--port", type=int, default=None,
                      help="shorthand for --url http://127.0.0.1:PORT")
    topp.add_argument("--interval", type=float, default=1.0, metavar="S",
                      help="poll period in seconds (default 1)")
    topp.add_argument("--once", action="store_true",
                      help="render one frame and exit (scripting/tests)")

    servep = sub.add_parser(
        "serve",
        help="run the persistent multi-tenant job daemon (HTTP/JSON API); "
             "its codec and chunk flags are the base a job may override")
    servep.add_argument("--port", type=int, default=None,
                        help="listen port (default 9645; 0 = ephemeral, "
                             "printed at startup)")
    servep.add_argument("--host", default="127.0.0.1")
    _add_codec_args(servep)
    servep.add_argument("--workers", type=int, default=1, metavar="N",
                        help="daemon codec lanes; >1 builds one shared "
                             "lane pool reused by matching jobs")
    servep.add_argument("--max-jobs", type=int, default=4,
                        help="cap on simultaneously running jobs")
    servep.add_argument("--plan-cache", type=int, default=64, metavar="N",
                        help="compiled plans kept resident")
    servep.add_argument("--events-dir", metavar="DIR",
                        help="flush each finished job's event tail to "
                             "DIR/<job_id>.events.jsonl")
    servep.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error",
                                 "critical"],
                        type=str.lower, metavar="LEVEL")

    subp = sub.add_parser("submit", help="submit a job to a daemon")
    subp.add_argument("workload", nargs="?",
                      help=f"one of {sorted(WORKLOADS)}")
    subp.add_argument("--qasm", help="OpenQASM 2.0 file to submit instead")
    subp.add_argument("-n", "--qubits", type=int, default=12)
    subp.add_argument("--tenant", default="default",
                      help="fairness domain for arbitration")
    subp.add_argument("--shots", type=int, default=0)
    subp.add_argument("--seed", type=int, default=None)
    subp.add_argument("--compressor", default=None)
    subp.add_argument("--error-bound", type=float, default=None)
    subp.add_argument("--chunk-qubits", type=int, default=None)
    subp.add_argument("--workers", type=int, default=None)
    subp.add_argument("--fusion", action=argparse.BooleanOptionalAction,
                      default=None,
                      help="gate fusion on / off (default: the daemon's, "
                           "which follows the codec)")
    subp.add_argument("--wait", action="store_true",
                      help="block until the job finishes and print the "
                           "result document")
    subp.add_argument("--timeout", type=float, default=300.0,
                      help="--wait deadline in seconds")
    _add_serve_url_args(subp)

    jobsp = sub.add_parser("jobs", help="list a daemon's jobs")
    _add_serve_url_args(jobsp)

    resp = sub.add_parser("result", help="fetch a finished job's result")
    resp.add_argument("job_id")
    _add_serve_url_args(resp)

    canp = sub.add_parser("cancel", help="cancel a queued or running job")
    canp.add_argument("job_id")
    _add_serve_url_args(canp)
    return p


def _add_codec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--compressor", default="szlike",
                   help="codec name (see `compressors`)")
    p.add_argument("--error-bound", type=float, default=1e-6,
                   help="per-component error bound of a lossy codec")
    p.add_argument("--chunk-qubits", type=int, default=0, help="0 = auto")
    p.add_argument("--device-mb", type=float, default=256.0,
                   help="simulated device memory (MiB); small values force "
                        "multi-stage streaming")


def _add_serve_url_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--url", default=None, metavar="URL",
                   help="daemon base URL (default http://127.0.0.1:9645)")
    p.add_argument("--port", type=int, default=None,
                   help="shorthand for --url http://127.0.0.1:PORT")


def _serve_url(args) -> str:
    from .serve import DEFAULT_PORT

    if args.url and args.port is not None:
        raise SystemExit("pass --url or --port, not both")
    return args.url or f"http://127.0.0.1:{args.port or DEFAULT_PORT}"


def _add_precision_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", default="c128",
                   choices=["c128", "c64", "mixed"],
                   help="amplitude precision: complex128 (default), "
                        "complex64 (half the bytes on every tier edge), or "
                        "mixed (c64 at rest, c128 kernel accumulation)")


def _add_fusion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fusion", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="run the gate-fusion compile passes (1q folding, "
                        "diagonal merging, window fusion) when lowering "
                        "the plan (default: on under a lossy compressor, "
                        "off under a lossless one); windows are as wide "
                        "as the launch-cost model prices lowest, up to 5 "
                        "qubits")


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="codec lane threads (1 = the codec runs inline, "
                        "> 1 = on a thread pool behind the chunk store, "
                        "0 = auto: fan out only when cores and codec cost "
                        "justify it)")


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--monitor", action="store_true",
                   help="sample RSS / device-arena / cache / codec gauges "
                        "on a background thread; the time-series lands in "
                        "the trace (counter tracks) and the result JSON "
                        "(resource_timeline)")
    p.add_argument("--monitor-interval", type=float, default=20.0,
                   metavar="MS", help="monitor sampling period (default 20)")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write the run's spans as Chrome-trace JSON "
                        "(open at ui.perfetto.dev)")
    p.add_argument("--jsonl-out", metavar="FILE",
                   help="write the run's spans as JSONL (one span per line)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the metrics snapshot as JSON")
    p.add_argument("--log-level", default=None,
                   choices=["debug", "info", "warning", "error", "critical"],
                   type=str.lower, metavar="LEVEL",
                   help="enable repro.* logging at this level "
                        "(debug/info/warning/error/critical)")
    p.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="serve /metrics (Prometheus), /progress (JSON) and "
                        "/events (SSE) on this port for the run's duration "
                        "(0 = ephemeral port, printed at startup)")
    p.add_argument("--live", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="render a live ANSI dashboard (progress bar, ETA, "
                        "resource sparklines, event tail) during the run")
    p.add_argument("--events-out", metavar="FILE",
                   help="write the run's retained bus events as JSONL")


def _load_circuit(args):
    if args.qasm:
        with open(args.qasm) as fh:
            return from_qasm(fh.read())
    if not args.workload:
        raise SystemExit("run: provide a workload name or --qasm FILE")
    return get_workload(args.workload, args.qubits)


def _telemetry_from_args(args, force: bool = False) -> Telemetry:
    """Build the run's telemetry: enabled iff any export was requested."""
    # Fail on unwritable output locations *before* the simulation runs,
    # not after minutes of work.
    for path in (args.trace_out, args.jsonl_out, args.metrics_out,
                 getattr(args, "events_out", None),
                 getattr(args, "mem_trace_out", None),
                 getattr(args, "json", None)):
        if path and path != "-":
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                raise SystemExit(
                    f"error: output directory does not exist: {parent}")
    if args.log_level:
        configure_logging(args.log_level)
    want = force or bool(args.trace_out or args.jsonl_out or args.metrics_out
                         or getattr(args, "monitor", False)
                         or getattr(args, "serve_metrics", None) is not None
                         or getattr(args, "live", False)
                         or getattr(args, "events_out", None)
                         or getattr(args, "mem_trace_out", None))
    return Telemetry() if want else NULL_TELEMETRY


def _monitor_ms(args) -> float:
    """The config's ``monitor_interval_ms`` for these CLI args (0 = off)."""
    if not getattr(args, "monitor", False):
        return 0.0
    if args.monitor_interval <= 0:
        raise SystemExit("error: --monitor-interval must be > 0")
    return args.monitor_interval


def _export_telemetry(tel: Telemetry, args) -> None:
    if args.trace_out:
        nb = tel.tracer.write_chrome_trace(args.trace_out)
        print(f"trace written: {args.trace_out} "
              f"({len(tel.tracer)} spans, {format_bytes(nb)})")
    if args.jsonl_out:
        n = tel.tracer.write_jsonl(args.jsonl_out)
        print(f"span JSONL written: {args.jsonl_out} ({n} lines)")
    if args.metrics_out:
        nb = tel.metrics.write_json(args.metrics_out)
        print(f"metrics written: {args.metrics_out} ({format_bytes(nb)})")
    if getattr(args, "events_out", None):
        n = tel.bus.write_jsonl(args.events_out)
        dropped = tel.bus.dropped
        note = f", {dropped} older dropped by the ring" if dropped else ""
        print(f"event JSONL written: {args.events_out} ({n} events{note})")
    if getattr(args, "mem_trace_out", None) and tel.access is not None:
        n = tel.access.write_jsonl(args.mem_trace_out)
        print(f"access trace written: {args.mem_trace_out} ({n} accesses)")


def _validate_cache_chunks(value: int, minimum: int = 0) -> int:
    """The one cache-capacity validator every command shares.

    ``minimum`` is 0 where the cache is optional (``run``/``trace``) and
    1 where the command is meaningless without one (``memtrace``); the
    error text is identical either way — no silent clamping.
    """
    if value < minimum:
        raise SystemExit(
            f"--cache-chunks must be >= {minimum}, got {value}")
    return value


#: CLI flag dest -> the ``MemQSimConfig`` field it sets, for every flag a
#: simulating command may carry (a command without the flag keeps the
#: field's default)
_CONFIG_ARGS = {
    "chunk_qubits": "chunk_qubits",
    "fusion": "fuse_gates",
    "precision": "precision",
    "cache_chunks": "cache_chunks",
    "cache_policy": "cache_policy",
    "disk_path": "disk_path",
    "host_store_mb": "host_store_mb",
    "workers": "workers",
}


def _config_from_args(args, **pins) -> MemQSimConfig:
    """The config a command's flags name; ``pins`` fix fields outright."""
    try:
        opts = compressor_options(args.compressor, args.error_bound)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    fields = {field: getattr(args, dest) for dest, field in _CONFIG_ARGS.items()
              if hasattr(args, dest)}
    if "cache_chunks" in fields:
        _validate_cache_chunks(fields["cache_chunks"])
    fields.update(pins)
    fields.setdefault("monitor_interval_ms", _monitor_ms(args))
    return MemQSimConfig(
        compressor=args.compressor, compressor_options=opts,
        device=DeviceSpec(memory_bytes=int(args.device_mb * (1 << 20))),
        **fields)


def _cmd_run(args) -> int:
    circuit = _load_circuit(args)
    tel = _telemetry_from_args(args)
    if args.mem_trace_out:
        from .telemetry import ChunkAccessRecorder

        tel.access = ChunkAccessRecorder()
    cfg = _config_from_args(args)
    json_stdout = args.json == "-"
    server = dashboard = None
    if args.serve_metrics is not None:
        from .telemetry.live import TelemetryServer

        server = TelemetryServer(tel, port=args.serve_metrics).start()
        if not json_stdout:
            print(f"telemetry server: {server.url} "
                  "(/metrics /progress /events)")
    if args.live:
        from .telemetry.dashboard import LiveDashboard

        dashboard = LiveDashboard(tel).start()
    try:
        res = MemQSim(cfg, telemetry=tel).run(circuit,
                                              checkpoint=args.checkpoint)
        if dashboard is not None:
            dashboard.stop()  # final frame shows exactly 100%
            dashboard = None
        payload = res.to_dict() if args.json else None

        counts = fidelity = None
        digest = res.state_digest() if args.state_digest else None
        if args.shots:
            counts = res.sample(args.shots, seed=args.seed)
        if args.compare_dense and circuit.num_qubits <= 20:
            from .statevector import DenseSimulator

            ref = DenseSimulator().run(circuit)
            fidelity = res.fidelity_vs(ref.data)
        if payload is not None:
            if counts is not None:
                payload["counts"] = counts
            if fidelity is not None:
                payload["fidelity_vs_dense"] = fidelity
            if digest is not None:
                payload["state_digest"] = digest

        if not json_stdout:
            print(res.report())
            if digest is not None:
                print(f"\nstate digest: {digest}")
            if counts is not None:
                top = sorted(counts.items(), key=lambda kv: -kv[1])[:8]
                print("\ntop outcomes:")
                for bits, cnt in top:
                    print(f"  |{bits}>  {cnt}")
            if args.compare_dense:
                if fidelity is None:
                    print("\n(dense comparison skipped: too many qubits)")
                else:
                    print(f"\nfidelity vs dense: {fidelity:.12f}")
            if args.json:
                with open(args.json, "w") as fh:
                    json.dump(payload, fh, indent=2)
                print(f"result JSON written: {args.json}")
            _export_telemetry(tel, args)
        if args.save_state:
            nb = res.save_state(args.save_state)
            if not json_stdout:
                print(f"\ncheckpoint written: {args.save_state} "
                      f"({format_bytes(nb)})")
        if json_stdout:
            # Exports still happen, but only the JSON document reaches
            # stdout.
            import contextlib
            import io

            with contextlib.redirect_stdout(io.StringIO()):
                _export_telemetry(tel, args)
            print(json.dumps(payload, indent=2))
        return 0
    finally:
        # The server outlives the simulation through reporting, so late
        # pollers observe the finished (fraction == 1.0) progress state.
        if dashboard is not None:
            dashboard.stop()
        if server is not None:
            server.stop()


def _cmd_workloads(_args) -> int:
    t = Table(["name", "example (n=8)"], title="registered workloads")
    for name in sorted(WORKLOADS):
        c = get_workload(name, 8)
        t.add(name, f"{len(c)} gates, depth {c.depth()}")
    print(t.render())
    return 0


def _cmd_compressors(args) -> int:
    if not args.evaluate:
        t = Table(["name", "kind"], title="registered compressors")
        for name in available_compressors():
            comp = get_compressor(name)
            t.add(name, "lossy" if comp.is_lossy else "lossless")
        print(t.render())
        return 0
    from .statevector import DenseSimulator

    sv = DenseSimulator().run(get_workload(args.evaluate, args.qubits)).data
    t = Table(["codec", "ratio", "max err", "compress", "decompress"],
              title=f"codecs on {args.evaluate} (n={args.qubits})")
    for name in available_compressors():
        rep = evaluate_compressor(get_compressor(name), sv)
        t.add(rep.compressor, f"{rep.ratio:.1f}x", f"{rep.max_error:.1e}",
              format_seconds(rep.compress_seconds),
              format_seconds(rep.decompress_seconds))
    print(t.render())
    return 0


def _cmd_plan(args) -> int:
    from collections import Counter

    from .core import plan_circuit
    from .memory import ChunkLayout
    from .pipeline import (RELOCATE, GateStage, describe_plan,
                           predict_pass_schedule, trace_qubit_map)

    circuit = get_workload(args.workload, args.qubits)
    layout = ChunkLayout(args.qubits, args.chunk_qubits)
    # What a run from |0...0> plans: the circuit's swaps add up to a front
    # permutation, and a backward plan's start map, both of which that
    # state absorbs.
    choice = plan_circuit(circuit, layout, args.max_group, zero_start=True)
    stages, hoisted = choice.stages, choice.hoisted
    rep = describe_plan(stages, layout)
    # From |0...0> only chunk 0 is non-zero; all-zero groups never stream.
    live = Counter(si for kind, si, _gi, _members in predict_pass_schedule(
        stages, layout, support={0}) if kind == "pass")
    executed = sum(live.values())
    print(f"{args.workload} n={args.qubits}: {rep.gates_total} gates -> "
          f"{rep.num_stages} stages ({rep.num_local_stages} local, "
          f"{rep.num_permutation_stages} permutation), "
          f"{rep.group_passes} group passes: {executed} run from |0...0>, "
          f"{rep.group_passes - executed} all-zero groups skipped")
    won = ("hoisted" if hoisted is not None else "written", choice.direction)
    print(f"  plan: {won[1]}, {won[0]}; chunk loads from |0...0>: "
          + ", ".join(f"{d} {h} {loads}{' *' if (h, d) == won else ''}"
                      for (h, d), loads in choice.candidates))
    if hoisted is not None:
        print(f"  hoisted: {hoisted.swaps} of the circuit's {len(circuit)} "
              f"gates are swaps, now the front permutation "
              f"{list(hoisted.permutation)}\n"
              f"  (a run from a given state plans the circuit as written)")
    c = layout.chunk_qubits
    # Past this stage only the canonical layout is being restored.
    last_gate = max((i for i, s in enumerate(stages)
                     if any(g.label != RELOCATE for g in s.gates)), default=-1)
    trace = trace_qubit_map(stages, args.qubits)
    for i, (s, _occ, front, back) in zip(range(30), trace):
        # q3→g10: logical qubit 3 leaves for global position 10.
        note = ""
        for why, moves in (("front", front),
                           ("restore" if i > last_gate else "relocate", back)):
            if moves:
                note += f"  {why}: " + " ".join(
                    f"q{q}→{'g' if to >= c else 'l'}{to}"
                    for q, _from, to in moves)
        groups = ""
        if isinstance(s, GateStage):
            groups = (f"  live {live[i]} / "
                      f"{layout.num_chunks >> s.num_group_qubits} groups")
        print(f"  {i:>3}: {s!r}{groups}{note}")
    if len(stages) > 30:
        print(f"  ... {len(stages) - 30} more stages")
    return 0


def _cmd_trace(args) -> int:
    """Run a workload with telemetry forced on and export the trace."""
    if not args.trace_out and not args.jsonl_out:
        args.trace_out = f"{args.workload}.trace.json"
    tel = _telemetry_from_args(args, force=True)
    cfg = _config_from_args(args)
    circuit = get_workload(args.workload, args.qubits)
    res = MemQSim(cfg, telemetry=tel).run(circuit)
    print(res.report())
    print("\nwhere the time went (per span name):")
    print(tel.tracer.summary(top=args.top))
    print()
    _export_telemetry(tel, args)
    if args.trace_out:
        print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_report(args) -> int:
    """Run a workload (monitor forced on) and write the HTML run report."""
    from .analysis.htmlreport import write_html

    if args.monitor_interval <= 0:
        raise SystemExit("error: --monitor-interval must be > 0")
    out = args.out or f"{args.workload}.report.html"
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        raise SystemExit(f"error: output directory does not exist: {parent}")
    cfg = _config_from_args(args, monitor_interval_ms=args.monitor_interval)
    circuit = get_workload(args.workload, args.qubits)
    from .telemetry import ChunkAccessRecorder

    tel = Telemetry()
    tel.access = ChunkAccessRecorder()  # feeds the cache what-if section
    res = MemQSim(cfg, telemetry=tel).run(circuit)
    title = args.title or (f"MEMQSim: {args.workload} n={args.qubits} "
                           f"({args.compressor})")
    nb = write_html(res, out, title=title)
    print(res.report())
    print(f"\nHTML report written: {out} ({format_bytes(nb)})")
    return 0


def _cmd_memtrace(args) -> int:
    """Record (or load) an access trace and analyze its reuse behaviour."""
    from .analysis.memtrace import analyze_trace
    from .telemetry import ChunkAccessRecorder

    measured = None
    capacity = _validate_cache_chunks(args.cache_chunks, minimum=1)
    if args.trace_in:
        trace = ChunkAccessRecorder.read_jsonl(args.trace_in)
        if not trace:
            raise SystemExit(f"memtrace: {args.trace_in} holds no accesses")
    else:
        tel = Telemetry()
        rec = ChunkAccessRecorder()
        tel.access = rec
        # the live cache runs the capacity and policy the analysis replays
        cfg = _config_from_args(args, cache_chunks=capacity,
                                cache_policy=args.policy)
        res = MemQSim(cfg, telemetry=tel).run(
            get_workload(args.workload, args.qubits))
        trace = rec.trace()
        stats = getattr(res.store, "cache_stats", None)
        if stats is not None:
            measured = stats.misses
    report = analyze_trace(trace, capacity, policy=args.policy,
                           measured_misses=measured)
    if measured is not None and measured != report.policy_misses:
        # The offline replay IS the live cache's contract; a divergence
        # means one of them drifted — fail loudly, never fudge.
        raise SystemExit(
            f"memtrace: live {args.policy} cache took {measured} misses "
            f"but the trace replay computed {report.policy_misses}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0


def _cmd_audit(args) -> int:
    """Run under the audit contract and verify plan-vs-actual behaviour."""
    from .analysis.audit import audit_run
    from .telemetry import ChunkAccessRecorder

    tel = Telemetry()
    rec = ChunkAccessRecorder()
    tel.access = rec
    # The audit contract: no chunk cache — the deterministic edges are
    # only exact when every load of a live chunk reaches the codec. Any
    # worker count balances.
    cfg = _config_from_args(args, cache_chunks=0)
    res = MemQSim(cfg, telemetry=tel).run(
        get_workload(args.workload, args.qubits))
    trace = rec.trace()
    if args.perturb and len(trace) >= 2:
        trace[0], trace[-1] = trace[-1], trace[0]
    # The run started from |0...0>: chunk 0 is its whole support.
    report = audit_run(res.compiled_stages, res.store.layout, trace,
                       tel.traffic, ratio_slack=args.ratio_slack, support={0},
                       timeline=res.timeline,
                       kernel_stages=res.compile_report.kernel_stages)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_top(args) -> int:
    """Attach the remote dashboard to a --serve-metrics run."""
    from .telemetry.dashboard import top
    from .telemetry.live import DEFAULT_PORT

    if args.url and args.port is not None:
        raise SystemExit("top: pass --url or --port, not both")
    url = args.url or f"http://127.0.0.1:{args.port or DEFAULT_PORT}"
    try:
        return top(url, interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_serve(args) -> int:
    """Run the job daemon until SIGTERM/SIGINT, then drain gracefully."""
    import signal
    import threading

    from .serve import DEFAULT_PORT, ServeManager, ServeServer

    if args.log_level:
        configure_logging(args.log_level)
    base = _config_from_args(args)
    manager = ServeManager(base, Telemetry(), max_jobs=args.max_jobs,
                           plan_cache_capacity=args.plan_cache,
                           events_dir=args.events_dir)
    port = DEFAULT_PORT if args.port is None else args.port
    server = ServeServer(manager, port=port, host=args.host).start()
    print(f"serve: listening on {server.url} "
          f"(device {args.device_mb:g}MiB, max {args.max_jobs} jobs)",
          flush=True)

    stop = threading.Event()

    def _signal(signum, _frame):
        print(f"serve: caught signal {signum}, draining "
              "(running jobs stop at the next group-pass boundary)",
              flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, _signal)
    signal.signal(signal.SIGINT, _signal)
    try:
        stop.wait()
    finally:
        manager.shutdown()
        server.stop()
        stats = manager.stats()["jobs"]
        served = stats.get("done", 0)
        print(f"serve: shutdown complete ({served} jobs completed, "
              f"{stats.get('cancelled', 0)} cancelled)", flush=True)
    return 0


def _cmd_submit(args) -> int:
    from .serve import ServeClient

    payload = {"tenant": args.tenant, "shots": args.shots}
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.qasm:
        with open(args.qasm) as fh:
            payload["qasm"] = fh.read()
    elif args.workload:
        payload["workload"] = args.workload
        payload["qubits"] = args.qubits
    else:
        raise SystemExit("submit: provide a workload name or --qasm FILE")
    config = {}
    for key in ("compressor", "error_bound", "chunk_qubits", "workers"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    if args.fusion is not None:
        config["fusion"] = args.fusion
    if config:
        payload["config"] = config
    client = ServeClient(_serve_url(args))
    job = client.submit(payload)
    if not args.wait:
        print(json.dumps({"job": job}, indent=2))
        return 0
    snap = client.wait(job["id"], timeout=args.timeout)
    if snap["state"] == "done":
        print(json.dumps(client.result(job["id"]), indent=2))
        return 0
    print(json.dumps({"job": snap}, indent=2))
    return 1


def _cmd_jobs(args) -> int:
    from .serve import ServeClient

    jobs = ServeClient(_serve_url(args)).jobs()
    t = Table(["id", "tenant", "state", "circuit", "n", "progress"],
              title="daemon jobs")
    for j in jobs:
        frac = j.get("progress", {}).get("fraction")
        t.add(j["id"], j["tenant"], j["state"],
              j["circuit"]["name"] or "qasm", j["circuit"]["num_qubits"],
              f"{frac * 100:.1f}%" if isinstance(frac, float) else "-")
    print(t.render())
    return 0


def _cmd_result(args) -> int:
    from .serve import ServeAPIError, ServeClient

    try:
        print(json.dumps(ServeClient(_serve_url(args)).result(args.job_id),
                         indent=2))
        return 0
    except ServeAPIError as exc:
        print(f"result: {exc}", file=sys.stderr)
        return 1


def _cmd_cancel(args) -> int:
    from .serve import ServeAPIError, ServeClient

    try:
        job = ServeClient(_serve_url(args)).cancel(args.job_id)
        print(json.dumps({"job": job}, indent=2))
        return 0
    except ServeAPIError as exc:
        print(f"cancel: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "workloads": _cmd_workloads,
        "compressors": _cmd_compressors,
        "plan": _cmd_plan,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "memtrace": _cmd_memtrace,
        "audit": _cmd_audit,
        "top": _cmd_top,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "result": _cmd_result,
        "cancel": _cmd_cancel,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout consumer (head, less) closed the pipe — normal exit.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
