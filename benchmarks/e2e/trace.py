"""Spans at the layer boundaries, recorded from outside the program.

The program's own ``stage_breakdown`` leaves most of a run unattributed
and books write-back compression under ``decompress``, so the benchmark
takes the split where one layer calls the next: for the traced run only,
the public callables listed by :func:`targets` are replaced by wrappers that
record a span, and :meth:`Tracer.uninstall` puts the originals back.

A span is ``[key, parent, root, start, end, n, m]``: ``key`` indexes
:attr:`Tracer.keys` (layer, name, bucket), ``parent`` and ``root`` are span
ids (a span's id is its position in :attr:`Tracer.spans`; a root's parent
is -1), and ``n``/``m`` are the call's work counts (bytes, amplitudes).
Nothing is recorded outside a root, so result queries made by the output
checks between operations leave no spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

KEY, PARENT, ROOT, START, END, N, M = range(7)


def _codec_in(args, out):  # compress(self, data) -> blob
    return args[1].nbytes, len(out)


def _codec_out(args, out):  # decompress(self, blob) -> array
    return out.nbytes, len(args[1])


def _copy(args, out):  # h2d/d2h(self, src, dst)
    return args[1].nbytes, 0


def _kernel(args, out):  # apply_ops(self, buf, ops): amplitude updates, ops
    return args[1].shape[0] * len(args[2]), len(args[2])


def _blob_out(args, out):  # BlobLog.read(self, rec) -> blob
    return len(out), 0


def _blob_in(args, out):  # BlobLog.append(self, blob)
    return len(args[1]), 0


def targets():
    """``(layer, owner, attribute, bucket, measure)`` for every wrapped call.

    ``bucket`` is the per-layer metric the span's self time is booked to.
    ``plan_stages``, ``describe_plan`` and ``compile_stages`` are wrapped
    where :class:`MemQSim` looks them up (its module's globals), because a
    name bound by ``from x import f`` does not see a patch of ``x.f``.
    """
    import repro.compile
    import repro.core.memqsim as facade
    from repro.compression import SZLikeCompressor, ZlibCompressor
    from repro.core import MemQSim, NumpyKernelBackend
    from repro.device import DeviceExecutor, SyncCopy
    from repro.memory import (BlobLog, BufferPool, ChunkCache,
                              CompressedChunkStore, TieredChunkStore)
    from repro.observables import PauliSum
    from repro.pipeline import StageScheduler
    from repro.statevector import DenseSimulator

    rows = []
    for codec in (SZLikeCompressor, ZlibCompressor):
        rows.append(("compression", codec, "compress", "compress", _codec_in))
        rows.append(("compression", codec, "decompress", "decompress",
                     _codec_out))
    rows.append(("statevector", NumpyKernelBackend, "apply_ops", "kernel",
                 _kernel))
    rows.append(("statevector", DenseSimulator, "run", "dense", None))
    rows.append(("device", SyncCopy, "h2d", "h2d", _copy))
    rows.append(("device", SyncCopy, "d2h", "d2h", _copy))
    for attr in ("alloc", "free", "run_ops"):
        rows.append(("device", DeviceExecutor, attr, "arena", None))
    for attr in ("load", "store", "permute", "init_zero_state"):
        rows.append(("memory", CompressedChunkStore, attr, "store", None))
    # will_need is where the tiered store promotes blobs from the disk log.
    for attr in ("load", "store", "permute", "init_zero_state", "will_need"):
        rows.append(("memory", TieredChunkStore, attr, "store", None))
    for attr in ("load", "store", "flush"):
        rows.append(("memory", ChunkCache, attr, "cache", None))
    for attr in ("acquire", "release"):
        rows.append(("memory", BufferPool, attr, "pool", None))
    rows.append(("memory", BlobLog, "read", "disk_read", _blob_out))
    rows.append(("memory", BlobLog, "append", "disk_write", _blob_in))
    rows.append(("pipeline", facade, "plan_stages", "plan", None))
    rows.append(("pipeline", facade, "describe_plan", "plan", None))
    rows.append(("pipeline", StageScheduler, "run", "scheduler", None))
    rows.append(("compile", facade, "compile_stages", "compile", None))
    rows.append(("compile", repro.compile, "compile_gates", "compile", None))
    rows.append(("core", MemQSim, "run", "facade", None))
    rows.append(("observables", PauliSum, "expectation_chunked", "query",
                 None))
    return rows


def _definer(owner, attr):
    """The object whose namespace holds ``attr``: a module is its own; a
    class defers to the base that defines an inherited method, so one call
    makes one span however many subclasses were named."""
    for base in getattr(owner, "__mro__", (owner,)):
        if attr in vars(base):
            return base
    raise AttributeError(f"{owner!r} has no {attr!r}")


class Tracer:
    """Records spans in memory; :func:`write` puts them in a file."""

    def __init__(self):
        self.spans = []
        self.keys = []  # key index -> (layer, name, bucket)
        self._key_ids = {}
        self._stack = []
        self._patched = []  # (holder, attribute, original)
        self._before = []  # (owner, attribute, what getattr gave)

    def _key(self, layer, name, bucket):
        key = (layer, name, bucket)
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def _wrap(self, fn, key, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [key, stack[-1], spans[stack[0]][ROOT], 0.0, 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[N], span[M] = measure(args, out)
            return out

        return traced

    def install(self):
        """Wrap every target; returns how many callables were replaced."""
        rows = targets()
        self._before = [(owner, attr, getattr(owner, attr))
                        for _, owner, attr, _, _ in rows]
        seen = set()
        for layer, owner, attr, bucket, measure in rows:
            holder = _definer(owner, attr)
            if (holder, attr) in seen:
                continue
            seen.add((holder, attr))
            original = vars(holder)[attr]
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            setattr(holder, attr, self._wrap(
                original, self._key(layer, name, bucket), measure))
            self._patched.append((holder, attr, original))
        return len(self._patched)

    def uninstall(self):
        """Restore the originals; returns the targets that are not the
        object they were before :meth:`install`."""
        for holder, attr, original in self._patched:
            setattr(holder, attr, original)
        wrong = [f"{owner.__name__}.{attr}"
                 for owner, attr, before in self._before
                 if getattr(owner, attr) is not before]
        self._patched.clear()
        self._before.clear()
        return wrong

    @contextmanager
    def span(self, layer, name, bucket, root=False):
        """A span around the benchmark's own call into a layer.

        ``root=True`` opens a trace (one operation); otherwise the span is
        recorded only inside one, like the wrapped callables.
        """
        stack, spans = self._stack, self.spans
        if not stack and not root:
            yield
            return
        sid = len(spans)
        span = [self._key(layer, name, bucket), stack[-1] if stack else -1,
                spans[stack[0]][ROOT] if stack else sid, 0.0, 0.0, 0, 0]
        stack.append(sid)
        spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def summarize(self, root_bucket):
        """Totals per bucket over the traces whose root is ``root_bucket``.

        Returns ``(roots, root_seconds, buckets)`` where ``buckets`` maps a
        bucket to ``{"self_s", "calls", "n", "m"}``. Self time is a span's
        duration minus the durations of its direct children; spans nest
        strictly on one thread, so the self times of a trace add up to its
        root's duration.
        """
        if not self.spans:
            return 0, 0.0, {}
        cols = np.array(self.spans, dtype=np.float64)
        key = cols[:, KEY].astype(np.int64)
        parent = cols[:, PARENT].astype(np.int64)
        dur = cols[:, END] - cols[:, START]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_s = dur - covered
        bucket_of_key = [b for _, _, b in self.keys]
        root_ids = [i for i in np.flatnonzero(~has_parent)
                    if bucket_of_key[key[i]] == root_bucket]
        wanted = np.isin(cols[:, ROOT].astype(np.int64), root_ids)
        buckets = {}
        for k in np.unique(key[wanted]):
            rows = wanted & (key == k)
            b = buckets.setdefault(bucket_of_key[k], {
                "self_s": 0.0, "calls": 0, "n": 0, "m": 0})
            b["self_s"] += float(self_s[rows].sum())
            b["calls"] += int(rows.sum())
            b["n"] += int(cols[rows, N].sum())
            b["m"] += int(cols[rows, M].sum())
        return len(root_ids), float(dur[root_ids].sum()), buckets

    def write(self, path):
        """Write every span: one row per span, ids are row numbers."""
        with open(path, "w") as fh:
            json.dump({
                "columns": ["key", "parent", "root", "start_s", "end_s",
                            "n", "m"],
                "keys": [{"layer": layer, "name": name, "bucket": bucket}
                         for layer, name, bucket in self.keys],
                "spans": self.spans,
            }, fh, separators=(",", ":"))
