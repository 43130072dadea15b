"""Host ceilings and the stability canary.

Each tier edge of the program is reported against what this host can do on
the same kind of work: a plain memory copy (the arena transfers), zlib at
the level the lossless codec uses, and append+fsync / mmap reads on the
directory the disk log lives in. The canary is a fixed piece of pure-numpy
work. Timed before and after a workload it says whether the host changed
under the measurement (the record is then marked unstable); timed between
the operations of an untraced run it is the yardstick their seconds are
scaled by, because this host's speed moves by 10-20% over seconds.

Run ``python3 benchmarks/e2e/probe.py`` to print the ceilings on their own.
"""

from __future__ import annotations

import json
import mmap
import os
import platform
import statistics
import sys
import tempfile
import time
import zlib

import numpy as np

#: the per-core L2 of the host the baseline was taken on; the copied array
#: must be at least four times this so the copy is not served from L2. (The
#: VM also reports a 260 MiB L3 shared with other guests, which no array we
#: can afford exceeds: the ceiling is "memory or shared L3", and is stated
#: with both sizes wherever it is printed.)
L2_BYTES = 4 << 20
MEMCPY_BYTES = 64 << 20
ZLIB_BYTES = 4 << 20
DISK_BYTES = 16 << 20
DISK_RECORD = 64 << 10
CANARY_DRIFT_LIMIT = 0.10
#: one canary pass on the baseline host when nothing else runs; timings
#: scaled by the canary are "seconds at the speed where a pass takes this"
CANARY_REFERENCE_S = 0.055


def _median_seconds(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def memcpy_gbps(nbytes=MEMCPY_BYTES):
    src = np.ones(nbytes // 8, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # touch both arrays before timing
    return src.nbytes / _median_seconds(lambda: np.copyto(dst, src), 5) / 1e9


def zlib_mbps(nbytes=ZLIB_BYTES):
    """Level-1 deflate of seeded complex amplitudes (the lossless codec's
    input on a high-entropy state)."""
    rng = np.random.default_rng(12345)
    amps = rng.standard_normal(nbytes // 8)
    raw = (amps / np.linalg.norm(amps)).tobytes()
    return len(raw) / _median_seconds(lambda: zlib.compress(raw, 1), 3) / 1e6


def disk_mbps(directory, nbytes=DISK_BYTES):
    """``(write, read)`` MB/s: appends of 64 KiB records ended by one fsync,
    then the same records copied out of an mmap of the file, which is how
    the program's blob log writes and reads."""
    record = bytes(DISK_RECORD)
    count = nbytes // DISK_RECORD
    fd, path = tempfile.mkstemp(prefix="probe_", dir=directory)
    try:
        with os.fdopen(fd, "w+b") as fh:
            t0 = time.perf_counter()
            for _ in range(count):
                fh.write(record)
            fh.flush()
            os.fsync(fh.fileno())
            write_s = time.perf_counter() - t0
            with mmap.mmap(fh.fileno(), count * DISK_RECORD,
                           access=mmap.ACCESS_READ) as mm:
                t0 = time.perf_counter()
                for i in range(count):
                    bytes(mm[i * DISK_RECORD:(i + 1) * DISK_RECORD])
                read_s = time.perf_counter() - t0
    finally:
        os.unlink(path)
    total = count * DISK_RECORD
    return total / write_s / 1e6, total / read_s / 1e6


def ceilings(directory, scale=1):
    """All four ceilings; ``scale`` > 1 shrinks the buffers (smoke runs)."""
    write, read = disk_mbps(directory, DISK_BYTES // scale)
    return {
        "host.memcpy_GBps": memcpy_gbps(MEMCPY_BYTES // scale),
        "host.zlib_MBps": zlib_mbps(ZLIB_BYTES // scale),
        "host.disk_write_MBps": write,
        "host.disk_read_MBps": read,
    }


class Canary:
    """A fixed mix of what the program does per chunk: in-place butterflies
    over 2048 cache-resident complex amplitudes and level-1 zlib round
    trips of the same bytes. Nothing is allocated per pass, so the time
    follows the speed of the core, not the page allocator."""

    def __init__(self):
        rng = np.random.default_rng(2023)
        state = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        pairs = state.reshape(-1, 2, 64)
        self.lo, self.hi = pairs[:, 0, :], pairs[:, 1, :]
        self.a, self.b = np.empty_like(self.lo), np.empty_like(self.lo)
        self.raw = state.tobytes()

    def one_pass(self):
        lo, hi, a, b = self.lo, self.hi, self.a, self.b
        for _ in range(1500):
            np.add(lo, hi, out=a)
            np.subtract(lo, hi, out=b)
            np.multiply(a, 0.5, out=lo)
            np.multiply(b, 0.5, out=hi)
        for _ in range(40):
            zlib.decompress(zlib.compress(self.raw, 1))

    def seconds(self, repeats=9):
        """Fastest of ``repeats`` passes. The fastest pass follows what the
        core can do right now (1.8% apart over a dozen readings taken
        between runs on the baseline host, where the median pass moved
        5.7%), so it rises only when the host really slowed down."""
        self.one_pass()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.one_pass()
            times.append(time.perf_counter() - t0)
        return min(times)


def drift(before_s, after_s):
    return abs(after_s / before_s - 1.0)


def fingerprint():
    """What identifies the host a record was taken on."""
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "l2_bytes_assumed": L2_BYTES,
        "memcpy_array_bytes": MEMCPY_BYTES,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


if __name__ == "__main__":
    report = dict(fingerprint())
    report.update(ceilings(os.path.dirname(os.path.abspath(__file__))))
    canary = Canary()
    report["host.canary_s"] = canary.seconds()
    json.dump(report, sys.stdout, indent=2)
    print()
