"""Fault injection: a full disk and a killed process.

Each case runs in a child process, so that a file-size limit or a SIGKILL
hits that process only. A full disk is ``RLIMIT_FSIZE`` with ``SIGXFSZ``
ignored: a write past the limit fails with ``EFBIG``, as a full disk fails
one with ``ENOSPC``. Whatever a fault interrupts, a file is left whole or
not at all, and no scratch file survives the process that made it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: the child's preamble: its own temp dir, no bytecode written, SIGXFSZ
#: ignored, and ``limit(n)`` caps every file it writes at ``n`` bytes
PREAMBLE = """
import json, os, resource, signal, sys, time
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
SOFT, HARD = resource.getrlimit(resource.RLIMIT_FSIZE)
def limit(nbytes):
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, HARD))
def lift():
    resource.setrlimit(resource.RLIMIT_FSIZE, (SOFT, HARD))
"""


def run_child(body, tmp_path, *args):
    """Run ``PREAMBLE + body`` with ``TMPDIR`` set to ``tmp_path / "tmp"``;
    returns the finished process (stdout captured)."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", PREAMBLE + body,
                           *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=240)


KILLED_STORE = """
import numpy as np
from repro.compression import get_compressor
from repro.memory import BlobLog, ChunkLayout, TieredChunkStore
store = TieredChunkStore(ChunkLayout(8, 3), get_compressor("zlib"), None, 1)
rng = np.random.default_rng(0)
for _ in range(3):  # every blob over the 1 B budget: all on the log
    store.init_from_statevector(rng.standard_normal(256) + 0j)
assert store.file_bytes > 0 and store.garbage_fraction > 0
if sys.argv[1] == "mid-compaction":
    # the kill lands on the sibling's first append
    BlobLog.append = lambda self, blob: os.kill(os.getpid(), signal.SIGKILL)
store.compact()
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.parametrize("when", ["after-compaction", "mid-compaction"])
def test_a_killed_process_leaves_no_log(tmp_path, when):
    """A tiered store's own log (and its compaction sibling) is unlinked
    as it is opened: a SIGKILL leaves nothing in the temp dir."""
    proc = run_child(KILLED_STORE, tmp_path, when)
    assert proc.returncode == -9, proc.stderr
    assert sorted(p.name for p in (tmp_path / "tmp").iterdir()) == []


SAVE_ON_FULL_DISK = """
import errno
import numpy as np
from repro.compression import get_compressor
from repro.memory import ChunkLayout, CompressedChunkStore, save_store
from repro.memory import load_store
path = sys.argv[1]
store = CompressedChunkStore(ChunkLayout(6, 3), get_compressor("zlib"))
store.init_zero_state()
size = save_store(store, path)
before = open(path, "rb").read()
rng = np.random.default_rng(1)
store.init_from_statevector(rng.standard_normal(64) + 1j)
limit(size)
try:
    save_store(store, path)
except OSError as exc:
    print(json.dumps({"errno": errno.errorcode[exc.errno]}))
lift()
assert open(path, "rb").read() == before
sv = load_store(path, get_compressor("zlib")).to_statevector()
assert sv[0] == 1 and not sv[1:].any()
"""


def test_a_checkpoint_save_on_a_full_disk(tmp_path):
    """The save raises, the previous checkpoint is byte-identical and
    still loads, and no temp sibling is left."""
    ckpt = tmp_path / "run.mqs"
    proc = run_child(SAVE_ON_FULL_DISK, tmp_path, ckpt)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"errno": "EFBIG"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.mqs", "tmp"]


EVENTS_ON_FULL_DISK = """
from repro.core import MemQSimConfig
from repro.device import DeviceSpec
from repro.serve import ServeManager
from repro.telemetry import Telemetry
events = sys.argv[1]
os.makedirs(events)
tel = Telemetry()
mgr = ServeManager(MemQSimConfig(chunk_qubits=4, compressor="zlib",
                                 device=DeviceSpec(memory_bytes=1 << 11)),
                   tel, events_dir=events)

def finish(job):
    # the daemon's "serve.job.end" comes after the job's events flush
    while not any(ev.kind == "serve.job.end" and ev.data["job_id"] == job.id
                  for ev in tel.bus.snapshot()):
        time.sleep(0.01)
    return job.state

try:
    limit(1000)
    full = [mgr.submit({"workload": "qft", "qubits": 10}) for _ in range(2)]
    states = [finish(job) for job in full]
    left = sorted(os.listdir(events))
    lift()
    job = mgr.submit({"workload": "qft", "qubits": 10})
    states.append(finish(job))
    lines = open(os.path.join(events, job.id + ".events.jsonl")).read()
    print(json.dumps({"states": states, "left": left,
                      "files": sorted(os.listdir(events)),
                      "want": job.id + ".events.jsonl",
                      "bytes": len(lines),
                      "lines": [json.loads(line)["kind"]
                                for line in lines.splitlines()]}))
finally:
    mgr.shutdown()
"""


def test_a_full_disk_leaves_no_partial_events_file(tmp_path):
    """Two jobs whose events files do not fit stay ``done`` and leave
    neither a file nor a temp sibling; once the limit is lifted the daemon
    flushes the next job's events whole."""
    proc = run_child(EVENTS_ON_FULL_DISK, tmp_path, tmp_path / "events")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["states"] == ["done"] * 3
    assert out["left"] == []
    assert out["files"] == [out["want"]]
    assert out["bytes"] > 1000  # the same job's file did not fit
    assert out["lines"][0] == "run.start" and out["lines"][-1] == "run.end"
