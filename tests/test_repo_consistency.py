"""Repo-level consistency checks: docs, benchmarks and registries agree.

These tests keep the reproduction package honest as it grows: every bench
module must be wired into the one-command runner and referenced from
DESIGN.md's experiment index, every example must at least import, and the
public package surface must be importable with a sane ``__all__``.
"""

import argparse
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))


class TestBenchmarkWiring:
    def bench_modules(self):
        return sorted(
            p.stem for p in BENCH_DIR.glob("bench_*.py")
        )

    def test_every_bench_in_run_all(self):
        import run_all

        registered = {mod for mod, _ in run_all.EXPERIMENTS.values()}
        missing = set(self.bench_modules()) - registered
        assert not missing, f"bench modules not in run_all: {missing}"

    def test_run_all_entries_exist(self):
        import run_all

        files = set(self.bench_modules())
        ghosts = {m for m, _ in run_all.EXPERIMENTS.values()} - files
        assert not ghosts, f"run_all references missing modules: {ghosts}"

    def test_every_bench_referenced_in_design(self):
        design = (REPO / "DESIGN.md").read_text()
        for mod in self.bench_modules():
            assert mod in design, f"{mod} missing from DESIGN.md"

    def test_every_bench_has_pytest_targets(self):
        for mod in self.bench_modules():
            src = (BENCH_DIR / f"{mod}.py").read_text()
            tree = ast.parse(src)
            names = [n.name for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef)]
            assert any(n.startswith("test_") for n in names), mod

    def test_every_bench_has_main(self):
        for mod in self.bench_modules():
            src = (BENCH_DIR / f"{mod}.py").read_text()
            assert '__main__' in src, f"{mod} lacks a __main__ runner"


class TestExamples:
    def test_examples_listed_in_readme(self):
        readme = (REPO / "README.md").read_text()
        for p in (REPO / "examples").glob("*.py"):
            assert p.name in readme, f"{p.name} missing from README examples"

    def test_examples_compile(self):
        for p in (REPO / "examples").glob("*.py"):
            compile(p.read_text(), str(p), "exec")


class TestPublicSurface:
    PACKAGES = [
        "repro",
        "repro.circuits",
        "repro.statevector",
        "repro.compression",
        "repro.memory",
        "repro.device",
        "repro.pipeline",
        "repro.parallel",
        "repro.core",
        "repro.observables",
        "repro.analysis",
        "repro.telemetry",
        "repro.variational",
        "repro.interop",
        "repro.cli",
    ]

    @pytest.mark.parametrize("name", PACKAGES)
    def test_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", [p for p in PACKAGES if "." in p])
    def test_all_entries_resolve(self, name):
        mod = importlib.import_module(name)
        for entry in getattr(mod, "__all__", []):
            assert hasattr(mod, entry), f"{name}.__all__ lists missing {entry}"

    def test_experiment_ids_documented(self):
        import run_all

        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for exp_id in run_all.EXPERIMENTS:
            assert re.search(rf"\b{exp_id}\b", experiments), (
                f"experiment {exp_id} missing from EXPERIMENTS.md"
            )


class TestConfigSurface:
    """A new ``MemQSimConfig`` knob doubles the configurations tests and
    benchmarks must cover, so it has to be argued for in review: raising
    this count and documenting the field in ``docs/api.md`` is that
    argument's paper trail. (26 before the store/engine/shm-threshold
    knobs became derived values, 23 before the simulated CPU-offload and
    multi-device paths left the run, 21 before window fusion priced its
    windows instead of capping them at ``max_fuse_qubits``, 20 before the
    kernel backend, the transfer strategy and the auto chunk-sizing limits
    stopped being knobs, 16 before the sweep order and the staging-buffer
    count became fixed.)"""

    def test_knob_count_and_documentation(self):
        import dataclasses

        from repro.core import MemQSimConfig

        fields = [f.name for f in dataclasses.fields(MemQSimConfig)]
        assert len(fields) == 14, fields
        api = (REPO / "docs" / "api.md").read_text()
        undocumented = [f for f in fields if f"`{f}`" not in api]
        assert not undocumented, f"not in docs/api.md: {undocumented}"


class TestNoUnturnedKnobs:
    """A run builds the numpy kernels and copies synchronously, and auto
    chunk sizing has fixed limits: the backend registry and its auto
    resolution, the transfer flag and the sizing knobs are gone, and no
    copy of them may come back. ``Backend``, ``EinsumBackend`` and
    Table 1's strategies stay, handed to a ``DeviceExecutor`` directly."""

    GONE = (
        "get_backend", "register_backend", "decide_backend",
        "_probe_backend", "min_chunks", "max_chunk_qubits", "--transfer",
    )

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        # docs/api.md keeps the one list of what was removed: the
        # "### Removed in ..." section that names this guard
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits


class TestAPlanHasNoUnturnedInput:
    """Every run sweeps in boustrophedon order and books two staging
    buffers, and no plan input is probed at run time: the sweep-order
    field and flag, the buffer-count argument of the device sizing and the
    chunk-size probe are gone, and no copy of them may come back. (The
    ``num_buffers`` field is guarded by the field count: ``BufferPool``
    keeps its own argument of that name.)"""

    GONE = (
        "serpentine_groups", "--serpentine", "autotune_chunk_qubits",
        "TuneReport", "--autotune", "double_buffer",
    )
    #: ``plan_key()`` keeps its payload byte for byte: the element the
    #: buffer count wrote stays, as this one literal
    PINNED = {"src/repro/core/config.py": '"double_buffer=True"'}

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        # docs/api.md keeps the one list of what was removed: the
        # "### Removed in ..." section that names this guard
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        for where, literal in self.PINNED.items():
            assert texts[where].count(literal) == 1, where
            texts[where] = texts[where].replace(literal, "")
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits


class TestTheLayerDownIsFixed:
    """The compile passes and the codecs have no setting that nothing
    turns: the compile layer takes one ``fusion`` flag, szlike's factory
    takes ``error_bound`` only and the lossless ones take nothing, and the
    sweep driver that no caller used is gone. No copy of them may come
    back; the "Removed in" sections of docs/api.md are the record of
    what went."""

    GONE = (
        "CompileOptions", "resolve_error_bound", "zlib_level",
        "SweepRecord", "repro.analysis.sweeps",
    )

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        listed = api[start:api.find("\n## ", start)]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": re.sub(r"\n### Removed in .*?(?=\n##)", "",
                                       api, flags=re.S)}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits


class TestTheHuffmanStageIsGone:
    """szlike has two entropy stages, fixed-length packing and zlib. The
    Huffman coder, the bit-level I/O only it used, and its constructor
    value may not come back; the "Removed in" section of docs/api.md that
    names this guard is the record of what went, and so is the DESIGN.md
    paragraph that names it, which says why entropy id 1 has no decoder."""

    GONE = (
        "repro.compression.huffman", "HuffmanCode", "BitWriter",
        "BitReader", "pack_codes", "unpack_bits", "decode_lut",
        "decode_trie", "_HUFFMAN_MAX", 'entropy="huffman"',
    )

    def test_deleted_names_stay_deleted(self):
        name = type(self).__name__
        api = (REPO / "docs/api.md").read_text()
        start = api.rindex("\n### Removed in", 0, api.index(name))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [gone for gone in self.GONE if gone not in listed] == []
        texts = {"docs/api.md": head + tail}
        design = (REPO / "DESIGN.md").read_text().split("\n\n")
        assert sum(name in para for para in design) == 1
        texts["DESIGN.md"] = "\n\n".join(
            para for para in design if name not in para)
        files = [REPO / "README.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {gone}" for where, text in texts.items()
                for gone in self.GONE if gone in text]
        assert not hits, hits


class TestConfigsAreConcrete:
    """A ``MemQSimConfig`` is concrete when it is built: ``precision`` is
    one of three modes, and an unset ``fuse_gates`` is derived inside the
    config. The run-time resolver (``repro.bench``'s corpus lookup and
    probes) is gone, and the simulator reads no benchmark record."""

    GONE = (
        "resolve_auto_config", "decide_precision", "decide_workers",
        "decide_fusion", "needs_auto_resolution", "find_record",
        "load_corpus", "--precision auto",
    )

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        # docs/api.md keeps the one list of what was removed: the
        # "### Removed in ..." section that names this guard
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits

    def test_the_simulator_imports_no_bench_record_code(self):
        src = REPO / "src"
        hits = []
        for path in sorted((src / "repro").rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            package = parts[:-1]  # a module's relative imports start here
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[:len(package) - node.level + 1] \
                        if node.level else ()
                    names = [".".join(base + tuple(
                        (node.module or "").split(".")))]
                    if not node.module:  # from .. import bench
                        names = [".".join(base + (alias.name,))
                                 for alias in node.names]
                else:
                    continue
                hits += [f"{path.relative_to(REPO)}:{node.lineno}: {name}"
                         for name in names
                         if name == "repro.bench"
                         or name.startswith("repro.bench.")]
        assert hits == []


class TestOneStageEngine:
    """There is one group loop (``StageScheduler._run_gate_stage``) and the
    codec pool sits behind the chunk store. The second engine and the
    blob-level store surface it needed must not come back by name — in
    code or in the documents that describe the design."""

    GONE = ("ParallelStageScheduler", "put_blob", "note_decompressed")

    def test_deleted_names_stay_deleted(self):
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += sorted((REPO / "docs").glob("*.md"))
        files += sorted((REPO / "src").rglob("*.py"))
        hits = [f"{path.relative_to(REPO)}: {name}"
                for path in files for name in self.GONE
                if name in path.read_text()]
        assert not hits, hits
        assert not (REPO / "src/repro/parallel/engine.py").exists()


class TestPaperCodecsOnly:
    """The compression plane is the paper's: the SZ-style ``szlike`` plus
    the lossless comparators. The codecs nothing selected, and the support
    code only they used, must not come back by name."""

    GONE = ("AdaptiveCompressor", "BlockFloatCompressor", "CastCompressor",
            "SparseCompressor", "ADP1", "unpack_fields")

    def test_deleted_names_stay_deleted(self):
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += sorted((REPO / "docs").glob("*.md"))
        files += sorted((REPO / "src").rglob("*.py"))
        hits = [f"{path.relative_to(REPO)}: {name}"
                for path in files for name in self.GONE
                if name in path.read_text()]
        assert not hits, hits

    def test_the_registry_holds_the_paper_codecs(self):
        from repro.compression import available_compressors

        assert available_compressors() == ["bz2", "lzma", "null", "szlike",
                                           "zlib"]


class TestKernelSeam:
    """Amplitude arithmetic lives in ``statevector/kernels.py``; a stage
    program lowers each op to a prepared launch there and hands it through
    ``Backend.apply_ops(buf, ops)``, one launch per op. The benchmark's
    tracer wraps that method by name and reads ``len(ops)`` as the launch
    count, so neither the name nor the shape of the call may drift."""

    def test_the_seam_keeps_its_signature(self):
        import inspect

        from repro.core import NumpyKernelBackend

        sys.path.insert(0, str(BENCH_DIR / "e2e"))
        try:
            import trace as e2e_trace
            rows = e2e_trace.targets()
        finally:
            sys.path.remove(str(BENCH_DIR / "e2e"))
            sys.modules.pop("trace", None)
        (row,) = [r for r in rows if r[3] == "kernel"]
        _layer, owner, attr, _bucket, measure = row
        assert (owner, attr) == (NumpyKernelBackend, "apply_ops")
        assert "apply_ops" in vars(NumpyKernelBackend)  # not inherited
        assert list(inspect.signature(
            NumpyKernelBackend.apply_ops).parameters) == ["self", "buf", "ops"]

    def test_len_ops_is_the_number_of_launches(self, monkeypatch):
        import numpy as np

        import repro.pipeline.scheduler as scheduler
        from repro.circuits import get_workload
        from repro.core import MemQSim, NumpyKernelBackend
        from repro.device import DeviceSpec

        ran, apply_ops = [], NumpyKernelBackend.apply_ops
        prepare = scheduler.prepare_launch

        def counting_launch(gate, m):
            launch = prepare(gate, m)

            def counted(buf):
                ran[-1][1] += 1
                launch(buf)
            return counted

        def traced(self, buf, ops):
            ran.append([len(ops), 0])
            apply_ops(self, buf, ops)

        monkeypatch.setattr(scheduler, "prepare_launch", counting_launch)
        monkeypatch.setattr(NumpyKernelBackend, "apply_ops", traced)
        res = MemQSim(chunk_qubits=5, compressor="zlib",
                      enable_permutation_stages=False,
                      device=DeviceSpec(memory_bytes=2048)).run(
                          get_workload("vqe", 10))
        assert ran and all(ops == launched for ops, launched in ran)
        assert sum(ops for ops, _ in ran) == res.scheduler_stats.gates_applied
        assert np.isclose(res.norm(), 1.0)

    def test_no_amplitude_arithmetic_outside_the_kernels(self):
        import inspect

        from repro.core import NumpyKernelBackend

        # core/backend.py is held to it class by class: EinsumBackend there
        # is the independent cross-check and reshapes on its own on purpose.
        sources = {str(path.relative_to(REPO)): path.read_text()
                   for sub in ("pipeline", "device")
                   for path in sorted((REPO / "src/repro" / sub).glob("*.py"))}
        sources["NumpyKernelBackend"] = inspect.getsource(NumpyKernelBackend)
        hits = [f"{name}: {needle}" for name, text in sources.items()
                for needle in ("moveaxis", "(2,) *") if needle in text]
        assert not hits, hits
        kernels = (REPO / "src/repro/statevector/kernels.py").read_text()
        assert "def prepare_launch(" in kernels
        assert "einsum" not in kernels  # the validator shares nothing


class TestOneObserverSeam:
    """The group loop reports through one ``PassObserver`` and every
    pipeline hop is booked once on the run's ``Timeline``; "off" is the
    ``tel.enabled`` guard plus ``NULL_OBSERVER``, not a family of do-nothing
    classes. Neither the twins nor the second timing path may come back."""

    GONE = (
        "_StageBridge", "stage_span", "record_stage", "_codec_span",
        "book_codec", "TransferLog", "TransferRecord", "KernelLaunch",
        "NullTracer", "NullMetrics", "NullEventBus", "NullResourceMonitor",
        "NullProgressTracker", "NullTrafficLedger", "NullChunkAccessRecorder",
        "NULL_EVENT_BUS", "NULL_RESOURCE_MONITOR", "NULL_PROGRESS",
        "NULL_TRAFFIC_LEDGER", "NULL_ACCESS_RECORDER", "NULL_CANCEL",
    )
    #: what the scheduler may not name: the sinks behind the seam
    SINKS = (".progress.", ".traffic.", ".monitor.", ".bus.",
             ".emit(", "stage_span", "telemetry")

    def test_at_most_one_null_twin(self):
        files = sorted((REPO / "src/repro/telemetry").glob("*.py"))
        files.append(REPO / "src/repro/pipeline/cancel.py")
        twins = [f"{path.name}: {m.group(1)}" for path in files
                 for m in re.finditer(r"^class (_?Null\w*)", path.read_text(),
                                      re.MULTILINE)]
        assert len(twins) <= 1, twins

    def test_the_loop_names_no_sink(self):
        code = (REPO / "src/repro/pipeline/scheduler.py").read_text()
        # prose may say what an observer is for; code may not reach past it
        code = re.sub(r'""".*?"""', "", code, flags=re.DOTALL)
        code = "\n".join(line.split("#")[0] for line in code.splitlines()
                         if "import" not in line)
        assert [s for s in self.SINKS if s in code] == []
        loop = code[code.index("def _run_gate_stage"):
                    code.index("def _ops_for_group")]
        assert loop.count("self.observer.") == 1  # the group_pass context
        per_chunk = code[code.index("def _load_group"):
                         code.index("def _device_update")]
        assert "observer" not in per_chunk

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        # docs/api.md keeps the one list of what was removed
        head, _, rest = api.partition("### Removed in PR 22")
        listed, _, tail = rest.partition("\n## ")
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits


class TestOneCodecLane:
    """The codec lane is threads over the one codec object: no process
    pool, no pickled codec, no shared-memory transport, no wall clock to
    re-anchor worker spans by — and no copy of any of it may come back."""

    GONE = (
        "ProcessPoolExecutor", "shared_memory", "DEFAULT_SHM_THRESHOLD",
        "_worker_init", "publish_at", "PoolStats", "start_method",
    )
    #: what no module of the package may use any more
    NO_PROCESSES = re.compile(
        r"multiprocessing|shared_memory|pickle|ProcessPoolExecutor|getpid")

    def test_the_package_spawns_no_process(self):
        hits = [f"{p.relative_to(REPO)}:{n}" for p in
                sorted((REPO / "src/repro").rglob("*.py"))
                for n, line in enumerate(p.read_text().splitlines(), 1)
                if self.NO_PROCESSES.search(line)]
        assert hits == []

    def test_the_pool_is_small(self):
        pool = (REPO / "src/repro/parallel/pool.py").read_text()
        assert len(pool.splitlines()) <= 200
        assert "ThreadPoolExecutor" in pool

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        # docs/api.md keeps the one list of what was removed: the
        # "### Removed in ..." section that names this guard
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits


class TestOneUpdatePath:
    """A run has one device executor, one update path and a stopwatch: the
    simulated CPU-offload and multi-device paths and the modelled makespan
    on every result are gone, and no copy of them may come back. The model
    itself lives on as a labelled what-if in ``repro.analysis``."""

    GONE = (
        "cpu_offload_fraction", "num_devices", "idle_cores",
        "advise_from_timeline", "balanced_offload_fraction", "OffloadAdvice",
        "pipelined_seconds", "cpu_group_passes",
    )

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        # docs/api.md keeps the one list of what was removed: the
        # "### Removed in ..." section that names this guard
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits
        assert not (REPO / "src/repro/pipeline/cpu_offload.py").exists()

    def test_the_run_path_builds_no_model(self):
        hits = [str(p.relative_to(REPO)) for pkg in ("core", "pipeline", "device")
                for p in sorted((REPO / "src/repro" / pkg).rglob("*.py"))
                if "PipelineModel" in p.read_text()]
        assert hits == []


class TestOneRecordPerHop:
    """A pipeline hop is one row of the run's ``Timeline``: the trace draws
    its span from the row at export, the traffic ledger folds its bytes
    when read, and no span, bus event, counter, side-count or ledger entry
    copies it as it happens. The copies must not come back by name, and
    the layers that run hops reach for no tracer, bus or ledger."""

    GONE = (
        "StageEvent", "StoreStats", "from_spans", "kernels_launched",
        "record_at", "worker.compress", "worker.decompress",
        "transfer.h2d.bytes", "codec.compress.bytes_in",
        "codec.decompress.bytes", "kernel.gates", "parallel.jobs",
        "mem.gauge", "codec.choice", "cache.evict", "set_pass",
        "pass_context",
    )
    #: the layers that run hops; they book rows and nothing else
    HOP_LAYERS = ("src/repro/memory/chunkstore.py",
                  "src/repro/memory/accounting.py",
                  "src/repro/memory/bufferpool.py",
                  "src/repro/memory/cache.py",
                  "src/repro/memory/diskstore.py",
                  "src/repro/memory/hierarchy.py",
                  "src/repro/device/*.py", "src/repro/parallel/pool.py")
    #: a telemetry in a signature or a call: ``telemetry=``, ``telemetry:``
    #: or a bare ``telemetry`` argument (``..telemetry`` imports are fine)
    TELEMETRY_PARAM = re.compile(r"(?<![.\w])telemetry\s*[=:,)]")

    @classmethod
    def hop_hits(cls, paths):
        """``path:line: needle`` for every tracer, bus, ledger or registry
        call, and every telemetry parameter, in the code of ``paths``."""
        hits = []
        for path in paths:
            where = path.relative_to(REPO) if REPO in path.parents else path
            code = re.sub(r'""".*?"""', "", path.read_text(), flags=re.DOTALL)
            for n, line in enumerate(code.splitlines(), 1):
                line = line.split("#")[0]
                hits += [f"{where}:{n}: {needle}"
                         for needle in ("tracer.", ".bus", ".emit(",
                                        ".traffic", ".metrics")
                         if needle in line]
                if cls.TELEMETRY_PARAM.search(line):
                    hits.append(f"{where}:{n}: telemetry")
        return hits

    @classmethod
    def mentions(cls, text):
        # "cache.evict" is not "cache.eviction", a counter that stays
        return [name for name in cls.GONE
                if re.search(r"(?<!\w)" + re.escape(name) + r"(?!\w|\.\w)", text)]

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        # docs/api.md keeps the one list of what was removed: the
        # "### Removed in ..." section that names this guard
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert "### Removed in PR 31" in listed
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.mentions(text)]
        assert not hits, hits

    def test_hop_layers_call_no_tracer_or_bus(self):
        files = [p for pattern in self.HOP_LAYERS
                 for p in sorted(REPO.glob(pattern))]
        assert len(files) >= 12
        assert self.hop_hits(files) == []

    def test_the_needles_catch_a_push(self, tmp_path):
        """The guard sees the writes and the parameter it forbids."""
        probe = tmp_path / "layer.py"
        probe.write_text("def f(self, n, telemetry=None):\n"
                         "    self.telemetry.metrics.counter('c').inc()\n"
                         "from ..telemetry import get_logger\n")
        assert [h.rsplit(": ", 1)[1] for h in self.hop_hits([probe])] == [
            "telemetry", ".metrics"]


class TestTheLayersCount:
    """The memory and codec-lane layers keep their own counts (``CacheStats``,
    ``TierStats``, tracker balances, pool and lane counts, a header tally)
    and push none into the metrics registry; a run's telemetry reads them
    when it is read. The push path and the codec's shared scratch pool may
    not come back; the "Removed in" section of docs/api.md that names this
    guard is the record of what went."""

    GONE = ("attach_telemetry", "pool.acquire.wait.seconds", "ScratchPool",
            "scratch_pool")

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert "### Removed in PR 49" in listed
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE if name in text]
        assert not hits, hits
        assert not (REPO / "tests/memory/test_scratchpool.py").exists()

    def test_memory_and_parallel_write_no_registry(self):
        files = [p for pkg in ("memory", "parallel")
                 for p in sorted((REPO / "src/repro" / pkg).glob("*.py"))]
        assert len(files) >= 12
        assert TestOneRecordPerHop.hop_hits(files) == []


class TestTheTraceIsTheSchedule:
    """A run's chunk access trace is its pass schedule, which the run fixes
    before the loop starts and keeps (``MemQSimResult.access_trace()``);
    the audit reads what the loop ran back from its spans. The live
    recorder, the telemetry slot that held it and the observer's barrier
    hook may not come back; the "Removed in" section of docs/api.md that
    names this guard is the record of what went."""

    GONE = ("ChunkAccessRecorder", "observer.barrier", "`barrier(stage)`",
            "PassObserver.barrier", "tel.access", "telemetry.access",
            "Telemetry.access")
    #: a recorder attached to a telemetry, whatever the variable is called
    ATTACH = re.compile(r"\.access\s*=(?!=)")

    def hits(self, texts):
        return [f"{where}: {name}" for where, text in texts.items()
                for name in self.GONE
                if re.search(r"(?<!\w)" + re.escape(name), text)] + \
            [f"{where}: .access =" for where, text in texts.items()
             if self.ATTACH.search(text)]

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in ("ChunkAccessRecorder", "Telemetry.access",
                                  "PassObserver.barrier")
                if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        files += sorted((REPO / "benchmarks").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        assert self.hits(texts) == []

    def test_the_needles_catch_an_attach(self):
        assert self.hits({"probe.py": "tel.access = Recorder()"})
        assert self.hits({"probe.py": "t.access=rec"})
        assert not self.hits({"probe.py": "if t.access == rec: pass"})

    def test_the_observer_has_no_barrier_hook(self):
        import inspect

        from repro.telemetry import PassObserver, RunObserver, Telemetry

        assert not hasattr(PassObserver, "barrier")
        assert not hasattr(RunObserver, "barrier")
        assert "access" not in Telemetry.__slots__
        # one span and two calls per pass: nothing loops over its members
        assert "for " not in inspect.getsource(RunObserver.group_pass)


class TestOneLiveSurface:
    """A run someone wants to watch is a serve daemon job: the daemon is
    the package's one HTTP server. The per-run exposition server, the
    terminal dashboard and the flags that started them may not come back;
    the "Removed in" section of docs/api.md that names this guard is the
    record of what went."""

    GONE = (
        "TelemetryServer", "LiveDashboard", "live_state", "--serve-metrics",
        "--live", "repro top", "repro.telemetry.dashboard",
        "BackgroundHTTPServer", "JSONHandler", "fuse_adjacent_1q",
        "remap_for_locality",
    )

    @classmethod
    def mentions(cls, text, names=None):
        return [name for name in names or cls.GONE
                if re.search(r"(?<![\w-])" + re.escape(name) + r"(?![\w-])",
                             text)]

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / "src").rglob("*.py"))
        texts.update({str(p.relative_to(REPO)): p.read_text() for p in files})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in self.mentions(text)]
        assert not hits, hits

    def test_the_cli_has_no_live_flags_and_no_top(self):
        from repro.cli import build_parser

        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert "top" not in commands
        for argv in (["top"],
                     ["run", "qft", "--serve-metrics", "0"],
                     ["run", "qft", "--live"],
                     ["trace", "qft", "--serve-metrics", "0"],
                     ["trace", "qft", "--live"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, argv

    def test_the_daemon_is_the_one_http_server(self):
        servers = [str(p.relative_to(REPO)) for p in
                   sorted((REPO / "src/repro").rglob("*.py"))
                   if "ThreadingHTTPServer" in p.read_text()]
        assert servers == ["src/repro/serve/server.py"]
        live = (REPO / "src/repro/telemetry/live.py").read_text()
        assert "repro_progress" not in live  # progress is /jobs/{id}'s


class TestOneBenchmarkProtocol:
    """A speed claim across commits is BENCH_E2E's paired protocol
    (``benchmarks/e2e``), and a ``results/BENCH_<id>.json`` record is gated
    by its bench file's own pytest asserts. The package ships no benchmark
    harness: the ``repro.bench`` package, its comparator CLI and the
    baselines that were byte copies of the live records may not come back;
    the "Removed in" section of docs/api.md that names this guard is the
    record of what went. ``BENCH_A6.json`` is the one record baseline:
    ``bench_ablations.py`` checks A6's counts against it."""

    GONE = ("src/repro/bench", "python -m repro.bench")

    def test_deleted_names_stay_deleted(self):
        api = (REPO / "docs/api.md").read_text()
        start = api.rindex("\n### Removed in", 0, api.index(type(self).__name__))
        end = api.find("\n## ", start)
        head, listed, tail = api[:start], api[start:end], api[end:]
        assert [name for name in self.GONE if name not in listed] == []
        texts = {"docs/api.md": head + tail}
        files = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
                 REPO / ".claude/skills/verify/SKILL.md"]
        files += [p for p in sorted((REPO / "docs").glob("*.md"))
                  if p.name != "api.md"]
        files += sorted((REPO / ".github/workflows").glob("*.yml"))
        files += sorted((REPO / "src").rglob("*.py"))
        files += sorted(BENCH_DIR.rglob("*.py")) + sorted(BENCH_DIR.rglob("*.md"))
        texts.update({str(p.relative_to(REPO)): p.read_text()
                      for p in files if p.exists()})
        hits = [f"{where}: {name}" for where, text in texts.items()
                for name in TestOneLiveSurface.mentions(text, self.GONE)]
        assert not hits, hits

    def test_the_package_ships_no_bench_harness(self):
        assert list((REPO / "src/repro/bench").rglob("*.py")) == []
        proc = subprocess.run([sys.executable, "-m", "repro.bench"], cwd=REPO,
                              env=dict(os.environ,
                                       PYTHONPATH=str(REPO / "src")),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and "No module named" in proc.stderr

    def test_a6_is_the_one_record_baseline(self):
        kept = sorted(p.name for p in
                      (REPO / "results/baselines").glob("BENCH_*.json"))
        assert kept == ["BENCH_A6.json"]
