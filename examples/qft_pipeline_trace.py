"""Trace the MEMQSim pipeline on a QFT run (paper Figure 1, live).

Prints the stage plan the offline partitioner produced, then the measured
per-stage time breakdown and the online stage's stopwatch time, and last
the Gantt chart of a *modelled* overlapped schedule replayed from the
measured events (:class:`repro.analysis.PipelineModel`, a what-if).

Run:  python examples/qft_pipeline_trace.py [n]
"""

import sys

from repro.analysis import PipelineModel
from repro.circuits import qft
from repro.core import MemQSim, MemQSimConfig
from repro.device import DeviceSpec
from repro.pipeline import describe_plan, max_group_qubits_for, plan_stages
from repro.memory import ChunkLayout


def main(n: int = 12) -> None:
    circuit = qft(n)
    cfg = MemQSimConfig(
        chunk_qubits=n - 4,
        compressor="szlike",
        compressor_options={"error_bound": 1e-6},
        device=DeviceSpec(memory_bytes=(1 << (n - 2)) * 16),
    )

    # Offline stage, shown explicitly.
    layout = ChunkLayout(n, cfg.chunk_qubits)
    t_max = max_group_qubits_for(layout, cfg.device)
    stages = plan_stages(circuit, layout, t_max)
    rep = describe_plan(stages, layout)
    print(f"QFT n={n}: {len(circuit)} gates -> {rep.num_stages} stages "
          f"({rep.num_local_stages} local, {rep.num_permutation_stages} "
          f"permutation), {rep.group_passes} group passes, "
          f"max group = {rep.max_group_size} global qubits")
    for i, s in enumerate(stages[:12]):
        print(f"  stage {i}: {s!r}")
    if len(stages) > 12:
        print(f"  ... {len(stages) - 12} more")

    # Online stage.
    result = MemQSim(cfg).run(circuit)
    print()
    print(result.report())

    # The overlap model's schedule, as a Gantt chart (Figure 1's shape).
    model = PipelineModel(cpu_codec_lanes=3)
    print(f"\nmodelled makespan (3 codec lanes): "
          f"{model.makespan(result.timeline) * 1e3:.2f} ms, against "
          f"{result.online_seconds * 1e3:.2f} ms on the stopwatch")
    sched, _ = model.schedule(result.timeline.rows[:300])
    print("modelled schedule (first 300 hops; letter = stage initial):")
    print(PipelineModel.gantt(sched))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
