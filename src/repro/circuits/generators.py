"""Workload circuit generators.

These produce the circuits used throughout the examples, tests and
benchmarks: the structured algorithms MEMQSim's intro motivates (QFT, Grover,
QAOA, VQE) plus entanglement ladders and random/supremacy-style circuits
whose state vectors have very different compressibility — which is exactly
the "algorithm behaviour affects the access pattern / ratio" axis the paper
calls out as design challenge (3).

All generators return plain :class:`~repro.circuits.Circuit` objects.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .circuit import Circuit

__all__ = [
    "ghz",
    "w_state",
    "qft",
    "iqft",
    "grover",
    "qaoa_maxcut",
    "vqe_ansatz",
    "quantum_volume",
    "random_circuit",
    "supremacy_brickwork",
    "bernstein_vazirani",
    "deutsch_jozsa",
    "phase_estimation",
    "trotter_ising",
    "cuccaro_adder",
    "WORKLOADS",
    "get_workload",
]


def ghz(num_qubits: int) -> Circuit:
    """GHZ ladder: H on qubit 0, then a CX chain."""
    c = Circuit(num_qubits, name=f"ghz{num_qubits}")
    c.h(0)
    for q in range(num_qubits - 1):
        c.cx(q, q + 1)
    return c


def w_state(num_qubits: int) -> Circuit:
    """W state via cascaded controlled rotations (exact construction)."""
    n = num_qubits
    c = Circuit(n, name=f"w{n}")
    # Start |10...0>, then rotate amplitude down the ladder.
    c.x(0)
    for k in range(1, n):
        # Block k-1 keeps probability 1/(n-k+1) of the remaining amplitude
        # on qubit k-1 and moves the rest to qubit k.
        theta = 2 * math.acos(math.sqrt(1.0 / (n - k + 1)))
        c.cry(theta, k - 1, k)
        c.cx(k, k - 1)
    return c


def qft(num_qubits: int, swaps: bool = True) -> Circuit:
    """Quantum Fourier transform (textbook: H + controlled phases)."""
    n = num_qubits
    c = Circuit(n, name=f"qft{n}")
    for q in reversed(range(n)):
        c.h(q)
        for j in range(q):
            c.cp(math.pi / (1 << (q - j)), j, q)
    if swaps:
        for q in range(n // 2):
            c.swap(q, n - 1 - q)
    return c


def iqft(num_qubits: int, swaps: bool = True) -> Circuit:
    inv = qft(num_qubits, swaps=swaps).inverse()
    inv.name = f"iqft{num_qubits}"
    return inv


def _mcz_exact(c: Circuit, qubits: Sequence[int]) -> None:
    """Multi-controlled Z as a compact stored-diagonal gate."""
    k = len(qubits)
    d = np.ones(1 << k, dtype=np.complex128)
    d[-1] = -1.0
    c.diagonal(d, *qubits)


def grover(num_qubits: int, marked: int = 0, iterations: Optional[int] = None) -> Circuit:
    """Grover search for basis state ``marked`` on ``num_qubits`` qubits."""
    n = num_qubits
    if not 0 <= marked < (1 << n):
        raise ValueError("marked state out of range")
    if iterations is None:
        iterations = max(1, int(round(math.pi / 4 * math.sqrt(1 << n))))
    c = Circuit(n, name=f"grover{n}")
    for q in range(n):
        c.h(q)
    all_qubits = list(range(n))
    for _ in range(iterations):
        # Oracle: phase-flip |marked>.
        for q in range(n):
            if not (marked >> q) & 1:
                c.x(q)
        _mcz_exact(c, all_qubits)
        for q in range(n):
            if not (marked >> q) & 1:
                c.x(q)
        # Diffusion: H X mcz X H.
        for q in range(n):
            c.h(q)
            c.x(q)
        _mcz_exact(c, all_qubits)
        for q in range(n):
            c.x(q)
            c.h(q)
    return c


def qaoa_maxcut(
    graph, p: int = 1, gammas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
) -> Circuit:
    """QAOA MaxCut circuit for a networkx graph (nodes must be 0..n-1)."""
    import networkx as nx  # local import keeps module load light

    if not isinstance(graph, nx.Graph):
        raise TypeError("graph must be a networkx Graph")
    nodes = sorted(graph.nodes())
    if nodes != list(range(len(nodes))):
        raise ValueError("graph nodes must be 0..n-1")
    n = len(nodes)
    if gammas is None:
        gammas = [0.8 * (k + 1) / p for k in range(p)]
    if betas is None:
        betas = [0.7 * (p - k) / p for k in range(p)]
    if len(gammas) != p or len(betas) != p:
        raise ValueError("need p gammas and p betas")
    c = Circuit(n, name=f"qaoa{n}p{p}")
    for q in range(n):
        c.h(q)
    for layer in range(p):
        for (u, v) in graph.edges():
            c.rzz(2 * gammas[layer], u, v)
        for q in range(n):
            c.rx(2 * betas[layer], q)
    return c


def vqe_ansatz(
    num_qubits: int, layers: int = 2, seed: Optional[int] = 7,
    params: Optional[np.ndarray] = None,
) -> Circuit:
    """Hardware-efficient VQE ansatz: RY/RZ layers + CX entangler ladder."""
    n = num_qubits
    need = layers * n * 2
    if params is None:
        rng = np.random.default_rng(seed)
        params = rng.uniform(0, 2 * math.pi, size=need)
    params = np.asarray(params, dtype=float)
    if params.shape != (need,):
        raise ValueError(f"need {need} params")
    c = Circuit(n, name=f"vqe{n}x{layers}")
    k = 0
    for _ in range(layers):
        for q in range(n):
            c.ry(float(params[k]), q)
            k += 1
            c.rz(float(params[k]), q)
            k += 1
        for q in range(n - 1):
            c.cx(q, q + 1)
    return c


def quantum_volume(num_qubits: int, depth: Optional[int] = None,
                   seed: Optional[int] = 11) -> Circuit:
    """Quantum-volume style circuit: random SU(4) on random qubit pairs."""
    from scipy.stats import unitary_group

    n = num_qubits
    if depth is None:
        depth = n
    rng = np.random.default_rng(seed)
    c = Circuit(n, name=f"qv{n}")
    for _ in range(depth):
        perm = rng.permutation(n)
        for i in range(0, n - 1, 2):
            a, b = int(perm[i]), int(perm[i + 1])
            u = unitary_group.rvs(4, random_state=rng)
            c.unitary(u, a, b)
    return c


_RANDOM_1Q = ["h", "x", "y", "z", "s", "t", "sx"]
_RANDOM_1QP = ["rx", "ry", "rz", "p"]
_RANDOM_2Q = ["cx", "cz", "swap", "iswap"]
_RANDOM_2QP = ["cp", "rzz", "rxx"]


def random_circuit(num_qubits: int, num_gates: int, seed: Optional[int] = 3,
                   two_qubit_prob: float = 0.35) -> Circuit:
    """Uniformly random circuit over the named standard gate set."""
    rng = np.random.default_rng(seed)
    n = num_qubits
    c = Circuit(n, name=f"random{n}x{num_gates}")
    for _ in range(num_gates):
        if n >= 2 and rng.random() < two_qubit_prob:
            a, b = rng.choice(n, size=2, replace=False)
            if rng.random() < 0.5:
                c.add(str(rng.choice(_RANDOM_2Q)), int(a), int(b))
            else:
                c.add(str(rng.choice(_RANDOM_2QP)), int(a), int(b),
                      params=(float(rng.uniform(0, 2 * math.pi)),))
        else:
            q = int(rng.integers(n))
            if rng.random() < 0.5:
                c.add(str(rng.choice(_RANDOM_1Q)), q)
            else:
                c.add(str(rng.choice(_RANDOM_1QP)), q,
                      params=(float(rng.uniform(0, 2 * math.pi)),))
    return c


def supremacy_brickwork(num_qubits: int, depth: int = 8,
                        seed: Optional[int] = 5) -> Circuit:
    """Supremacy-style 1-D brickwork: random sqrt-gates + fSim couplers."""
    rng = np.random.default_rng(seed)
    n = num_qubits
    c = Circuit(n, name=f"supremacy{n}d{depth}")
    singles = ["sx", "sxdg", "t"]
    for layer in range(depth):
        for q in range(n):
            c.add(str(rng.choice(singles)), q)
        start = layer % 2
        for q in range(start, n - 1, 2):
            c.fsim(math.pi / 2, math.pi / 6, q, q + 1)
    return c


def bernstein_vazirani(secret: int, num_qubits: int) -> Circuit:
    """BV circuit recovering ``secret`` (phase-oracle form, no ancilla)."""
    n = num_qubits
    if secret >= (1 << n):
        raise ValueError("secret too large")
    c = Circuit(n, name=f"bv{n}")
    for q in range(n):
        c.h(q)
    for q in range(n):
        if (secret >> q) & 1:
            c.z(q)
    for q in range(n):
        c.h(q)
    return c


def deutsch_jozsa(num_qubits: int, balanced: bool = True,
                  mask: Optional[int] = None) -> Circuit:
    """Deutsch–Jozsa with a phase oracle (constant or balanced-by-mask)."""
    n = num_qubits
    c = Circuit(n, name=f"dj{n}")
    for q in range(n):
        c.h(q)
    if balanced:
        m = mask if mask is not None else (1 << (n - 1)) | 1
        for q in range(n):
            if (m >> q) & 1:
                c.z(q)
    for q in range(n):
        c.h(q)
    return c


def phase_estimation(phase: float, precision_qubits: int) -> Circuit:
    """QPE estimating ``phase`` of a P(2*pi*phase) eigenvalue on 1 target."""
    t = precision_qubits
    n = t + 1
    c = Circuit(n, name=f"qpe{t}")
    target = t
    c.x(target)  # eigenstate |1> of the phase gate
    for q in range(t):
        c.h(q)
    for q in range(t):
        c.cp(2 * math.pi * phase * (1 << q), q, target)
    # Inverse QFT on the counting register.
    inv = iqft(t)
    for g in inv:
        c.append(g)
    return c


def trotter_ising(num_qubits: int, steps: int = 4, dt: float = 0.1,
                  j: float = 1.0, g: float = 0.5) -> Circuit:
    """First-order Trotter evolution under the transverse-field Ising chain.

    Approximates ``exp(-i t H)`` for ``H = -J sum Z_i Z_{i+1} - g sum X_i``
    with ``steps`` steps of size ``dt`` (``t = steps * dt``). Convention:
    ``rzz(theta) = exp(-i theta/2 ZZ)``, so each step applies
    ``rzz(-2 J dt)`` per bond and ``rx(-2 g dt)`` per site.
    """
    n = num_qubits
    c = Circuit(n, name=f"trotter{n}x{steps}")
    for _ in range(steps):
        for i in range(n - 1):
            c.rzz(-2.0 * j * dt, i, i + 1)
        for q in range(n):
            c.rx(-2.0 * g * dt, q)
    return c


def cuccaro_adder(num_bits: int) -> Circuit:
    """Cuccaro ripple-carry adder: ``b := a + b (mod 2^n)``, carry-out in z.

    Register layout on ``2*num_bits + 2`` qubits:
        qubit 0                  — carry-in ancilla (must be |0>)
        qubit 1 + 2i             — a_i
        qubit 2 + 2i             — b_i
        qubit 2*num_bits + 1     — z (carry out, must be |0>)
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    n = num_bits
    c = Circuit(2 * n + 2, name=f"adder{n}")
    a = [1 + 2 * i for i in range(n)]
    b = [2 + 2 * i for i in range(n)]
    c0 = 0
    z = 2 * n + 1

    def maj(x, y, w):
        c.cx(w, y)
        c.cx(w, x)
        c.ccx(x, y, w)

    def uma(x, y, w):
        c.ccx(x, y, w)
        c.cx(w, x)
        c.cx(x, y)

    maj(c0, b[0], a[0])
    for i in range(1, n):
        maj(a[i - 1], b[i], a[i])
    c.cx(a[n - 1], z)
    for i in range(n - 1, 0, -1):
        uma(a[i - 1], b[i], a[i])
    uma(c0, b[0], a[0])
    return c


# -- registry used by benchmarks and the CLI ------------------------------

def _make_qaoa(n: int) -> Circuit:
    import networkx as nx

    g = nx.random_regular_graph(3, n if n % 2 == 0 else n - 1, seed=1)
    g.add_nodes_from(range(n))
    return qaoa_maxcut(nx.convert_node_labels_to_integers(g), p=2)


WORKLOADS = {
    "ghz": ghz,
    "w": w_state,
    "qft": qft,
    "grover": lambda n: grover(n),
    "qaoa": _make_qaoa,
    "vqe": lambda n: vqe_ansatz(n, layers=3),
    "qv": lambda n: quantum_volume(n, depth=min(n, 8)),
    "random": lambda n: random_circuit(n, num_gates=20 * n),
    "supremacy": lambda n: supremacy_brickwork(n, depth=8),
    "bv": lambda n: bernstein_vazirani((1 << n) - 1, n),
    "trotter": lambda n: trotter_ising(n, steps=6),
}


def get_workload(name: str, num_qubits: int) -> Circuit:
    """Build the named workload circuit at ``num_qubits`` qubits."""
    try:
        fn = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; have {sorted(WORKLOADS)}") from None
    return fn(num_qubits)
