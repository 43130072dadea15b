"""Transpilation: :func:`decompose_to_natives` rewrites every gate into the
{1q, cx} native set (SWAP -> 3 CX, controlled-U -> standard 2-CX
decomposition, Toffoli -> 6-CX textbook form, stored diagonals are kept
as-is since the chunked executor applies them natively).

Gate fusion and qubit relocation are the compiler's and the planner's
(:mod:`repro.compile`, :mod:`repro.pipeline.planner`), not passes here.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

import numpy as np

from .circuit import Circuit
from .gates import Gate, gate_matrix, make_gate

__all__ = ["decompose_to_natives", "zyz_angles", "synthesize_diagonal"]


def zyz_angles(u: np.ndarray) -> Tuple[float, float, float, float]:
    """ZYZ Euler decomposition: ``u = e^{i a} Rz(b) Ry(c) Rz(d)``.

    Returns ``(a, b, c, d)``. Exact for any 2x2 unitary.
    """
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = cmath.phase(det) / 2.0
    su = u * cmath.exp(-1j * alpha)
    # su is in SU(2): [[cos(c/2) e^{-i(b+d)/2}, -sin(c/2) e^{-i(b-d)/2}],
    #                  [sin(c/2) e^{ i(b-d)/2},  cos(c/2) e^{ i(b+d)/2}]]
    c = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) > 1e-12 and abs(su[1, 0]) > 1e-12:
        bpd = -2.0 * cmath.phase(su[0, 0])
        bmd = 2.0 * cmath.phase(su[1, 0])
        b = (bpd + bmd) / 2.0
        d = (bpd - bmd) / 2.0
    elif abs(su[0, 0]) > 1e-12:
        b = -2.0 * cmath.phase(su[0, 0])
        d = 0.0
    else:
        b = 2.0 * cmath.phase(su[1, 0])
        d = 0.0
    return alpha, b, c, d


def _emit_1q(out: Circuit, u: np.ndarray, q: int) -> None:
    """Emit Rz/Ry/Rz (+ global phase) realizing the 2x2 unitary ``u``."""
    a, b, c, d = zyz_angles(u)
    if abs(d) > 1e-12:
        out.rz(d, q)
    if abs(c) > 1e-12:
        out.ry(c, q)
    if abs(b) > 1e-12:
        out.rz(b, q)
    if abs(a) > 1e-12:
        out.add("gphase", q, params=(a,))


def _emit_controlled_1q(out: Circuit, u: np.ndarray, ctrl: int, tgt: int) -> None:
    """Two-CX decomposition of a controlled single-qubit unitary.

    Standard ABC construction: find A, B, C with ABC = I and
    A X B X C = e^{-i a} U; then CU = (phase on ctrl) A CX B CX C.
    """
    a, b, c, d = zyz_angles(u)
    # C = Rz((d-b)/2), B = Ry(-c/2) Rz(-(d+b)/2), A = Rz(b) Ry(c/2)
    out.rz((d - b) / 2.0, tgt)
    out.cx(ctrl, tgt)
    out.rz(-(d + b) / 2.0, tgt)
    out.ry(-c / 2.0, tgt)
    out.cx(ctrl, tgt)
    out.ry(c / 2.0, tgt)
    out.rz(b, tgt)
    if abs(a) > 1e-12:
        out.p(a, ctrl)


def _emit_ccx(out: Circuit, c1: int, c2: int, t: int) -> None:
    """Textbook 6-CX Toffoli."""
    out.h(t)
    out.cx(c2, t)
    out.tdg(t)
    out.cx(c1, t)
    out.t(t)
    out.cx(c2, t)
    out.tdg(t)
    out.cx(c1, t)
    out.t(c2)
    out.t(t)
    out.h(t)
    out.cx(c1, c2)
    out.t(c1)
    out.tdg(c2)
    out.cx(c1, c2)


def decompose_to_natives(circuit: Circuit) -> Circuit:
    """Rewrite to the {arbitrary 1q, cx, stored-diagonal} native set."""
    out = Circuit(circuit.num_qubits, name=f"{circuit.name}_native")
    for g in circuit:
        _decompose_gate(out, g)
    return out


def _decompose_gate(out: Circuit, g: Gate) -> None:
    n = g.num_qubits
    if g.diag is not None:
        if n <= 2:
            for piece in synthesize_diagonal(g.diag, g.qubits):
                out.append(piece)
        else:
            # Wide stored diagonals (Grover oracles) stay native: the
            # chunked executor applies them locally; exact synthesis
            # would be exponential.
            out.append(g)
        return
    if n == 1:
        if g.name in ("rz", "ry", "rx", "p", "h", "x", "y", "z", "s", "sdg",
                      "t", "tdg", "sx", "sxdg", "id", "gphase"):
            out.append(g)
        else:
            _emit_1q(out, g.matrix, g.qubits[0])
        return
    if g.name == "cx":
        out.append(g)
        return
    if g.name == "swap":
        a, b = g.qubits
        out.cx(a, b).cx(b, a).cx(a, b)
        return
    if g.name == "cz":
        c, t = g.qubits
        out.h(t).cx(c, t).h(t)
        return
    if g.name in ("cy", "ch", "csx", "cp", "cu1", "crx", "cry", "crz", "cu3"):
        c, t = g.qubits
        base = _base_matrix_of_controlled(g)
        _emit_controlled_1q(out, base, c, t)
        return
    if g.name == "rzz":
        a, b = g.qubits
        out.cx(a, b).rz(g.params[0], b).cx(a, b)
        return
    if g.name == "rxx":
        a, b = g.qubits
        out.h(a).h(b).cx(a, b).rz(g.params[0], b).cx(a, b).h(a).h(b)
        return
    if g.name == "ryy":
        a, b = g.qubits
        out.sdg(a).sdg(b).h(a).h(b).cx(a, b).rz(g.params[0], b)
        out.cx(a, b).h(a).h(b).s(a).s(b)
        return
    if g.name == "ccx":
        _emit_ccx(out, *g.qubits)
        return
    if g.name == "ccz":
        c1, c2, t = g.qubits
        out.h(t)
        _emit_ccx(out, c1, c2, t)
        out.h(t)
        return
    if g.name == "cswap":
        c, a, b = g.qubits
        out.cx(b, a)
        _emit_ccx(out, c, a, b)
        out.cx(b, a)
        return
    if n == 2:
        # Arbitrary two-qubit unitaries (iswap, fsim, quantum-volume SU(4),
        # user matrices): KAK-decompose to 1q + rxx/ryy/rzz, then lower
        # those through the same rules (2 CX each).
        from .kak import decompose_two_qubit

        frag = decompose_two_qubit(g.matrix, g.qubits[0], g.qubits[1],
                                   max(g.qubits) + 1)
        for fg in frag:
            _decompose_gate(out, fg)
        return
    # Fallback: keep the gate as an explicit unitary (rare >=3q user
    # matrices). The chunked executor handles any small matrix natively.
    out.append(g)


def _base_matrix_of_controlled(g: Gate) -> np.ndarray:
    """Extract the 2x2 target-block of a singly-controlled named gate."""
    base_names = {
        "cy": ("y", ()),
        "ch": ("h", ()),
        "csx": ("sx", ()),
        "cp": ("p", g.params),
        "cu1": ("u1", g.params),
        "crx": ("rx", g.params),
        "cry": ("ry", g.params),
        "crz": ("rz", g.params),
        "cu3": ("u3", g.params),
    }
    name, params = base_names[g.name]
    return gate_matrix(name, params)


def synthesize_diagonal(diag: np.ndarray, qubits: Tuple[int, ...]) -> list:
    """Synthesize a 1- or 2-qubit diagonal gate as named phase gates.

    Writing the phases as ``theta(t) = alpha + a*b0 + b*b1 + c*b0*b1``
    over the bits, the gate factors into ``gphase``, ``p`` per qubit and
    one ``cp`` — all QASM-expressible. Returns a list of gates; raises for
    wider diagonals (their exact synthesis is exponential).
    """
    k = len(qubits)
    phases = np.angle(np.asarray(diag, dtype=complex))
    out = []
    if k == 1:
        alpha, a = phases[0], phases[1] - phases[0]
        if abs(alpha) > 1e-12:
            out.append(make_gate("gphase", (qubits[0],), (float(alpha),)))
        if abs(a) > 1e-12:
            out.append(make_gate("p", (qubits[0],), (float(a),)))
        return out
    if k == 2:
        # Unwrap relative to theta(0): p/cp angles are defined mod 2*pi.
        t0 = phases[0]
        a = phases[1] - t0          # bit of qubits[0]
        b = phases[2] - t0          # bit of qubits[1]
        c = phases[3] - t0 - a - b  # the correlated part
        if abs(t0) > 1e-12:
            out.append(make_gate("gphase", (qubits[0],), (float(t0),)))
        if abs(a) > 1e-12:
            out.append(make_gate("p", (qubits[0],), (float(a),)))
        if abs(b) > 1e-12:
            out.append(make_gate("p", (qubits[1],), (float(b),)))
        if abs(c) > 1e-12:
            out.append(make_gate("cp", (qubits[0], qubits[1]), (float(c),)))
        return out
    raise ValueError(
        f"cannot synthesize a {k}-qubit diagonal into named gates"
    )
