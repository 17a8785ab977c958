"""Independent reference simulator for checking the benchmark's outputs.

The benchmark must not grade the program with the program: this module
shares no code with ``repro.sim`` or ``repro.runtime`` (it imports nothing
from them).  It reads a circuit only as a sequence of ``(name, qubits,
params)`` triples, has its **own** gate-matrix table for exactly the gate
names the workloads emit, and fails loudly on any other name.

Conventions (the ones ``repro.circuits`` documents, pinned by
:func:`self_test` against hand-written vectors):

* amplitude index bit ``q`` is qubit ``q`` (little-endian);
* a gate's matrix index bit ``j`` is ``qubits[j]``;
* controlled gates list the target first and the control last.

Each gate is applied to the state reshaped as a rank-``n`` tensor: the
``2^k`` basis slices of the gate's qubits are combined by the gate matrix.
Rows that are a bare ``1`` on the diagonal leave their slice alone and zero
entries are skipped, so a phase gate costs a quarter-state multiply and a
CNOT two quarter-state copies — the same arithmetic as reshape + matmul,
without sweeping the untouched slices (a 20-qubit check has to fit the
benchmark's time budget).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)


def _controlled(base: list[list[complex]]) -> list[list[complex]]:
    """Target = index bit 0, control = index bit 1: act when control is 1."""
    return [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, base[0][0], base[0][1]],
        [0, 0, base[1][0], base[1][1]],
    ]


def _phase(theta: float) -> list[list[complex]]:
    return [[1, 0], [0, cmath.exp(1j * theta)]]


def _rx(theta: float) -> list[list[complex]]:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return [[c, -1j * s], [-1j * s, c]]


def _ry(theta: float) -> list[list[complex]]:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return [[c, -s], [s, c]]


def _rz(theta: float) -> list[list[complex]]:
    return [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]]


#: name -> (number of qubits, number of parameters, matrix builder).
GATES = {
    "h": (1, 0, lambda: [[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
    "x": (1, 0, lambda: [[0, 1], [1, 0]]),
    "rx": (1, 1, _rx),
    "ry": (1, 1, _ry),
    "rz": (1, 1, _rz),
    "p": (1, 1, _phase),
    "cx": (2, 0, lambda: _controlled([[0, 1], [1, 0]])),
    "cp": (2, 1, lambda theta: _controlled(_phase(theta))),
    "cz": (2, 0, lambda: _controlled([[1, 0], [0, -1]])),
    "cry": (2, 1, lambda theta: _controlled(_ry(theta))),
}


class UnknownGate(ValueError):
    """A gate the oracle has no matrix for (never silently skipped)."""


def gate_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    try:
        _num_qubits, num_params, build = GATES[name]
    except KeyError:
        raise UnknownGate(
            f"oracle has no matrix for gate {name!r}; known: {sorted(GATES)}"
        ) from None
    if len(params) != num_params:
        raise UnknownGate(f"gate {name!r} takes {num_params} parameters")
    return np.array(build(*params), dtype=np.complex128)


def apply_gate(
    state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...]
) -> None:
    """Apply *matrix* on *qubits* to the flat *state*, in place."""
    n = state.size.bit_length() - 1
    tensor = state.reshape((2,) * n)  # axis i is qubit n-1-i
    dim = matrix.shape[0]

    def basis_slice(b: int) -> np.ndarray:
        index: list = [slice(None)] * n
        for j, q in enumerate(qubits):
            bit = (b >> j) & 1
            index[n - 1 - q] = slice(bit, bit + 1)  # a view even when k == n
        return tensor[tuple(index)]

    rows = {}
    for a in range(dim):
        terms = [(b, matrix[a, b]) for b in range(dim) if matrix[a, b] != 0]
        if terms != [(a, 1)]:
            rows[a] = terms
    if all(len(t) == 1 and t[0][0] == a for a, t in rows.items()):
        for a, ((_, phase),) in rows.items():  # diagonal: scale in place
            basis_slice(a)[...] *= phase
        return
    old = {
        b: basis_slice(b).copy()
        for b in sorted({b for terms in rows.values() for b, _ in terms})
    }
    for a, terms in rows.items():
        out = basis_slice(a)
        (b0, c0), rest = terms[0], terms[1:]
        if c0 == 1:
            out[...] = old[b0]
        else:
            np.multiply(old[b0], c0, out=out)
        for b, c in rest:
            out += c * old[b]


def simulate(num_qubits: int, gates) -> np.ndarray:
    """Final state of ``|0…0>`` under *gates*.

    *gates* is an iterable of objects with ``name``, ``qubits`` and
    ``params`` attributes (``repro.circuits.Gate`` has them) or of plain
    ``(name, qubits, params)`` triples.
    """
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    for gate in gates:
        if isinstance(gate, tuple):
            name, qubits, params = gate
        else:
            name, qubits, params = gate.name, gate.qubits, gate.params
        qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits) or not all(
            0 <= q < num_qubits for q in qubits
        ):
            raise ValueError(f"bad qubits {qubits} for gate {name!r}")
        apply_gate(state, gate_matrix(name, tuple(params)), qubits)
    return state


def check_state(num_qubits: int, gates, state: np.ndarray, atol: float = 1e-9) -> bool:
    """True when *state* equals the oracle's final state within *atol*."""
    return bool(np.allclose(simulate(num_qubits, gates), state, rtol=0.0, atol=atol))


def _dense_reference(num_qubits: int, gates) -> np.ndarray:
    """Textbook check of :func:`apply_gate`: full 2^n x 2^n operators."""
    dim = 1 << num_qubits
    state = np.zeros(dim, dtype=np.complex128)
    state[0] = 1.0
    for name, qubits, params in gates:
        matrix = gate_matrix(name, tuple(params))
        full = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            b = sum(((col >> q) & 1) << j for j, q in enumerate(qubits))
            rest = col
            for q in qubits:
                rest &= ~(1 << q)
            for a in range(matrix.shape[0]):
                row = rest | sum(((a >> j) & 1) << q for j, q in enumerate(qubits))
                full[row, col] = matrix[a, b]
        state = full @ state
    return state


def self_test() -> None:
    """Pin the conventions against hand-written vectors; raise on mismatch."""
    # GHZ-3: (|000> + |111>)/sqrt(2).
    ghz = simulate(3, [("h", (0,), ()), ("cx", (1, 0), ()), ("cx", (2, 1), ())])
    want = np.zeros(8, dtype=np.complex128)
    want[0] = want[7] = _SQ2
    if not np.allclose(ghz, want, atol=1e-12):
        raise AssertionError(f"oracle GHZ-3 mismatch: {ghz}")

    # Asymmetric 2-qubit case: X on qubit 0, then CX with control 0 and
    # target 1 (stored target-first: qubits=(1, 0)) gives |11> = index 3;
    # with the roles swapped the control (qubit 1) is 0 and |01> = index 1
    # stays put.  Either a big-endian index or a control-first matrix
    # breaks one of the two.
    fired = simulate(2, [("x", (0,), ()), ("cx", (1, 0), ())])
    idle = simulate(2, [("x", (0,), ()), ("cx", (0, 1), ())])
    if abs(fired[3] - 1) > 1e-12 or abs(idle[1] - 1) > 1e-12:
        raise AssertionError(f"oracle qubit order mismatch: {fired} {idle}")

    # RY(pi/2) on qubit 1 of |00>: (|00> + |10>)/sqrt(2) = indices 0 and 2,
    # then P(pi/2) on qubit 1 turns the |10> amplitude into i/sqrt(2).
    rot = simulate(2, [("ry", (1,), (math.pi / 2,)), ("p", (1,), (math.pi / 2,))])
    want = np.array([_SQ2, 0, 1j * _SQ2, 0], dtype=np.complex128)
    if not np.allclose(rot, want, atol=1e-12):
        raise AssertionError(f"oracle rotation mismatch: {rot}")

    # Every table entry, on non-adjacent and reversed qubits, against the
    # textbook full-operator construction.
    gates = []
    angle = 0.3
    for name, (num_qubits, num_params, _build) in sorted(GATES.items()):
        params = tuple(angle + 0.1 * k for k in range(num_params))
        angle += 0.37
        gates.append(("h", (len(gates) % 4,), ()))
        gates.append((name, (3, 1)[:num_qubits], params))
        gates.append((name, (0, 2)[:num_qubits], params))
    got = simulate(4, gates)
    want = _dense_reference(4, gates)
    if not np.allclose(got, want, atol=1e-12):
        raise AssertionError("oracle slice application disagrees with full operators")
    if abs(np.linalg.norm(got) - 1.0) > 1e-12:
        raise AssertionError("oracle gate table is not unitary")

    try:
        gate_matrix("ccx", ())
    except UnknownGate:
        pass
    else:
        raise AssertionError("oracle accepted a gate it has no matrix for")
