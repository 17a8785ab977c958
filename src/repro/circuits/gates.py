"""Quantum gate definitions.

This module provides the gate vocabulary used throughout the Atlas
reproduction: every gate knows its unitary matrix, which of its qubits are
*insular* (Definition 2 of the paper), and whether it is diagonal or
anti-diagonal.  Insularity is the key property exploited by the staging
algorithm: insular qubits may be mapped to regional/global physical qubits
without incurring communication, because each output amplitude depends on a
single input amplitude along that qubit axis.

Gate matrices follow the little-endian qubit convention used by the rest of
the package: ``qubits[0]`` is the least-significant qubit of the matrix
index.  For a controlled gate the control qubits come *after* the target
qubits in the matrix ordering (the matrix is built as
``|1..1><1..1| (x) U + rest (x) I``), matching :func:`controlled_matrix`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Axes",
    "Gate",
    "GateSpec",
    "GATE_SPECS",
    "gate_matrix",
    "controlled_matrix",
    "is_diagonal",
    "is_antidiagonal",
    "axes_of",
    "stray_qubits",
    "matrix_signature",
    "GateTable",
    "make_gate",
    "SUPPORTED_GATES",
]


# ---------------------------------------------------------------------------
# Elementary matrices
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
_SDG = np.array([[1, 0], [0, -1j]], dtype=np.complex128)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=np.complex128)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=np.complex128)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)


# Each parameterized gate has one formula: its matrix's entries, row-major,
# as Python scalars.  :meth:`GateSpec.matrix` converts one row of them and a
# :class:`GateTable` a whole stack, so a gate's matrix has the same bits
# whichever built it.  Exact zeros and ones are complex (``_0``, ``_1``):
# NumPy converts a list of one scalar type fastest.

_0, _1 = 0j, 1 + 0j


def _rx(theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (c, -1j * s, -1j * s, c)


def _ry(theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (c, -s, s, c)


def _rz(theta: float) -> tuple:
    return (cmath.exp(-1j * theta / 2), _0, _0, cmath.exp(1j * theta / 2))


def _p(theta: float) -> tuple:
    return (_1, _0, _0, cmath.exp(1j * theta))


def _u3(theta: float, phi: float, lam: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (
        c, -cmath.exp(1j * lam) * s,
        cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c,
    )


def _u2(phi: float, lam: float) -> tuple:
    return _u3(math.pi / 2, phi, lam)


def _rzz(theta: float) -> tuple:
    e_m = cmath.exp(-1j * theta / 2)
    e_p = cmath.exp(1j * theta / 2)
    return (e_m, _0, _0, _0, _0, e_p, _0, _0, _0, _0, e_p, _0, _0, _0, _0, e_m)


def _scaled_eye(c: float) -> tuple[complex, complex]:
    """The diagonal and off-diagonal entries of ``c`` times the complex
    identity, as complex arithmetic forms them (``0 * c`` keeps the sign of
    ``c`` on the real part)."""
    return (
        complex(c - 0.0 * 0.0, 0.0 * 0.0 + 0.0 * c),
        complex(0.0 * c - 0.0 * 0.0, 0.0 * 0.0 + 0.0 * c),
    )


def _rxx(theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    d, z = _scaled_eye(c)
    a = -1j * s
    return (d, z, z, a, z, d, a, z, z, a, d, z, a, z, z, d)


def _ryy(theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    d, z = _scaled_eye(c)
    a, b = 1j * s, -1j * s
    return (d, z, z, a, z, d, b, z, z, b, d, z, a, z, z, d)


def _controlled(base):
    """The entries of controlled-*base* (one control, 2×2 *base*): the
    identity with *base* as its last 2×2 diagonal block."""

    def entries(*params) -> tuple:
        a, b, c, d = base(*params)
        return (_1, _0, _0, _0, _0, _1, _0, _0, _0, _0, a, b, _0, _0, c, d)

    return entries


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def controlled_matrix(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Build the matrix of a controlled-U gate.

    The target qubits occupy the least-significant positions of the matrix
    index and the control qubits the most-significant ones, so the gate acts
    on the qubit tuple ``(*targets, *controls)``.

    Parameters
    ----------
    base:
        Unitary matrix of the underlying gate ``U`` (shape ``2^t × 2^t``).
    num_controls:
        Number of control qubits to add.

    Returns
    -------
    numpy.ndarray
        The ``2^(t+c) × 2^(t+c)`` controlled-U matrix.
    """
    dim_t = base.shape[0]
    dim = dim_t * (2 ** num_controls)
    out = np.eye(dim, dtype=np.complex128)
    # Controls are the high bits; the "all controls |1>" block is the last
    # dim_t × dim_t diagonal block.
    out[dim - dim_t :, dim - dim_t :] = base
    return out


def is_diagonal(matrix: np.ndarray, atol: float = 1e-12) -> bool:
    """Return True if *matrix* is diagonal (all off-diagonal entries ~ 0)."""
    return bool(np.allclose(matrix, np.diag(np.diag(matrix)), atol=atol))


def is_antidiagonal(matrix: np.ndarray, atol: float = 1e-12) -> bool:
    """Return True if *matrix* is anti-diagonal (non-zeros only on the anti-diagonal)."""
    flipped = np.fliplr(matrix)
    return bool(np.allclose(flipped, np.diag(np.diag(flipped)), atol=atol))


def matrix_signature(matrix: np.ndarray) -> bytes:
    """Exact structural signature of a unitary: which entries are zero and
    — from two qubits up — which are exactly one.

    Every structural decision the engine makes about a gate — its
    :func:`repro.sim.apply.analyze_matrix` kind and permutation table, its
    lowering shape (:func:`repro.sim.fusion.kernel_lowering`), which terms
    a kernel's bind keeps — is a function of these two patterns and nothing
    else, so two matrices with equal signatures lower to the same op shape
    and differ only in payload.  The ones pattern tells a control apart
    from a phase, so it starts at two qubits.  This is the guard
    compiled-program rebinds compare
    (:func:`repro.runtime.compile.compile_plan`), deliberately stricter
    than the ``> 1e-12`` pattern of :meth:`Circuit.structural_key`.
    """
    return _signatures(matrix[None])[0]


def _signatures(stack: np.ndarray) -> list[bytes]:
    """:func:`matrix_signature` of each matrix of a ``(G, d, d)`` stack."""
    count, dim = len(stack), stack.shape[-1]
    zeros = _split((stack != 0).tobytes(), count)
    if dim == 2:
        return zeros
    ones = _split((stack == 1).tobytes(), count)
    return [z + o for z, o in zip(zeros, ones)]


def _split(data: bytes, count: int) -> list[bytes]:
    size = len(data) // count
    return [data[i : i + size] for i in range(0, len(data), size)]


def _key_patterns(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a ``(G, d, d)`` stack, the packed ``abs > 1e-12``
    pattern :meth:`Circuit.structural_key` hashes — one row of bytes each."""
    count, dim = len(stack), stack.shape[-1]
    return np.packbits((np.abs(stack) > 1e-12).reshape(count, dim * dim), axis=1)


def _pattern_of(matrix: np.ndarray) -> tuple[bytes, bytes]:
    """``(packed key pattern, exact signature)`` of one matrix — what
    :meth:`Gate.pattern` returns: the table's array operations on a stack
    of one."""
    stack = matrix[None]
    return _key_patterns(stack)[0].tobytes(), _signatures(stack)[0]


class Axes(NamedTuple):
    """How a gate's matrix acts along each of its qubit axes — Definition 2
    read axis by axis (:func:`axes_of`).

    ``kinds`` has one entry per qubit slot:

    ``"control"``
        A declared control qubit (never mixes, gates the gate on/off).
    ``"diagonal"``
        The matrix never changes this bit: every non-zero entry has equal
        input and output bit.
    ``"antidiagonal"``
        The matrix always flips this bit (X/Y-like axis).
    ``"mixing"``
        Amplitude moves between the two bit values — the qubit must be
        local in the gate's stage.

    ``insular`` are the slots that are not ``"mixing"``; ``diagonal`` and
    ``antidiagonal`` say whether the whole matrix is.
    """

    kinds: tuple[str, ...]
    insular: tuple[int, ...]
    diagonal: bool
    antidiagonal: bool


@lru_cache(maxsize=4096)
def axes_of(name: str, pattern: bytes) -> Axes:
    """The :class:`Axes` of a gate *name* whose packed ``> 1e-12`` pattern
    is *pattern* (:meth:`Gate.pattern`; ``b""``: the parameter-free gate's
    own matrix).  A slot is insular exactly when no non-zero entry mixes
    its bit: each output amplitude then depends on one input amplitude
    along that axis.  :func:`is_diagonal` at its ``1e-12`` tolerance says
    exactly that no off-diagonal entry is above it, so the pattern decides
    every answer; keyed by structure, a sweep of new angles adds no entry.
    """
    spec = GATE_SPECS[name]
    k = spec.num_qubits
    dim = 1 << k
    if pattern:
        nonzero = np.unpackbits(
            np.frombuffer(pattern, dtype=np.uint8), count=dim * dim
        ).reshape(dim, dim)
    else:
        nonzero = np.abs(gate_matrix(name)) > 1e-12
    rows, cols = np.nonzero(nonzero)
    flips = rows ^ cols
    kinds = []
    for pos in range(k):
        flip = (flips >> pos) & 1
        kinds.append(
            "control" if pos >= k - spec.num_controls
            else "diagonal" if not flip.any()
            else "antidiagonal" if flip.all()
            else "mixing"
        )
    return Axes(
        tuple(kinds), tuple([s for s, kind in enumerate(kinds) if kind != "mixing"]),
        not flips.any(), bool((flips == dim - 1).all()),
    )


def stray_qubits(
    non_insular: Iterable[int], logical_to_physical: Mapping[int, int], local_qubits: int
) -> list[int]:
    """The qubits of *non_insular* — a gate's non-insular qubits — that the
    layout *logical_to_physical* maps to a position ``>= local_qubits``, or
    does not map: empty exactly when the gate keeps the staging invariant
    (Section IV) in that layout.  Every check of the invariant reads it."""
    return [q for q in non_insular if logical_to_physical.get(q, local_qubits) >= local_qubits]


# ---------------------------------------------------------------------------
# Gate specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes
    ----------
    name:
        Canonical lowercase gate name (OpenQASM-compatible where possible).
    num_qubits:
        Number of qubits the gate acts on.
    num_params:
        Number of real parameters.
    num_controls:
        Number of control qubits (always the trailing qubits of the gate's
        qubit tuple).  Control qubits are insular (Definition 2).
    entries:
        The gate's formula: the parameters to its matrix's entries,
        row-major, as Python scalars.  :meth:`matrix` converts one row of
        them, a :class:`GateTable` a stack.
    """

    name: str
    num_qubits: int
    num_params: int
    num_controls: int
    entries: Callable[..., Sequence[complex]]

    def matrix(self, params: Sequence[float] = ()) -> np.ndarray:
        if len(params) != self.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {self.num_params} parameters, "
                f"got {len(params)}"
            )
        dim = 1 << self.num_qubits
        return np.array(self.entries(*params), dtype=np.complex128).reshape(dim, dim)


def _const(matrix: np.ndarray):
    entries = tuple(matrix.reshape(-1))

    def fn() -> tuple:
        return entries

    return fn


GATE_SPECS: dict[str, GateSpec] = {}


def _register(name: str, num_qubits: int, num_params: int, num_controls: int, fn) -> None:
    GATE_SPECS[name] = GateSpec(name, num_qubits, num_params, num_controls, fn)


# Single-qubit constant gates.
_register("id", 1, 0, 0, _const(_I2))
_register("x", 1, 0, 0, _const(_X))
_register("y", 1, 0, 0, _const(_Y))
_register("z", 1, 0, 0, _const(_Z))
_register("h", 1, 0, 0, _const(_H))
_register("s", 1, 0, 0, _const(_S))
_register("sdg", 1, 0, 0, _const(_SDG))
_register("t", 1, 0, 0, _const(_T))
_register("tdg", 1, 0, 0, _const(_TDG))
_register("sx", 1, 0, 0, _const(_SX))
# Single-qubit parameterised gates.
_register("rx", 1, 1, 0, _rx)
_register("ry", 1, 1, 0, _ry)
_register("rz", 1, 1, 0, _rz)
_register("p", 1, 1, 0, _p)
_register("u1", 1, 1, 0, _p)
_register("u2", 1, 2, 0, _u2)
_register("u3", 1, 3, 0, _u3)
_register("u", 1, 3, 0, _u3)
# Two-qubit gates: target first, control last.
_register("cx", 2, 0, 1, _const(controlled_matrix(_X)))
_register("cy", 2, 0, 1, _const(controlled_matrix(_Y)))
_register("cz", 2, 0, 1, _const(controlled_matrix(_Z)))
_register("ch", 2, 0, 1, _const(controlled_matrix(_H)))
_register("cp", 2, 1, 1, _controlled(_p))
_register("cu1", 2, 1, 1, _controlled(_p))
_register("crx", 2, 1, 1, _controlled(_rx))
_register("cry", 2, 1, 1, _controlled(_ry))
_register("crz", 2, 1, 1, _controlled(_rz))
_register("swap", 2, 0, 0, _const(_SWAP))
_register("rzz", 2, 1, 0, _rzz)
_register("rxx", 2, 1, 0, _rxx)
_register("ryy", 2, 1, 0, _ryy)
# Three-qubit gates.
_register("ccx", 3, 0, 2, _const(controlled_matrix(_X, 2)))
_register("ccz", 3, 0, 2, _const(controlled_matrix(_Z, 2)))
_register("cswap", 3, 0, 1, _const(controlled_matrix(_SWAP, 1)))

SUPPORTED_GATES = tuple(sorted(GATE_SPECS))


@lru_cache(maxsize=65536)
def _cached_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    spec = GATE_SPECS[name]
    matrix = spec.matrix(params)
    matrix.setflags(write=False)
    return matrix


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary matrix of gate *name* with the given parameters.

    Matrices are cached by ``(name, params)`` and returned as read-only
    arrays; callers that need to mutate the result must copy it.  Gates and
    circuits do not read this cache (:meth:`Gate.matrix`,
    :class:`GateTable`), so a parameter sweep does not fill it.
    """
    if name not in GATE_SPECS:
        raise ValueError(f"unsupported gate {name!r}")
    return _cached_matrix(name, tuple(params))


# ---------------------------------------------------------------------------
# Gate tables: the numbers of a gate sequence, one array per question
# ---------------------------------------------------------------------------

#: Every parameter-free gate's matrix, row-major, one after the other: the
#: head of every table's ``flat`` (``_CONSTANT_AT[name]`` is its offset).
_CONSTANT_AT: dict[str, int] = {}
_CONSTANTS = np.concatenate([
    GATE_SPECS[name].matrix().reshape(-1)
    for name in SUPPORTED_GATES if not GATE_SPECS[name].num_params
])
_offset = 0
for _name in SUPPORTED_GATES:
    if not GATE_SPECS[_name].num_params:
        _CONSTANT_AT[_name] = _offset
        _offset += 4 ** GATE_SPECS[_name].num_qubits
del _offset, _name
_CONSTANTS.setflags(write=False)

#: Gate name -> its one-byte code in a table's records.
_NAME_CODE = {name: code for code, name in enumerate(SUPPORTED_GATES)}
#: Bytes of a record: name code, three little-endian int16 qubits (-1
#: pads), a pad byte, then a parameterized gate's packed exact signature —
#: eight bytes of zero pattern, eight of ones pattern (from two qubits up).
_RECORD = 24


def _gate_head(name: str, qubits: tuple[int, ...]) -> bytes:
    """A gate's header — separator, name, little-endian int32 qubits: what
    both keys of a circuit hash ahead of a gate's pattern or parameters."""
    return b"|" + name.encode() + np.asarray(qubits, dtype=np.int32).tobytes()


def _gate_bytes(name: str, qubits: tuple[int, ...]) -> tuple[bytes, bytes]:
    """``(the gate's header, the first eight bytes of its record)``."""
    padded = tuple(qubits) + (-1,) * (3 - len(qubits))
    record = bytes([_NAME_CODE[name]]) + np.asarray(padded, dtype="<i2").tobytes() + b"\0"
    return _gate_head(name, qubits), record


def content_bytes(gates: Iterable[Gate]) -> bytes:
    """Every gate's full content, joined: its header, then its parameters
    as float64 — the one encoding :meth:`Circuit.content_key` and the
    checkpoint fingerprint (:func:`repro.runtime.checkpoint.checkpoint_fingerprint`)
    hash."""
    return b"".join([
        _gate_head(gate.name, gate.qubits) + np.asarray(gate.params, dtype=np.float64).tobytes()
        for gate in gates
    ])


_NAME_QUBITS = attrgetter("name", "qubits")
_PARAMS = attrgetter("params")


class _Layout(NamedTuple):
    """The angle-free half of a :class:`GateTable`, shared by every table
    of one ``(name, qubits)`` sequence: per gate its key header, record
    head, offset in ``flat`` and row in its width's stack; per matrix
    width the positions of the parameterized gates and their formulas."""

    heads: tuple[bytes, ...]
    records: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    positions: tuple[list[int], ...]
    formulas: tuple[tuple, ...]


@lru_cache(maxsize=64)
def _layout(sequence: tuple[tuple[str, tuple[int, ...]], ...]) -> _Layout:
    """The :class:`_Layout` of a gate sequence given as ``(name, qubits)``
    pairs — keyed by structure, so a sweep of new angles reuses one."""
    positions: tuple[list[int], ...] = ([], [], [])
    offsets = []
    for position, (name, qubits) in enumerate(sequence):
        if GATE_SPECS[name].num_params:
            positions[len(qubits) - 1].append(position)
        offsets.append(_CONSTANT_AT.get(name, 0))
    offset_array = np.array(offsets, dtype=np.intp)
    rows = np.full(len(sequence), -1, dtype=np.intp)
    start = len(_CONSTANTS)
    for width, group in enumerate(positions):
        size = 4 << (2 * width)
        if group:
            rows[group] = np.arange(len(group))
            offset_array[group] = start + size * np.arange(len(group))
        start += len(group) * size
    pairs = [_gate_bytes(name, qubits) for name, qubits in sequence]
    records = np.zeros((len(sequence), _RECORD), dtype=np.uint8)
    if sequence:
        records[:, :8] = np.frombuffer(
            b"".join([record for _head, record in pairs]), dtype=np.uint8
        ).reshape(-1, 8)
    for array in (offset_array, rows, records):
        array.setflags(write=False)
    return _Layout(
        tuple([head for head, _record in pairs]), records, offset_array, rows, positions,
        tuple(tuple(GATE_SPECS[sequence[i][0]].entries for i in group) for group in positions),
    )


class GateTable:
    """The numbers of a gate sequence, built in one pass.

    ``flat`` holds every parameter-free gate's matrix (the same head in
    every table), then, per matrix width, the ``(G, d, d)`` stack of the
    sequence's parameterized gates' matrices (``stacks``, views of
    ``flat``), each row from its gate's formula (:attr:`GateSpec.entries`)
    — the bits :meth:`Gate.matrix` returns.  ``offsets[i]`` is where gate
    ``i``'s matrix starts in ``flat``, so any list of entries of the
    sequence's matrices is one ``flat.take``.  ``records[i]`` is gate
    ``i``'s name, qubits and (parameterized) exact zero/one pattern,
    packed to :data:`_RECORD` bytes: the rebind guard compares
    ``records`` at a structure's positions as one bytes string.  The
    ``> 1e-12`` key pattern of :meth:`Circuit.structural_key` is one array
    operation per stack too (:meth:`key_bytes`), and so is every gate's
    ``(key pattern, exact signature)`` pair (:meth:`patterns`), which the
    cold path — planning passes and kernel lowering — reads instead of
    deriving it gate by gate.

    Read-only; a :class:`~repro.circuits.circuit.Circuit` memoises its own
    (:meth:`~repro.circuits.circuit.Circuit.gate_table`).
    """

    __slots__ = ("gates", "flat", "offsets", "stacks", "records", "_layout", "_loose", "_patterns")

    def __init__(self, gates: Iterable[Gate]) -> None:
        self.gates = gates = tuple(gates)
        layout = _layout(tuple(map(_NAME_QUBITS, gates)))
        params = list(map(_PARAMS, gates))
        parts = [_CONSTANTS]
        for positions, formulas in zip(layout.positions, layout.formulas):
            if positions:
                parts.append(np.array(list(chain.from_iterable(
                    [formula(*params[i]) for formula, i in zip(formulas, positions)]
                )), dtype=np.complex128))
        flat = np.concatenate(parts) if len(parts) > 1 else _CONSTANTS
        flat.setflags(write=False)
        records = layout.records.copy()
        stacks = []
        start = len(_CONSTANTS)
        for width, positions in enumerate(layout.positions):
            dim = 2 << width
            size = dim * dim
            stack = flat[start : start + len(positions) * size].reshape(-1, dim, dim)
            stacks.append(stack)
            if positions:
                rows = stack.reshape(len(positions), size)
                zeros = np.packbits(rows != 0, axis=1)
                records[positions, 8 : 8 + zeros.shape[1]] = zeros
                if dim > 2:
                    ones = np.packbits(rows == 1, axis=1)
                    records[positions, 16 : 16 + ones.shape[1]] = ones
            start += len(positions) * size
        records.setflags(write=False)
        self.flat = flat
        self.offsets = layout.offsets
        self.stacks = tuple(stacks)
        self.records = records
        self._layout = layout
        self._loose: list | None = None
        self._patterns: list[tuple[bytes, bytes]] | None = None

    def __len__(self) -> int:
        return len(self.gates)

    def signature_blob(self, positions: np.ndarray) -> bytes:
        """The records of the gates at *positions*, in that order, as one
        bytes string: equal for two tables exactly when those gates agree
        in name, qubits and — parameterized — exact signature."""
        return self.records.take(positions, axis=0).tobytes()

    def key_blob(self, positions: np.ndarray) -> bytes:
        """The ``> 1e-12`` key patterns of the parameterized gates at
        *positions*, in that order, as one bytes string: for two tables
        whose :meth:`signature_blob` there agrees, equal exactly when those
        gates' patterns do (``rx(pi)`` and ``rx(1e-13)`` share an exact
        signature, not a pattern)."""
        loose, rows = self._key_patterns(), self._layout.rows
        gates = self.gates
        return b"".join([
            loose[len(gates[p].qubits) - 1][rows[p]].tobytes()
            for p in positions.tolist() if rows[p] >= 0
        ])

    def _key_patterns(self) -> list[np.ndarray]:
        """Per matrix width, each parameterized gate's packed ``> 1e-12``
        pattern — one array operation per stack, once per table."""
        if self._loose is None:
            self._loose = [_key_patterns(stack) for stack in self.stacks]
        return self._loose

    def key_bytes(self) -> bytes:
        """What :meth:`Circuit.structural_key` hashes per gate, joined: the
        gate's header, then — parameterized — its packed ``> 1e-12``
        pattern."""
        parts = list(self._layout.heads)
        for packed, group in zip(self._key_patterns(), self._layout.positions):
            if group:
                for position, pattern in zip(group, _split(packed.tobytes(), len(group))):
                    parts[position] += pattern
        return b"".join(parts)

    def patterns(self) -> list[tuple[bytes, bytes]]:
        """Per gate its ``(key pattern, exact signature)`` — what
        :meth:`Gate.pattern` returns, ``(b"", b"")`` for a parameter-free
        gate — as two array operations per stack, once per table.  Each
        parameterized gate keeps its pair (gates are immutable), so the
        planner's passes, the cost model and the kernel lowering read the
        table's bytes instead of re-deriving them gate by gate."""
        if self._patterns is None:
            pairs = [(b"", b"")] * len(self.gates)
            gates = self.gates
            for packed, stack, group in zip(
                self._key_patterns(), self.stacks, self._layout.positions
            ):
                if not group:
                    continue
                keys = _split(packed.tobytes(), len(group))
                for position, pair in zip(group, zip(keys, _signatures(stack))):
                    pairs[position] = gates[position].__dict__["_pattern_cache"] = pair
            self._patterns = pairs
        return self._patterns

    def non_insular_qubits(self, position: int) -> tuple[int, ...]:
        """:meth:`Gate.non_insular_qubits` of gate *position*, read off its
        key pattern here."""
        gate = self.gates[position]
        pattern = b""
        if gate.params:
            row = int(self._layout.rows[position])
            pattern = self._key_patterns()[len(gate.qubits) - 1][row].tobytes()
        insular = axes_of(gate.name, pattern).insular
        return tuple(q for slot, q in enumerate(gate.qubits) if slot not in insular)


# ---------------------------------------------------------------------------
# Gate instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A gate applied to specific qubits of a circuit.

    Attributes
    ----------
    name:
        Gate type name (must appear in :data:`GATE_SPECS`).
    qubits:
        Tuple of logical qubit indices the gate acts on.  For controlled
        gates the targets come first and the controls last, matching the
        matrix ordering of :func:`controlled_matrix`.
    params:
        Tuple of real gate parameters.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        spec = GATE_SPECS.get(self.name)
        if spec is None:
            raise ValueError(f"unsupported gate {self.name!r}")
        if len(self.qubits) != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} acts on {spec.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} has duplicate qubits {self.qubits}")
        if len(self.params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} parameters, "
                f"got {len(self.params)}"
            )

    # -- basic properties ---------------------------------------------------

    @property
    def spec(self) -> GateSpec:
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def matrix(self) -> np.ndarray:
        """Unitary matrix of this gate (little-endian over ``self.qubits``).

        The returned array is read-only; copy it before mutating.  A
        parameterized gate's is built from its formula once per gate
        instance (gates are immutable) — the same bits as its row in any
        :class:`GateTable` — and not through the ``(name, params)`` cache
        of :func:`gate_matrix`, so a parameter sweep leaves that cache as
        it was.  A parameter-free gate's is its name's shared constant.
        """
        if not self.params:
            return _cached_matrix(self.name, ())
        cached = self.__dict__.get("_matrix")
        if cached is None:
            cached = self.spec.matrix(self.params)
            cached.setflags(write=False)
            self.__dict__["_matrix"] = cached
        return cached

    def pattern(self) -> tuple[bytes, bytes]:
        """``(key_pattern, signature)`` of a parameterized gate's matrix.

        ``key_pattern`` is the packed ``abs(matrix) > 1e-12`` sparsity
        pattern :meth:`Circuit.structural_key` hashes; ``signature`` is the
        exact :func:`matrix_signature` the compiled-program rebind guard
        compares.  Both come from the array operations a
        :class:`GateTable` runs on its stacks: a gate of a table whose
        :meth:`GateTable.patterns` ran holds the table's pair; any other
        runs them on a stack of its matrix alone (:func:`_pattern_of`),
        once per gate instance.  Parameter-free gates need neither (their
        name fixes the matrix) and return empty bytes.
        """
        if not self.params:
            return (b"", b"")
        cached = self.__dict__.get("_pattern_cache")
        if cached is None:
            cached = self.__dict__["_pattern_cache"] = _pattern_of(self.matrix())
        return cached

    def diagonal(self) -> np.ndarray:
        """Diagonal entries of this gate's matrix (cached, read-only).

        Only meaningful when :meth:`is_diagonal` is true; used by the
        simulator's in-place diagonal fast path.
        """
        cached = self.__dict__.get("_diagonal")
        if cached is None:
            cached = np.ascontiguousarray(np.diag(self.matrix()))
            cached.setflags(write=False)
            self.__dict__["_diagonal"] = cached
        return cached

    # -- insularity (Definition 2) -------------------------------------------

    @property
    def control_qubits(self) -> tuple[int, ...]:
        """The control qubits (trailing qubits) of a controlled gate."""
        nc = self.spec.num_controls
        if nc == 0:
            return ()
        return self.qubits[-nc:]

    @property
    def target_qubits(self) -> tuple[int, ...]:
        nc = self.spec.num_controls
        if nc == 0:
            return self.qubits
        return self.qubits[:-nc]

    def insular_qubits(self) -> tuple[int, ...]:
        """Qubits of this gate that are insular (Definition 2 of the paper),
        in qubit order.

        Read axis by axis: a qubit is insular unless the matrix mixes
        amplitudes along it — it is a declared control, or every non-zero
        entry keeps its bit (a diagonal axis) or every one flips it (an
        anti-diagonal axis).  So both qubits of ``cz``, ``cp`` and ``rzz``
        are insular, the target of ``cx`` is not, and ``rxx`` / ``ryy`` at
        ``0`` or ``pi`` (± the identity or ``±i X(x)X``) are insular on both.
        Decided by the gate's ``> 1e-12`` key pattern (:meth:`pattern`,
        :func:`axes_of`); the result is cached on the instance (gates are
        immutable).
        """
        cached = self.__dict__.get("_insular_cache")
        if cached is None:
            slots = axes_of(self.name, self.pattern()[0]).insular
            cached = self.__dict__["_insular_cache"] = tuple(self.qubits[s] for s in slots)
        return cached

    def non_insular_qubits(self) -> tuple[int, ...]:
        """Qubits that are *not* insular — the ones the stager must keep local."""
        ins = set(self.insular_qubits())
        return tuple(q for q in self.qubits if q not in ins)

    def is_diagonal(self) -> bool:
        """True if the full gate matrix is diagonal (within ``1e-12``)."""
        return axes_of(self.name, self.pattern()[0]).diagonal

    def is_antidiagonal(self) -> bool:
        """True if the full gate matrix is anti-diagonal (within ``1e-12``)."""
        return axes_of(self.name, self.pattern()[0]).antidiagonal

    # -- misc ----------------------------------------------------------------

    def remap(self, mapping: dict[int, int]) -> "Gate":
        """Return a copy of this gate with qubits renamed through *mapping*."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            pstr = "(" + ", ".join(f"{p:.6g}" for p in self.params) + ")"
        else:
            pstr = ""
        return f"{self.name}{pstr} {list(self.qubits)}"


def make_gate(name: str, qubits: Iterable[int], params: Iterable[float] = ()) -> Gate:
    """Convenience constructor for :class:`Gate`."""
    return Gate(name, tuple(int(q) for q in qubits), tuple(float(p) for p in params))
