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
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_SPECS",
    "gate_matrix",
    "controlled_matrix",
    "is_diagonal",
    "is_antidiagonal",
    "matrix_signature",
    "cache_patterns",
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


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]],
        dtype=np.complex128,
    )


def _p(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=np.complex128)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def _u2(phi: float, lam: float) -> np.ndarray:
    return _u3(math.pi / 2, phi, lam)


def _rzz(theta: float) -> np.ndarray:
    e_m = cmath.exp(-1j * theta / 2)
    e_p = cmath.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(np.complex128)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=np.complex128) * c
    m[0, 3] = m[3, 0] = m[1, 2] = m[2, 1] = -1j * s
    return m


def _ryy(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=np.complex128) * c
    m[0, 3] = m[3, 0] = 1j * s
    m[1, 2] = m[2, 1] = -1j * s
    return m


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

    Every structural decision of :func:`repro.sim.apply.analyze_matrix`
    (diagonal / permutation / controlled / dense, the permutation table,
    the control and target bits, the reduced block's class) is a function
    of these two patterns and nothing else, so two matrices with equal
    signatures lower to the same op shape and differ only in payload.
    Single-qubit matrices need no ones pattern: control detection starts
    at two qubits.  This is the guard compiled-program rebinds compare
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


#: bool bytes of a ``> 1e-12`` pattern -> its ``np.packbits`` bytes (what
#: :meth:`Circuit.structural_key` has always hashed).  A handful of entries:
#: one per distinct sparsity pattern in the gate vocabulary.
_PACKED_PATTERNS: dict[bytes, bytes] = {}


def cache_patterns(gates: "Iterable[Gate]") -> None:
    """Compute and store :meth:`Gate.pattern` for every parameterized gate
    of *gates* that lacks it — in one NumPy pass per matrix size instead of
    five small calls per gate (a fresh circuit's key is mostly this)."""
    by_dim: dict[int, list[Gate]] = {}
    for gate in gates:
        if gate.params and "_pattern_cache" not in gate.__dict__:
            by_dim.setdefault(len(gate.qubits), []).append(gate)
    for group in by_dim.values():
        stack = np.array([gate.matrix() for gate in group])
        loose = _split((np.abs(stack) > 1e-12).tobytes(), len(group))
        for gate, pattern, signature in zip(group, loose, _signatures(stack)):
            packed = _PACKED_PATTERNS.get(pattern)
            if packed is None:
                packed = _PACKED_PATTERNS[pattern] = np.packbits(
                    np.frombuffer(pattern, dtype=np.bool_)
                ).tobytes()
            gate.__dict__["_pattern_cache"] = (packed, signature)


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
    matrix_fn:
        Callable mapping the parameter tuple to the unitary matrix.
    """

    name: str
    num_qubits: int
    num_params: int
    num_controls: int
    matrix_fn: object

    def matrix(self, params: Sequence[float] = ()) -> np.ndarray:
        if len(params) != self.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {self.num_params} parameters, "
                f"got {len(params)}"
            )
        return self.matrix_fn(*params)


def _const(matrix: np.ndarray):
    def fn() -> np.ndarray:
        return matrix

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
_register("cx", 2, 0, 1, lambda: controlled_matrix(_X))
_register("cy", 2, 0, 1, lambda: controlled_matrix(_Y))
_register("cz", 2, 0, 1, lambda: controlled_matrix(_Z))
_register("ch", 2, 0, 1, lambda: controlled_matrix(_H))
_register("cp", 2, 1, 1, lambda theta: controlled_matrix(_p(theta)))
_register("cu1", 2, 1, 1, lambda theta: controlled_matrix(_p(theta)))
_register("crx", 2, 1, 1, lambda theta: controlled_matrix(_rx(theta)))
_register("cry", 2, 1, 1, lambda theta: controlled_matrix(_ry(theta)))
_register("crz", 2, 1, 1, lambda theta: controlled_matrix(_rz(theta)))
_register("swap", 2, 0, 0, _const(_SWAP))
_register("rzz", 2, 1, 0, _rzz)
_register("rxx", 2, 1, 0, _rxx)
_register("ryy", 2, 1, 0, _ryy)
# Three-qubit gates.
_register("ccx", 3, 0, 2, lambda: controlled_matrix(_X, 2))
_register("ccz", 3, 0, 2, lambda: controlled_matrix(_Z, 2))
_register("cswap", 3, 0, 1, lambda: controlled_matrix(_SWAP, 1))

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
    arrays; callers that need to mutate the result must copy it.
    """
    if name not in GATE_SPECS:
        raise ValueError(f"unsupported gate {name!r}")
    return _cached_matrix(name, tuple(params))


@lru_cache(maxsize=65536)
def _cached_structure(name: str, params: tuple[float, ...]) -> tuple[bool, bool]:
    """(is_diagonal, is_antidiagonal) of the gate's full matrix, cached."""
    matrix = _cached_matrix(name, params)
    return is_diagonal(matrix), is_antidiagonal(matrix)


@lru_cache(maxsize=65536)
def _cached_diagonal(name: str, params: tuple[float, ...]) -> np.ndarray:
    """Diagonal entries of the gate's matrix as a cached read-only array."""
    diagonal = np.ascontiguousarray(np.diag(_cached_matrix(name, params)))
    diagonal.setflags(write=False)
    return diagonal


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

        The returned array is a cached, read-only instance shared between
        equal gates; copy it before mutating.
        """
        return _cached_matrix(self.name, self.params)

    def pattern(self) -> tuple[bytes, bytes]:
        """``(key_pattern, signature)`` of a parameterized gate's matrix.

        ``key_pattern`` is the packed ``abs(matrix) > 1e-12`` sparsity
        pattern :meth:`Circuit.structural_key` hashes; ``signature`` is the
        exact :func:`matrix_signature` the compiled-program rebind guard
        compares.  Both are computed once per gate instance (gates are
        immutable; see :func:`cache_patterns`) — a job hashes its circuit
        and binds its program from the same gate objects.  Parameter-free
        gates need neither (their name fixes the matrix) and return empty
        bytes.
        """
        if not self.params:
            return (b"", b"")
        cached = self.__dict__.get("_pattern_cache")
        if cached is None:
            cache_patterns((self,))
            cached = self.__dict__["_pattern_cache"]
        return cached

    def diagonal(self) -> np.ndarray:
        """Diagonal entries of this gate's matrix (cached, read-only).

        Only meaningful when :meth:`is_diagonal` is true; used by the
        simulator's in-place diagonal fast path.
        """
        return _cached_diagonal(self.name, self.params)

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
        """Qubits of this gate that are insular (Definition 2 of the paper).

        * For a single-qubit gate the qubit is insular iff the gate matrix is
          diagonal or anti-diagonal.
        * For a controlled-U gate all control qubits are insular.  If the
          controlled operation itself is diagonal/anti-diagonal on a target
          (e.g. ``cz``, ``cp``, ``rzz``), that target is insular too.

        The result is cached on the instance (gates are immutable).
        """
        cached = self.__dict__.get("_insular_cache")
        if cached is not None:
            return cached
        insular: list[int] = list(self.control_qubits)
        if self.spec.num_controls == 0 and self.num_qubits == 1:
            m = self.matrix()
            if is_diagonal(m) or is_antidiagonal(m):
                insular.append(self.qubits[0])
        elif self.spec.num_controls > 0:
            # Targets of a controlled gate are insular only when the whole
            # gate matrix is diagonal (cz, cp, crz, ccz, ...): then every
            # output amplitude depends on exactly one input amplitude along
            # every qubit, which is the footnote-2 case of Definition 2.
            if self.is_diagonal():
                insular.extend(self.target_qubits)
        elif self.num_qubits == 2 and self.name in ("rzz",):
            insular.extend(self.qubits)
        result = tuple(dict.fromkeys(insular))
        self.__dict__["_insular_cache"] = result
        return result

    def non_insular_qubits(self) -> tuple[int, ...]:
        """Qubits that are *not* insular — the ones the stager must keep local."""
        ins = set(self.insular_qubits())
        return tuple(q for q in self.qubits if q not in ins)

    def is_diagonal(self) -> bool:
        """True if the full gate matrix is diagonal."""
        return _cached_structure(self.name, self.params)[0]

    def is_antidiagonal(self) -> bool:
        """True if the full gate matrix is anti-diagonal."""
        return _cached_structure(self.name, self.params)[1]

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
