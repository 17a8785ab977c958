"""Dense state-vector container.

:class:`StateVector` owns a flat complex array of ``2^n`` amplitudes and
provides gate application (delegating to :mod:`repro.sim.apply`),
measurement statistics, fidelity and sampling utilities.  The distributed
executor operates directly on the underlying NumPy array through shard
views; this class is the convenient front-end used by examples and tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..circuits.gates import Gate
from ..errors import StateValidationError
from .apply import apply_diagonal, apply_gate_buffered, tracked_empty

__all__ = ["StateVector"]


class StateVector:
    """A dense ``n``-qubit quantum state."""

    def __init__(self, num_qubits: int, data: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")  # lint: config-error
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            self._data = np.zeros(dim, dtype=np.complex128)
            self._data[0] = 1.0
        else:
            data = np.asarray(data, dtype=np.complex128)
            if data.size != dim:
                raise StateValidationError(
                    f"data has {data.size} amplitudes, expected {dim}"
                )
            self._data = np.ascontiguousarray(data.reshape(-1))
        # Ping-pong partner for dense gate application; allocated lazily so
        # read-only uses (sampling, fidelity checks) stay at one buffer.
        self._scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "StateVector":
        """|0...0> computational basis state."""
        return cls(num_qubits)

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "StateVector":
        """Computational basis state |index>."""
        dim = 1 << num_qubits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range")  # lint: config-error
        data = np.zeros(dim, dtype=np.complex128)
        data[index] = 1.0
        return cls(num_qubits, data)

    @classmethod
    def random_state(cls, num_qubits: int, seed: int = 0) -> "StateVector":
        """Haar-ish random normalized state (Gaussian amplitudes, normalised)."""
        rng = np.random.default_rng(seed)
        dim = 1 << num_qubits
        data = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        data /= np.linalg.norm(data)
        return cls(num_qubits, data)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying flat amplitude array (a view, not a copy).

        Gate application runs on this buffer and an internal scratch
        buffer under the ping-pong contract of
        :func:`~repro.sim.apply.apply_gate_buffered`, so any array obtained
        here is invalidated by the next mutating call
        (``apply_gate``/``apply_matrix``/``apply_circuit``): it is
        overwritten, or left holding scratch contents.  Copy it if you need
        a stable snapshot.
        """
        return self._data

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self._data.copy())

    def copy_into(self, out: np.ndarray) -> np.ndarray:
        """Copy the amplitudes into *out* (a flat array of the same size).

        This is the safe way to seed an external buffer (e.g. the offload
        executors' DRAM-resident arrays) from a state: unlike holding on to
        :attr:`data`, the snapshot stays valid when this state mutates.
        """
        if out.size != self._data.size:
            raise StateValidationError(
                f"out has {out.size} amplitudes, expected {self._data.size}"
            )
        # Write through *out* itself (reshaping the source, which is always
        # contiguous) so non-contiguous destinations are filled rather than
        # a silently discarded flattened copy.
        np.copyto(out, self._data.reshape(out.shape))
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self._data))

    def is_normalized(self, atol: float = 1e-9) -> bool:
        return abs(self.norm() - 1.0) < atol

    def amplitude(self, index: int) -> complex:
        return complex(self._data[index])

    def __len__(self) -> int:
        return self._data.size

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------

    def _ensure_scratch(self) -> np.ndarray:
        if self._scratch is None or self._scratch.size != self._data.size:
            self._scratch = tracked_empty(self._data.size)
        return self._scratch

    def apply_gate(self, gate: Gate) -> "StateVector":
        """Apply *gate* (logical qubit indices) to this state in place."""
        if gate.is_diagonal():
            apply_diagonal(self._data, gate.diagonal(), gate.qubits, out=self._data)
        else:
            self._data, self._scratch = apply_gate_buffered(
                self._data, self._ensure_scratch(), gate.matrix(), gate.qubits
            )
        return self

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "StateVector":
        """Apply an arbitrary unitary on *qubits* in place."""
        self._data, self._scratch = apply_gate_buffered(
            self._data, self._ensure_scratch(), matrix, qubits
        )
        return self

    def apply_circuit(self, gates: Iterable[Gate]) -> "StateVector":
        """Apply a sequence of gates in order."""
        for gate in gates:
            self.apply_gate(gate)
        return self

    # ------------------------------------------------------------------
    # Measurement statistics
    # ------------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Probability of each computational basis state."""
        return np.abs(self._data) ** 2

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Marginal distribution over the listed qubits (little-endian)."""
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        keep_axes = [self.num_qubits - 1 - q for q in qubits]
        sum_axes = tuple(a for a in range(self.num_qubits) if a not in keep_axes)
        marg = probs.sum(axis=sum_axes) if sum_axes else probs
        # Reorder the remaining axes so qubits[0] is the least-significant bit.
        remaining = [a for a in range(self.num_qubits) if a not in sum_axes]
        perm = [remaining.index(a) for a in keep_axes]
        marg = np.transpose(marg, axes=perm)
        return np.ascontiguousarray(marg).reshape(-1)

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli-Z on *qubit*."""
        marg = self.marginal_probabilities([qubit])
        return float(marg[0] - marg[1])

    def expectation_z_product(self, qubits: Sequence[int]) -> float:
        """Expectation value of the Pauli-Z product over *qubits*.

        ``<Z_{q0} Z_{q1} ...>`` — each basis state contributes its
        probability signed by the parity of its bits at the listed qubits.
        An empty qubit list is the identity observable (always 1.0), and a
        qubit listed twice cancels (``Z_q Z_q = I``), so only qubits with
        odd multiplicity contribute.
        """
        mask = 0
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range [0, {self.num_qubits})")  # lint: config-error
            mask ^= 1 << q
        if not mask:
            return 1.0
        indices = np.arange(self._data.size, dtype=np.uint64) & np.uint64(mask)
        parity = np.zeros(self._data.size, dtype=np.uint64)
        while mask:
            parity ^= indices & np.uint64(1)
            indices >>= np.uint64(1)
            mask >>= 1
        signs = 1.0 - 2.0 * parity.astype(np.float64)
        return float(np.dot(self.probabilities(), signs))

    def sample(
        self, shots: int, seed: int | np.random.Generator = 0
    ) -> np.ndarray:
        """Sample basis-state indices according to the Born rule.

        The distribution is normalized and scanned once (cumulative sum +
        ``searchsorted``) regardless of the shot count, instead of the
        per-call re-normalization ``rng.choice(p=...)`` performs.

        *seed* is either an integer (a fresh ``np.random.default_rng`` per
        call, so equal seeds give equal samples) or a
        ``np.random.Generator``, which is advanced in place — pass a shared
        generator to draw independent but reproducible batches across calls
        (what :meth:`repro.session.Session.run` does for repeated
        ``shots=`` jobs).
        """
        if isinstance(seed, np.random.Generator):
            rng = seed
        else:
            rng = np.random.default_rng(seed)
        cdf = np.cumsum(self.probabilities())
        if cdf[-1] <= 0.0:
            raise ValueError("cannot sample from a zero-norm state")  # lint: config-error
        uniform = rng.random(shots) * cdf[-1]
        # A draw landing exactly on cdf[-1] would index past the end.
        return np.minimum(
            np.searchsorted(cdf, uniform, side="right"), len(cdf) - 1
        )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        if other.num_qubits != self.num_qubits:
            raise StateValidationError("qubit counts differ")
        return float(abs(np.vdot(self._data, other._data)) ** 2)

    def allclose(self, other: "StateVector", atol: float = 1e-9, up_to_global_phase: bool = True) -> bool:
        """Element-wise comparison, optionally modulo a global phase."""
        if other.num_qubits != self.num_qubits:
            return False
        a, b = self._data, other._data
        if up_to_global_phase:
            # Align phases using the largest-magnitude amplitude.
            idx = int(np.argmax(np.abs(a)))
            if abs(a[idx]) < atol or abs(b[idx]) < atol:
                return bool(np.allclose(a, b, atol=atol))
            phase = (b[idx] / abs(b[idx])) / (a[idx] / abs(a[idx]))
            return bool(np.allclose(a * phase, b, atol=atol))
        return bool(np.allclose(a, b, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StateVector {self.num_qubits} qubits, norm={self.norm():.6f}>"
