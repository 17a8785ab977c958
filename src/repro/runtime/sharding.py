"""State-vector layout management: logical→physical permutation and sharding.

Between stages Atlas remaps qubits so that the next stage's local qubits
occupy the low-order *physical* positions of the distributed state
(Algorithm 1's ``SHARD`` step).  Functionally this is a permutation of the
amplitude array; on the real machine it is an all-to-all exchange whose
cost is modelled in :mod:`repro.cluster.comm`.

The functional permutation here is exact: the state is viewed as a rank-n
tensor (axis ``n-1-p`` holds physical qubit ``p``) and axes are transposed
so that each logical qubit moves to its new physical position.  Shards are
then contiguous slices of the permuted array: shard ``j`` holds the
amplitudes whose non-local physical bits encode ``j``.

The sharded executors rarely run that full-state permutation: the same
transpose, fixed at one shard index, is a strided :func:`shard_views` view
of the un-permuted array, so a stage boundary becomes the next pass's loads
(gather-in) or the previous pass's stores (scatter-out), as
:func:`in_pass_moves` decides.

A gate with a qubit at a non-local position acts on a shard whose index
fixes that qubit's bit: :func:`nonlocal_axes` says how, axis by axis — the
kinds of :func:`repro.circuits.gates.axes_of`, the one classification the
stager's insularity reads too — and :func:`shard_out_index` where the
shard goes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..circuits.gates import Gate, axes_of
from ..core.plan import QubitPartition
from ..errors import PlanValidationError, StateValidationError

__all__ = [
    "QubitLayout",
    "in_pass_moves",
    "nonlocal_axes",
    "permutation_axes",
    "permute_state",
    "shard_out_index",
    "shard_slices",
    "shard_views",
    "zero_state_shards",
]

#: A strided shard view reads or writes runs of ``2^RUN_BITS`` amplitudes
#: (128 bytes of complex128) when the array's physical bits ``0..RUN_BITS-1``
#: all sit on local positions of the shard layout.
RUN_BITS = 3


class QubitLayout:
    """Tracks the current logical→physical qubit mapping of the state."""

    def __init__(self, num_qubits: int, mapping: dict[int, int] | None = None):
        self.num_qubits = num_qubits
        if mapping is None:
            self._logical_to_physical = {q: q for q in range(num_qubits)}
        else:
            self._validate(mapping, num_qubits)
            self._logical_to_physical = dict(mapping)

    @staticmethod
    def _validate(mapping: dict[int, int], num_qubits: int) -> None:
        if sorted(mapping.keys()) != list(range(num_qubits)):
            raise PlanValidationError("mapping must cover every logical qubit")
        if sorted(mapping.values()) != list(range(num_qubits)):
            raise PlanValidationError(
                "mapping must be a permutation of physical positions"
            )

    def physical(self, logical: int) -> int:
        return self._logical_to_physical[logical]

    def logical(self, physical: int) -> int:
        return self.physical_to_logical()[physical]

    def logical_to_physical(self) -> dict[int, int]:
        return dict(self._logical_to_physical)

    def physical_to_logical(self) -> dict[int, int]:
        return {p: q for q, p in self._logical_to_physical.items()}

    def copy(self) -> "QubitLayout":
        return QubitLayout(self.num_qubits, self._logical_to_physical)

    def update(self, mapping: dict[int, int]) -> None:
        self._validate(mapping, self.num_qubits)
        self._logical_to_physical = dict(mapping)

    def is_identity(self) -> bool:
        return all(p == q for q, p in self._logical_to_physical.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitLayout):
            return NotImplemented
        return self._logical_to_physical == other._logical_to_physical

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<QubitLayout {self._logical_to_physical}>"


def permutation_axes(
    cur_map: dict[int, int], target: dict[int, int], n: int
) -> list[int]:
    """Tensor-axis permutation realising a layout change.

    Axis ``a`` of the current rank-``n`` state tensor holds physical qubit
    ``p = n-1-a``, i.e. logical qubit ``cur_map⁻¹(p)``; in the target
    tensor, axis ``a'`` must hold the logical qubit mapped to physical
    position ``n-1-a'``.  An identity result means the two mappings induce
    the same amplitude ordering (no data moves) — plan compilation elides
    the permutation entirely in that case.
    """
    phys_to_logical = {p: q for q, p in cur_map.items()}
    logical_to_axis = {phys_to_logical[p]: n - 1 - p for p in range(n)}
    target_inverse = {p: q for q, p in target.items()}
    return [logical_to_axis[target_inverse[n - 1 - a]] for a in range(n)]


def permute_state(
    state: np.ndarray,
    current: QubitLayout,
    target: dict[int, int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Permute *state* from the *current* layout to the *target* mapping.

    Parameters
    ----------
    state:
        Flat amplitude array laid out according to *current* (physical bit
        ``p`` of the index is logical qubit ``current.logical(p)``).
    current:
        Current layout (not modified).
    target:
        Desired logical→physical mapping.
    out:
        Optional destination buffer of the same size (must not overlap
        *state*).  When given, the permuted amplitudes are written into it
        and it is returned — no allocation.  Ignored when the permutation
        is an identity (the input array is returned as-is).

    Returns
    -------
    numpy.ndarray
        A C-contiguous array in the target layout: *state* itself for an
        identity permutation, otherwise *out* or a new array.
    """
    n = current.num_qubits
    if state.size != 1 << n:
        raise StateValidationError("state size does not match layout")
    cur_map = current.logical_to_physical()
    if cur_map == target:
        return state

    tensor = state.reshape((2,) * n)
    axes = permutation_axes(cur_map, target, n)
    if axes == list(range(n)):
        # The two mappings induce the same amplitude ordering; no data moves.
        return state
    permuted = np.transpose(tensor, axes=axes)
    if out is not None:
        if out.size != state.size:
            raise StateValidationError("out size does not match state")
        np.copyto(out.reshape(permuted.shape), permuted)
        return out
    return np.ascontiguousarray(permuted).reshape(-1)


def shard_slices(state: np.ndarray, local_qubits: int) -> list[np.ndarray]:
    """Split *state* into contiguous shards of ``2^local_qubits`` amplitudes.

    The returned arrays are views into *state* — mutating them mutates the
    underlying state, which is exactly what the shard-by-shard executor
    wants.  The views are pairwise disjoint (shard ``j`` covers exactly
    the half-open amplitude range ``[j·2^L, (j+1)·2^L)``), so concurrent
    workers of the parallel runtime may load and store *different* shards
    without synchronisation.
    """
    shard_size = 1 << local_qubits
    if state.size % shard_size != 0:
        raise StateValidationError(
            "state size is not a multiple of the shard size"
        )
    num_shards = state.size // shard_size
    return [state[j * shard_size : (j + 1) * shard_size] for j in range(num_shards)]


def shard_views(
    state: np.ndarray,
    layout: dict[int, int],
    shard_layout: dict[int, int],
    local_qubits: int,
) -> list[np.ndarray]:
    """Shard ``j`` of *shard_layout* as a ``(2,)*L`` view into *state*,
    which is laid out in *layout*.

    Element ``(b_{L-1}, ..., b_0)`` of view ``j`` is the amplitude whose
    *shard_layout* physical bits are ``b`` below ``L`` and ``j`` above —
    exactly the amplitude at that place of shard ``j`` of
    ``permute_state(state, layout, shard_layout)``, so copying a view is a
    shard load of the permuted state (or a store into it) without the
    permutation.  Both mappings must be bijections onto ``0..n-1``; then the
    views partition the amplitudes, pairwise disjoint like
    :func:`shard_slices`.
    """
    n = state.size.bit_length() - 1
    tensor = np.transpose(
        state.reshape((2,) * n), permutation_axes(layout, shard_layout, n)
    )
    high = n - local_qubits
    return [
        tensor[tuple((j >> (high - 1 - axis)) & 1 for axis in range(high))]
        for j in range(1 << high)
    ]


def zero_state_shards(state: np.ndarray, local_qubits: int) -> list[np.ndarray]:
    """The shards of |0…0⟩, in any layout, for a first pass to load
    instead of reading DRAM: shard 0 is ``e₀``, written into *state*'s own
    first slice (the rest of *state* is left as it is), and every other
    shard is one read-only zero-stride view of a single zero."""
    first = state[: 1 << local_qubits]
    first[:] = 0.0
    first[0] = 1.0
    zeros = np.broadcast_to(np.zeros((), dtype=state.dtype), first.shape)
    return [first] + [zeros] * (state.size // first.size - 1)


def in_pass_moves(
    old: dict[int, int], new: dict[int, int], local_qubits: int
) -> tuple[str, ...]:
    """The shard-pass moves that carry the state from layout *old* to
    *new*, best first — the sharded executors' one rule for a stage
    boundary (``()`` leaves the full-state :func:`permute_state`):

    ``"gather"``
        the next pass loads each shard of *new* through a
        :func:`shard_views` view of the array still in *old*; it holds when
        *old*'s physical bits ``0..RUN_BITS-1`` all land on local positions
        of *new*, so every DRAM read is a contiguous run;
    ``"scatter"``
        the previous pass stores each shard of *old* through a view of the
        second array, laid out in *new*; it holds when *new*'s low bits all
        come from local positions of *old*.

    When both hold the gather comes first: it measured cheaper on every
    such boundary of the repo benchmark's plans (``docs/performance.md``).
    """
    low = range(min(RUN_BITS, len(old)))
    old_at = {p: q for q, p in old.items()}
    new_at = {p: q for q, p in new.items()}
    moves = ()
    if all(new[old_at[p]] < local_qubits for p in low):
        moves += ("gather",)
    if all(old[new_at[p]] < local_qubits for p in low):
        moves += ("scatter",)
    return moves


@lru_cache(maxsize=16384)
def _axis_table(
    name: str,
    pattern: bytes,
    qubits: tuple[int, ...],
    physical: tuple[int, ...],
    local_qubits: int,
) -> tuple[tuple[int, int, str], ...]:
    """``(qubit, shift, kind)`` for every qubit of a gate at a non-local
    *physical* position ``p >= local_qubits``, in *qubits* order: bit
    ``shift = p - local_qubits`` of a shard's index is the qubit's fixed
    value on that shard, ``kind`` its axis kind
    (:func:`repro.circuits.gates.axes_of`: ``"control"``, ``"diagonal"``,
    ``"antidiagonal"`` or ``"mixing"``)."""
    kinds = axes_of(name, pattern).kinds
    return tuple(
        (q, p - local_qubits, kinds[pos])
        for pos, (q, p) in enumerate(zip(qubits, physical))
        if p >= local_qubits
    )


def nonlocal_axes(
    gate: Gate, logical_to_physical: dict[int, int], local_qubits: int
) -> tuple[tuple[int, int, str], ...]:
    """The :func:`_axis_table` of *gate* under the layout
    *logical_to_physical* — the one table the segmentation, the segment
    compiler and the race detector read.  A gate with every qubit local has
    none, and its matrix is not read."""
    physical = tuple(logical_to_physical[q] for q in gate.qubits)
    if all(p < local_qubits for p in physical):
        return ()
    return _axis_table(gate.name, gate.pattern()[0], gate.qubits, physical, local_qubits)


def shard_out_index(axes: tuple[tuple[int, int, str], ...], shard_index: int) -> int:
    """Where a gate with the non-local *axes* stores shard *shard_index*:
    every anti-diagonal axis flips its index bit — unless a non-local
    control bit is 0, which leaves the shard, and its index, untouched."""
    out_index = shard_index
    for _q, shift, kind in axes:
        if kind == "control":
            if not (shard_index >> shift) & 1:
                return shard_index
        elif kind == "antidiagonal":
            out_index ^= 1 << shift
    return out_index
