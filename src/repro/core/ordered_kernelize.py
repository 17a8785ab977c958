"""ORDERED-KERNELIZE — the contiguous-segment DP (Appendix A, Algorithm 5).

This simpler kernelizer only considers kernels that are contiguous segments
of the input gate sequence.  ``DP[i]`` stores the minimum cost of
kernelizing the first ``i`` gates; the transition tries every kernel ending
at position ``i``.  Its cost is never lower than KERNELIZE's (Theorem 6)
— the paper labels it "Atlas-Naive" in Figures 13–25 — but it is a useful
optimality reference for small circuits, and the refine pass's guard
against a beam that pruned the optimum away (Fig. 13) — the only way it
can beat KERNELIZE's answer.

The inner loop stops extending a candidate segment once its qubit width
exceeds every strategy's limit, which keeps the practical complexity well
below the worst-case ``O(|C|²)``.

One DP, two bodies, selected by the host and the input alone — no
parameter, no environment variable — over one set of flat inputs
(:class:`_Flat`: per-gate qubit masks and shared-memory costs, the fusion
cost by width, the cost model's scalars):

* ``ordered_segments`` in ``repro/sim/beam.c``, one foreign call per stage
  through the library :mod:`repro.sim.native` builds, caches and loads —
  what runs wherever that library loads and every qubit is below 64;
* :func:`_ordered_loop`, the same DP on Python ints — the fallback when the
  host has no library or a stage has a qubit >= 64, and the oracle the
  differential tests in ``tests/test_planner.py`` hold the C body to.

Both write ``prev[i]``, the start of the last kernel of the best answer for
the first ``i`` gates, with the same float expressions in the same order: the
segment's shared-memory sum accumulated backwards, ``min(fusion, shm)``, a
strict ``<`` on the split (the first of equal splits stands).  The kernels
are then built straight from the segment boundaries with
:meth:`CostModel.kernel_cost`'s expressions — gate costs summed forwards,
fusion when it is no dearer — so the result is the kernel sequence
``Kernel.from_gates`` would build, ``==`` field for field.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..sim import native
from .kernel import Kernel, KernelSequence, KernelType

__all__ = ["ordered_kernelize"]


class _Flat(NamedTuple):
    """A stage as the DP reads it."""

    #: Per gate: its qubits as a bitmask, its shared-memory cost.
    masks: list[int]
    costs: list[float]
    #: Every qubit of the stage, as a bitmask.
    union: int
    #: Fusion cost by kernel width, up to ``max_fusion``.
    fusion: list[float]
    shm_load: float
    max_fusion: int
    max_shm: int
    #: A segment wider than this (and of more than one gate) stops growing.
    max_width: int


def ordered_kernelize(
    stage: Circuit | Sequence[Gate],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> KernelSequence:
    """Optimal kernelization over contiguous gate segments (Algorithm 5),
    one native pass per stage.  See the module docstring for the two
    bodies."""
    gates: list[Gate] = list(stage.gates) if isinstance(stage, Circuit) else list(stage)
    flat = _flatten(gates, cost_model)
    lib = native.library()
    # No library on this host, or a qubit past the C body's 64-bit masks.
    if lib is None or flat.union >> 64:
        prev = _ordered_loop(flat)
    else:
        prev = _native_ordered(lib, flat)
    return _kernel_sequence(gates, flat, prev)


def _flatten(gates: Sequence[Gate], cost_model: CostModel) -> _Flat:
    """The flat inputs of one stage's DP."""
    masks: list[int] = []
    union = 0
    for gate in gates:
        mask = 0
        for q in gate.qubits:
            mask |= 1 << q
        masks.append(mask)
        union |= mask
    max_fusion = cost_model.max_fusion_qubits
    return _Flat(
        masks,
        cost_model.gate_costs(gates),
        union,
        [cost_model.fusion_cost(w) for w in range(max_fusion + 1)],
        cost_model.shm_load_cost,
        max_fusion,
        cost_model.max_shm_qubits,
        max(max_fusion, cost_model.max_shm_qubits),
    )


def _native_ordered(lib: Any, flat: _Flat) -> list[int]:
    """The DP in ``ordered_segments`` (``repro/sim/beam.c``): one call,
    which writes ``prev``."""
    n = len(flat.masks)
    masks = np.array(flat.masks, dtype=np.uint64)
    costs = np.array(flat.costs, dtype=np.float64)
    fusion = np.array(flat.fusion, dtype=np.float64)
    prev = np.empty(n + 1, dtype=np.int64)
    if lib.ordered_segments(
        n, masks.ctypes.data, costs.ctypes.data, fusion.ctypes.data, flat.shm_load,
        flat.max_fusion, flat.max_shm, flat.max_width, prev.ctypes.data,
    ) < 0:
        raise MemoryError("the native segment DP could not allocate its table")
    return prev.tolist()


def _ordered_loop(flat: _Flat) -> list[int]:
    """The DP on Python ints: ``prev[i]`` is the start of the last kernel of
    the best kernelization of the first ``i`` gates."""
    masks, costs, fusion = flat.masks, flat.costs, flat.fusion
    shm_load, max_fusion, max_shm, max_width = (
        flat.shm_load, flat.max_fusion, flat.max_shm, flat.max_width
    )
    inf = float("inf")
    n = len(masks)
    # dp[i] = (cost, split point j) meaning the last kernel is gates[j:i].
    dp_cost = [inf] * (n + 1)
    dp_prev = [0] * (n + 1)
    dp_cost[0] = 0.0

    for i in range(1, n + 1):
        mask = 0
        shm_sum = 0.0
        # Grow the candidate kernel backwards from position i-1.
        for j in range(i - 1, -1, -1):
            mask |= masks[j]
            shm_sum += costs[j]
            width = mask.bit_count()
            if width > max_width and j < i - 1:
                break
            fus = fusion[width] if width <= max_fusion else inf
            shm = shm_load + shm_sum if width <= max_shm else inf
            cost = min(fus, shm)
            total = dp_cost[j] + cost
            if total < dp_cost[i]:
                dp_cost[i] = total
                dp_prev[i] = j
    return dp_prev


def _kernel_sequence(gates: list[Gate], flat: _Flat, prev: list[int]) -> KernelSequence:
    """The kernels of the segment boundaries *prev* encodes, each priced as
    :meth:`CostModel.kernel_cost` prices it."""
    boundaries: list[tuple[int, int]] = []
    i = len(gates)
    while i > 0:
        j = prev[i]
        boundaries.append((j, i))
        i = j
    boundaries.reverse()

    inf = float("inf")
    masks, costs, fusion = flat.masks, flat.costs, flat.fusion
    kernels: list[Kernel] = []
    for a, b in boundaries:
        mask = 0
        gate_costs = 0.0
        for g in range(a, b):
            mask |= masks[g]
            gate_costs += costs[g]
        qubits: list[int] = []
        while mask:
            low = mask & -mask
            qubits.append(low.bit_length() - 1)
            mask ^= low
        width = len(qubits)
        fus = fusion[width] if width <= flat.max_fusion else inf
        shm = flat.shm_load + gate_costs if width <= flat.max_shm else inf
        kind, cost = (KernelType.FUSION, fus) if fus <= shm else (KernelType.SHM, shm)
        kernels.append(
            Kernel(
                gates=tuple(gates[a:b]),
                qubits=tuple(qubits),
                kernel_type=kind,
                cost=cost,
                gate_indices=tuple(range(a, b)),
            )
        )
    return KernelSequence(kernels=kernels)
