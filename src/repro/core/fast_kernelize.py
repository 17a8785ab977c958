"""FAST-KERNELIZE — the beam DP of :mod:`repro.core.kernelize`, run native.

Same algorithm, same search, same answers — only faster.  The reference
implementation in :mod:`repro.core.kernelize` mirrors the paper's data
structures (frozensets for qubit sets, dataclasses for DP states), which
makes it easy to audit against Algorithms 3/4 but slow.  This module replays
the *identical* dynamic program over flat inputs (:class:`_Flat`): per-gate
qubit masks and shared-memory costs, per-position suffix masks, the fusion
cost by kernel width, and the cost model's and config's scalars.  One search
has three bodies, and nothing but the host and the input selects between the
two that plan — no parameter, no environment variable:

* ``beam_kernelize`` in ``repro/sim/beam.c``, one foreign call per stage
  through the library :mod:`repro.sim.native` builds, caches and loads —
  what runs wherever that library loads and every qubit is below 64;
* :func:`_beam_loop`, the same search on Python ints — the fallback when the
  host has no library, or a stage has a qubit >= 64, which the C body's
  64-bit masks cannot hold;
* the reference :func:`repro.core.kernelize.kernelize`, the audit oracle.

The Python loop's representation, which the C body keeps field for field:

* qubit sets are **int bitmasks**, so union/intersection/subset tests are
  single operations and widths come from :meth:`int.bit_count`;
* an open kernel is a plain tuple carrying its gate set (an int with one bit
  per gate index; the C body interns gate sets instead — a kernel's gates
  are appended in increasing index order, so ``(parent set, gate)`` names a
  set once), qubit mask, extensible mask (``-1`` standing in for the
  paper's ``ALLQUBITS`` marker), running shared-memory cost, and current
  closing cost;
* a transition costs what changed, not the whole state: Algorithm 4's EXTQ
  update and the dead-kernel test are computed once per state and shared by
  its branches, a child's open kernels and key are a splice of its parent's,
  and the closed kernels are a parent-pointer chain walked once, for the
  winning state.

Equivalence contract
--------------------
For every input and :class:`~repro.core.kernelize.KernelizeConfig` each body
explores the same beam states in the same order as the reference, so it
returns the same ordered kernels with the same types and costs.  What that
rests on, operation for operation:

* the state key identifies the same states (the reference's sorted tuple of
  open kernels' ``gate_indices`` is the open order itself, because kernels
  are created in increasing first-gate order and never reordered);
* dominance is first-come on ``closed_cost <``, a dominating state replaces
  the old one where it stood (a dict's assignment), and ``closed_cost``
  grows by the closing costs of the kernels that die, added in open order;
* the ranking estimate is ``closed_cost + (0.0 + c1 + c2 + ...)`` over the
  open kernels' closing costs in open order — exactly this association:
  adding ``closed_cost`` first instead differs in the last bit, which
  re-orders ties and changes the kernelization (the reference's
  ``_estimate`` is pinned to the same expression; the C body is built with
  ``-ffp-contract=off``, so nothing fuses it);
* the sort is stable over first-insertion order, and the final pick is the
  first state with the least ``closed_cost + c1 + c2 + ...``.

The differential tests in ``tests/test_planner.py`` compare the ordered
``(gate_indices, kernel_type, cost)`` lists of all three bodies with ``==``
across the circuit library, benchmark-sized stages and randomized circuits;
the planning pipeline's presets rely on it when they substitute this
implementation for the reference one.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..sim import native
from .kernel import KernelSequence
from .kernelize import KernelizeConfig, _build_kernel_sequence

__all__ = ["fast_kernelize"]

#: Ranking key of a DP state: its estimate field.
_ESTIMATE = itemgetter(4)


class _Flat(NamedTuple):
    """A stage as the beam reads it: everything the search needs of the
    gates, the cost model and the config, as flat lists and scalars."""

    #: Per gate: its qubits as a bitmask, its shared-memory cost.
    masks: list[int]
    costs: list[float]
    #: ``suffix[i + 1]``: the qubits of the gates after position ``i``;
    #: ``suffix[0]`` every qubit of the stage.
    suffix: list[int]
    #: Fusion cost by kernel width, up to the stage's width (``inf`` past
    #: ``max_fusion_qubits``).
    fusion: list[float]
    shm_load: float
    max_shm: int
    max_width: int
    subsume: bool
    beam_width: int


def fast_kernelize(
    stage: Circuit | Sequence[Gate],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    config: KernelizeConfig = KernelizeConfig(),
) -> KernelSequence:
    """The DP of :func:`repro.core.kernelize.kernelize`, one native pass per
    stage.

    Drop-in compatible: same signature, same result, many times faster.  See
    the module docstring for the three bodies and the equivalence contract.
    """
    gates: list[Gate] = list(stage.gates) if isinstance(stage, Circuit) else list(stage)
    flat = _flatten(gates, cost_model, config)
    lib = native.library()
    kernels: Sequence[Sequence[int]]
    # No library on this host, or a qubit past the C body's 64-bit masks.
    if lib is None or flat.suffix[0] >> 64:
        kernels = _beam_loop(flat)
    else:
        kernels = _native_beam(lib, flat)
    return _build_kernel_sequence(gates, kernels, cost_model)


def _flatten(gates: Sequence[Gate], cost_model: CostModel, config: KernelizeConfig) -> _Flat:
    """The flat inputs of one stage's search."""
    max_width = config.max_kernel_width
    if max_width is None:
        max_width = max(cost_model.max_fusion_qubits, cost_model.max_shm_qubits)
    masks: list[int] = []
    for gate in gates:
        mask = 0
        for q in gate.qubits:
            mask |= 1 << q
        masks.append(mask)
    n = len(gates)
    suffix = [0] * (n + 1)
    running = 0
    for i in range(n - 1, -1, -1):
        suffix[i + 1] = running
        running |= masks[i]
    suffix[0] = running
    # A kernel's closing cost is min(fusion, shm_load + shm_sum), each inf
    # beyond its width limit; fusion_cost is already inf past max_fusion, and
    # no kernel is wider than the stage.
    return _Flat(
        masks,
        cost_model.gate_costs(gates),
        suffix,
        [cost_model.fusion_cost(w) for w in range(running.bit_count() + 1)],
        cost_model.shm_load_cost,
        cost_model.max_shm_qubits,
        max_width,
        config.subsume,
        config.pruning_threshold,
    )


def _native_beam(lib: Any, flat: _Flat) -> list[list[int]]:
    """The search in ``beam_kernelize`` (``repro/sim/beam.c``): one call,
    which writes each gate's kernel as a position in the closing order."""
    n = len(flat.masks)
    masks = np.array(flat.masks, dtype=np.uint64)
    costs = np.array(flat.costs, dtype=np.float64)
    suffix = np.array(flat.suffix, dtype=np.uint64)
    fusion = np.array(flat.fusion, dtype=np.float64)
    kernel_of = np.empty(n, dtype=np.int64)
    count = lib.beam_kernelize(
        n, masks.ctypes.data, costs.ctypes.data, suffix.ctypes.data, fusion.ctypes.data,
        flat.shm_load, flat.max_shm, flat.max_width, flat.subsume, flat.beam_width,
        kernel_of.ctypes.data,
    )
    if count < 0:
        raise MemoryError("the native kernelizer could not allocate its beam")
    kernels: list[list[int]] = [[] for _ in range(count)]
    for gate, kernel in enumerate(kernel_of.tolist()):
        kernels[kernel].append(gate)
    return kernels


def _beam_loop(flat: _Flat) -> list[tuple[int, ...]]:
    """The search on Python ints: the winner's kernels as gate indices, closed
    ones in closing order, then the still-open ones."""
    gate_masks, shm_gate_cost, suffix, fusion_table = flat.masks, flat.costs, flat.suffix, flat.fusion
    shm_load, max_shm, max_width = flat.shm_load, flat.max_shm, flat.max_width
    subsume, beam_width = flat.subsume, flat.beam_width
    inf = float("inf")

    # A DP state is (kernels, keys, closed_cost, closed, estimate).  An open
    # kernel is (gate_bits, qubit_mask, ext_mask, shm_sum, close_now):
    # gate_bits has bit g set for every gate g of the kernel, ext_mask == -1
    # is ALLQUBITS, shm_sum is the running per-gate shared-memory cost and
    # close_now the kernel's current closing cost, refreshed whenever a gate
    # joins.  keys == tuple(k[0] for k in kernels) is the state key: kernels
    # are only ever appended (a new kernel's first gate index exceeds every
    # older one), replaced in place or removed, so the open order is always
    # the reference's sorted-by-gate-indices order and a child's key is a
    # splice of its parent's.  closed is a parent-pointer chain
    # (parent, gate_bits), None when empty, materialised for the winner only.
    # The beam is the list of surviving states in ranked order.
    beam: list[tuple] = [((), (), 0.0, None, 0.0)]

    for i in range(len(gate_masks)):
        gmask = gate_masks[i]
        not_gmask = ~gmask
        future = suffix[i + 1]
        gcost = shm_gate_cost[i]
        gbit = 1 << i
        next_states: dict[tuple, tuple] = {}

        for kernels, keys, closed_cost, closed, _estimate in beam:
            # One pass per state, shared by all of its branches: which
            # kernels accept the gate, Algorithm 4's EXTQ update of every
            # kernel the gate does not join, and which of those die.  A
            # kernel whose extensible set the gate does not touch is reused
            # as it is; it survived the previous position, so it cannot die
            # here unless no gate follows (then every kernel does).
            observed = []
            acceptors = []
            subsumed = -1
            dead = 0 if future else -1  # bit idx set: observed[idx] must close
            for idx, kernel in enumerate(kernels):
                kbits, kmask, ext, ksum, kclose = kernel
                if subsumed < 0 and (
                    (kmask | gmask).bit_count() <= max_width
                    if ext == -1
                    else not (gmask & ~ext)
                ):
                    acceptors.append(idx)
                    # Subsumption shortcut: the gate's qubits are already
                    # inside this open kernel, so adding it there is never
                    # worse.
                    if subsume and not (gmask & ~kmask):
                        subsumed = idx
                # EXTQ loses the gate's qubits; ALLQUBITS collapses to the
                # kernel's own qubits first, once the gate touches them.
                extensible = kmask if ext == -1 else ext
                if extensible & gmask:
                    ext = extensible & not_gmask
                    kernel = (kbits, kmask, ext, ksum, kclose)
                    if not (ext & future):
                        dead |= 1 << idx
                observed.append(kernel)
            others = tuple(observed)

            # Branch idx < len(kernels) adds the gate to kernels[idx]; the
            # last branch starts a new single-gate kernel, which is the same
            # splice one past the end.
            if subsumed >= 0:
                branches = (subsumed,)
            else:
                acceptors.append(len(kernels))
                branches = acceptors
            for idx in branches:
                if idx < len(kernels):
                    kbits, kmask, ext, ksum, _kclose = kernels[idx]
                    kbits |= gbit
                    if ext == -1:
                        kmask |= gmask
                    ksum += gcost
                else:
                    kbits, kmask, ext, ksum = gbit, gmask, -1, gcost
                width = kmask.bit_count()
                fusion = fusion_table[width]
                shm = shm_load + ksum if width <= max_shm else inf
                joined = (kbits, kmask, ext, ksum, fusion if fusion < shm else shm)
                new_kernels = others[:idx] + (joined,) + others[idx + 1 :]

                new_closed_cost = closed_cost
                new_closed = closed
                if dead & ~(1 << idx) or not (ext & future):
                    # Something dies (empty extensible set, or no future
                    # gate can extend it): close in open order — the
                    # reference's _close_dead_kernels.
                    still_open = []
                    for kernel in new_kernels:
                        if kernel[2] & future:
                            still_open.append(kernel)
                        else:
                            new_closed_cost += kernel[4]
                            new_closed = (new_closed, kernel[0])
                    new_kernels = tuple(still_open)
                    new_keys = tuple([kernel[0] for kernel in still_open])
                else:
                    new_keys = keys[:idx] + (kbits,) + keys[idx + 1 :]

                best = next_states.get(new_keys)
                if best is None or new_closed_cost < best[2]:
                    # The reference's _estimate, in its association: the
                    # open kernels' closing costs summed in open order,
                    # then added to the closed cost.
                    open_estimate = 0.0
                    for kernel in new_kernels:
                        open_estimate += kernel[4]
                    next_states[new_keys] = (
                        new_kernels,
                        new_keys,
                        new_closed_cost,
                        new_closed,
                        new_closed_cost + open_estimate,
                    )

        # Beam pruning (Appendix B-f).  The sort is stable, so states of
        # equal estimate keep their first-insertion order — the order every
        # downstream tie-break sees, as in the reference.
        beam = sorted(next_states.values(), key=_ESTIMATE)[:beam_width]

    # The first state of least total; the first state when no total is
    # finite, as in the reference.
    best_total = inf
    best_state = beam[0]
    for state in beam:
        total = state[2]
        for kernel in state[0]:
            total += kernel[4]
        if total < best_total:
            best_total = total
            best_state = state

    # Materialise the winner: closed kernels in closing order, then the
    # still-open ones — the order _build_kernel_sequence's topological sort
    # breaks its ties by.
    kernels, keys, _closed_cost, closed, _estimate = best_state
    chain = []
    while closed is not None:
        closed, kbits = closed
        chain.append(kbits)
    chain.reverse()
    chain.extend(keys)
    return [_gate_indices(b) for b in chain]


def _gate_indices(bits: int) -> tuple[int, ...]:
    """The ascending gate indices of a kernel's gate-set bitmask."""
    indices = []
    while bits:
        low = bits & -bits
        indices.append(low.bit_length() - 1)
        bits ^= low
    return tuple(indices)
