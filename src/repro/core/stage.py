"""Circuit staging (Section IV of the paper).

The staging problem splits a circuit into at most ``s`` contiguous-in-
dependency-order stages and picks, for every stage, a partition of the
logical qubits into ``L`` local, ``R`` regional and ``G`` global qubits
such that every *non-insular* qubit of every gate of the stage is local.
Communication then happens only between stages (a qubit remapping
all-to-all), and the objective (Equation 2/3) charges 1 unit for every
qubit that newly becomes local and ``c`` units for every qubit that newly
becomes global.

This module implements:

* :func:`build_staging_ilp` — the binary ILP of Equations (3)–(11),
* :func:`stage_windows` — each gate's earliest and latest feasible stage
  under a reachability relaxation, computed before any model exists: they
  give a lower bound on the stage count and fix the ``F`` variables outside
  the windows,
* :func:`solve_staging` — one solve for a fixed number of stages ``s``,
* :func:`stage_circuit` — Algorithm 2: certify before solving, then iterate
  ``s`` upward from the windows' lower bound and return the first feasible
  (hence stage-count-minimal) solution,
* the certificate: at the windows' lower bound, a window-driven staging
  (:func:`_window_staging`) and a lower bound on Equation (3)
  (:func:`_staging_bound`); when the staging's cost meets the bound it is
  optimal and no model is built (at one stage the staging is built in
  closed form, :func:`_one_stage_staging`),
* :func:`transition_cost` — Equation (3) of a staging, the one evaluator
  every stager reports,
* the extraction both paths share (:func:`_assemble`): per-stage
  subcircuits and qubit partitions, including the re-insertion of
  fully-insular gates that the ILP does not need to see, each in the first
  stage of its legal range where its qubits are local.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..circuits.circuit import Circuit
from ..ilp import IlpModel, LinExpr, solve
from .plan import QubitPartition, Stage

__all__ = [
    "StagingResult",
    "StageWindows",
    "build_staging_ilp",
    "solve_staging",
    "stage_circuit",
    "stage_windows",
    "transition_cost",
]


@dataclass
class StagingResult:
    """Result of the staging algorithm."""

    stages: list[Stage]
    num_stages: int
    communication_cost: float
    ilp_feasible: bool
    solver_status: str = ""
    #: Wall seconds spent in the ILP iteration — the window passes, model
    #: construction and solves, infeasible candidates included (0.0 for
    #: heuristic stagers).
    solver_seconds: float = 0.0
    #: Number of ILP solves performed (infeasible stage counts included).
    num_solves: int = 0
    #: Stage count the iteration started at: the stage windows' proven lower
    #: bound (0 when no ILP ran).
    lower_bound: int = 0
    #: ``(rows, columns, columns fixed by their bounds)`` of each model
    #: solved, in solve order.
    model_sizes: list[tuple[int, int, int]] = field(default_factory=list)
    #: The certificate's proven lower bound on Equation (3) at the stage
    #: count ``lower_bound`` (0.0 when no ILP stager ran).
    stage_bound: float = 0.0
    #: Cost of the certificate's window-driven staging minus
    #: ``stage_bound`` (0.0 when it was returned; ``None`` when none was built).
    certificate_gap: float | None = None
    #: Why the certificate built no staging ("forced set exceeds L"), or "".
    certificate_declined: str = ""

    def partitions(self) -> list[QubitPartition]:
        return [s.partition for s in self.stages]


@dataclass(frozen=True)
class _IlpGate:
    """A gate as seen by the ILP: only its non-insular qubits matter."""

    original_index: int
    non_insular: tuple[int, ...]


def _ilp_gates(circuit: Circuit, relabel: Mapping[int, int] | None = None) -> list[_IlpGate]:
    """Gates with at least one non-insular qubit (the only ones the ILP must place).

    Fully-insular gates (diagonal gates, controlled-phase gates, ...) can be
    executed in any stage without affecting locality, so they are assigned
    after the solve; dropping them shrinks the ILP dramatically for
    phase-heavy circuits such as ``qft``.  With *relabel* the non-insular
    qubits are renamed through it (the circuit itself is not rebuilt, which
    would throw away its gates' cached insularity).
    """
    out = []
    for idx, gate in enumerate(circuit):
        non_insular = gate.non_insular_qubits()
        if non_insular:
            if relabel is not None:
                non_insular = tuple(relabel[q] for q in non_insular)
            out.append(_IlpGate(idx, non_insular))
    return out


def _ilp_dependencies(circuit: Circuit, gates: Sequence[_IlpGate]) -> list[tuple[int, int]]:
    """Dependencies among the ILP gates, projected through insular gates.

    Fully-insular gates are not part of the ILP, but dependency chains that
    pass *through* them (e.g. ``h(a) → cp(a,b) → h(b)``) still constrain the
    relative stages of the surrounding non-insular gates.  This walk
    propagates, along every qubit, the set of ILP gates whose influence has
    reached the current position without crossing another ILP gate, and
    emits an edge whenever an ILP gate consumes that influence.
    """
    ilp_index = {g.original_index: r for r, g in enumerate(gates)}
    # frontier[q]: set of reduced ILP-gate indices reaching the latest gate on q.
    frontier: dict[int, frozenset[int]] = {}
    edges: set[tuple[int, int]] = set()
    for idx, gate in enumerate(circuit):
        incoming: set[int] = set()
        for q in gate.qubits:
            incoming |= frontier.get(q, frozenset())
        if idx in ilp_index:
            r = ilp_index[idx]
            for src in incoming:
                if src != r:
                    edges.add((src, r))
            carried = frozenset({r})
        else:
            carried = frozenset(incoming)
        for q in gate.qubits:
            frontier[q] = carried
    return sorted(edges)


@dataclass(frozen=True)
class StageWindows:
    """Every ILP gate's feasible stage window, proven before a model exists.

    ``earliest[g]`` is the first stage (1-based) ILP gate ``g`` can run in
    and ``latest_from_end[g]`` the same counted back from the last stage,
    both under the reachability relaxation of :func:`_admission_rounds`:
    every valid staging with ``s`` stages has
    ``earliest[g] <= stage(g) <= s - latest_from_end[g] + 1``.
    ``lower_bound`` is a stage count no valid staging can go below.
    """

    earliest: tuple[int, ...]
    latest_from_end: tuple[int, ...]
    lower_bound: int


def _admission_rounds(
    masks: Sequence[int], preds: Sequence[Sequence[int]], local_qubits: int
) -> list[int]:
    """Round (1-based) in which the reachability relaxation admits each gate.

    Gates are in topological order, *masks* their non-insular qubit sets.
    Round ``k + 1`` admits a gate iff the union of non-insular qubits over
    the gate and its ancestors not admitted by round ``k`` has at most ``L``
    members.  A stage executes a predecessor-closed set of the remaining
    gates whose non-insular qubits all sit in *one* local set of size ``L``,
    so — by induction over ``k`` — the gates of stages ``1..k`` of any valid
    staging are among those admitted by round ``k``: the admitted set is a
    superset of what any single choice of local sets can have executed, and
    a gate's round is a lower bound on its stage.  No gate may have more
    than ``L`` non-insular qubits (the first waiting gate is then always
    admitted, so every round makes progress).
    """
    rounds = [0] * len(masks)
    waiting = list(range(len(masks)))
    k = 0
    while waiting:
        k += 1
        union: dict[int, int] = {}  # gate not admitted before this round -> qubit mask
        left = []
        for g in waiting:
            mask = masks[g]
            for p in preds[g]:
                mask |= union.get(p, 0)
            union[g] = mask
            if mask.bit_count() <= local_qubits:
                rounds[g] = k
            else:
                left.append(g)
        waiting = left
    return rounds


def _mask(qubits: Sequence[int]) -> int:
    return sum(1 << q for q in qubits)


def _stage_windows(
    gates: Sequence[_IlpGate], deps: Sequence[tuple[int, int]], local_qubits: int
) -> StageWindows:
    """Windows of the reduced gate DAG (*gates*, *deps*) for ``L`` local qubits.

    Raises :class:`RuntimeError` when a gate has more than ``L`` non-insular
    qubits: the forward pass would stall on it, and no stage count is
    feasible.
    """
    for gate in gates:
        if len(gate.non_insular) > local_qubits:
            raise RuntimeError(
                f"no feasible staging: gate {gate.original_index} has "
                f"{len(gate.non_insular)} non-insular qubits but only "
                f"L={local_qubits} qubits are local"
            )
    masks = [_mask(gate.non_insular) for gate in gates]
    preds: list[list[int]] = [[] for _ in gates]
    succs: list[list[int]] = [[] for _ in gates]
    for g1, g2 in deps:
        preds[g2].append(g1)
        succs[g1].append(g2)
    earliest = _admission_rounds(masks, preds, local_qubits)
    # The same pass on the reversed DAG; reversed index order is topological.
    last = len(gates) - 1
    latest_from_end = _admission_rounds(
        masks[::-1], [[last - h for h in succs[g]] for g in range(last, -1, -1)], local_qubits
    )[::-1]
    # ``s`` stages expose at most ``s * L`` distinct local qubits, and every
    # qubit of the non-insular union must be local in some stage.
    union = 0
    for mask in masks:
        union |= mask
    cover = -(-union.bit_count() // local_qubits) if union else 0
    lower_bound = max([1, cover] + [e + b - 1 for e, b in zip(earliest, latest_from_end)])
    return StageWindows(tuple(earliest), tuple(latest_from_end), lower_bound)


def stage_windows(circuit: Circuit, local_qubits: int) -> StageWindows:
    """The stage windows of *circuit* (indexed like its ILP gates)."""
    gates = _ilp_gates(circuit)
    return _stage_windows(gates, _ilp_dependencies(circuit, gates), local_qubits)


def _check_qubit_classes(num_qubits: int, local: int, regional: int, global_: int) -> None:
    if local + regional + global_ != num_qubits:
        raise ValueError(
            f"L+R+G = {local + regional + global_} "
            f"must equal the number of qubits ({num_qubits})"
        )


def build_staging_ilp(
    circuit: Circuit,
    num_stages: int,
    local_qubits: int,
    regional_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float = 3.0,
    windows: StageWindows | None = None,
) -> tuple[IlpModel, dict]:
    """Build the binary ILP of Equations (3)–(11) in the circuit's own labels.

    Returns the model plus a dictionary of the variable matrices
    (``A[q][k]``, ``B[q][k]``, ``F[g][k]``) needed to extract the staging.
    With *windows* (:func:`stage_windows` of the same circuit and ``L``) the
    ``F`` variables outside each gate's window are fixed through their
    bounds; the feasible set and the optimum are the same either way.
    """
    _check_qubit_classes(circuit.num_qubits, local_qubits, regional_qubits, global_qubits)
    gates = _ilp_gates(circuit)
    return _staging_model(
        f"stage_{circuit.name}_s{num_stages}", circuit.num_qubits, gates,
        _ilp_dependencies(circuit, gates), num_stages, local_qubits, global_qubits,
        inter_node_cost_factor, windows,
    )


def _staging_model(
    name: str,
    n: int,
    gates: Sequence[_IlpGate],
    deps: Sequence[tuple[int, int]],
    s: int,
    local_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float,
    windows: StageWindows | None,
) -> tuple[IlpModel, dict]:
    """Emit Equations (3)–(11) for the reduced DAG straight into the row store.

    Variable order, row order and coefficients are those of the
    expression-algebra construction kept as the oracle in
    ``tests/test_stage_windows.py``; only the bounds of ``F`` depend on
    *windows*.
    """
    model = IlpModel(name=name)
    # A[q][k] = 1 iff logical qubit q is local at stage k;
    # B[q][k] = 1 iff it is global at stage k.
    a_vars = [[model.binary_var(f"A_{q}_{k}") for k in range(s)] for q in range(n)]
    b_vars = [[model.binary_var(f"B_{q}_{k}") for k in range(s)] for q in range(n)]
    # F[g][k] = 1 iff ILP gate g is finished by the end of stage k.  A gate's
    # stage min{k | F[g][k] = 1} lies in its window in every feasible point,
    # so F is 0 before the window opens and 1 from where it closes.
    f_vars = []
    for g in range(len(gates)):
        opens = windows.earliest[g] - 1 if windows else 0
        closes = s - windows.latest_from_end[g] if windows else s
        f_vars.append([
            model.binary_var(f"F_{g}_{k}", lower=float(k >= closes), upper=float(k >= opens))
            for k in range(s)
        ])
    # S/T are the transition indicator variables of the objective.
    s_vars = [[model.binary_var(f"S_{q}_{k}") for k in range(s - 1)] for q in range(n)]
    t_vars = [[model.binary_var(f"T_{q}_{k}") for k in range(s - 1)] for q in range(n)]
    ai, bi, fi, si, ti = (
        [[v.index for v in row] for row in block]
        for block in (a_vars, b_vars, f_vars, s_vars, t_vars)
    )

    # Objective (3): total qubit-update cost across stage transitions.
    objective: dict[int, float] = {}
    for q in range(n):
        for k in range(s - 1):
            objective[si[q][k]] = 1.0
            objective[ti[q][k]] = float(inter_node_cost_factor)
    model.minimize(LinExpr(objective))

    inf = math.inf
    row = model.add_row
    for q in range(n):
        for k in range(s - 1):
            # (4): A[q][k+1] <= A[q][k] + S[q][k]
            row((ai[q][k + 1], ai[q][k], si[q][k]), (1.0, -1.0, -1.0), -inf, 0.0)
            # (5): B[q][k+1] <= B[q][k] + T[q][k]
            row((bi[q][k + 1], bi[q][k], ti[q][k]), (1.0, -1.0, -1.0), -inf, 0.0)

    for g, gate in enumerate(gates):
        fg = fi[g]
        for k in range(s - 1):
            # (6): F[g][k] <= F[g][k+1]
            row((fg[k], fg[k + 1]), (1.0, -1.0), -inf, 0.0)
        # (7): F[g][k] <= F[g][k-1] + A[q][k] for every non-insular qubit q.
        for q in gate.non_insular:
            row((fg[0], ai[q][0]), (1.0, -1.0), -inf, 0.0)
            for k in range(1, s):
                row((fg[k], fg[k - 1], ai[q][k]), (1.0, -1.0, -1.0), -inf, 0.0)
        # (9): F[g][s-1] = 1
        row((fg[s - 1],), (1.0,), 1.0, 1.0)

    # (8): dependency order — if g2 is finished by stage k, so is g1.
    for g1, g2 in deps:
        for k in range(s):
            row((fi[g2][k], fi[g1][k]), (1.0, -1.0), -inf, 0.0)

    for q in range(n):
        for k in range(s):
            # (10): a qubit cannot be local and global at the same time.
            row((ai[q][k], bi[q][k]), (1.0, 1.0), -inf, 1.0)
    ones = (1.0,) * n
    for k in range(s):
        # (11): exactly L local and G global qubits at each stage.
        row([ai[q][k] for q in range(n)], ones, float(local_qubits), float(local_qubits))
        row([bi[q][k] for q in range(n)], ones, float(global_qubits), float(global_qubits))

    variables = {"A": a_vars, "B": b_vars, "F": f_vars, "S": s_vars, "T": t_vars, "gates": gates}
    return model, variables


@dataclass(frozen=True)
class _CanonicalProblem:
    """What the ILP sees of a circuit.

    The ILP's qubits are the circuit's *first-use-order* labels
    (:meth:`Circuit.canonical_relabeling`, what ``shared_plan_key`` hashes):
    ``relabel[q]`` is the ILP qubit of circuit qubit ``q``.  Two circuits
    that differ by a qubit relabelling therefore hand the solver the
    identical model and get stagings that are images of one another,
    whichever of several equal-cost optima the solver returns.
    """

    circuit: Circuit
    relabel: Mapping[int, int]
    gates: list[_IlpGate]
    deps: list[tuple[int, int]]

    @classmethod
    def of(cls, circuit: Circuit) -> "_CanonicalProblem":
        relabel = circuit.canonical_relabeling()
        gates = _ilp_gates(circuit, relabel)
        return cls(circuit, relabel, gates, _ilp_dependencies(circuit, gates))


def _solve_once(
    problem: _CanonicalProblem,
    num_stages: int,
    local_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float,
    backend: str,
    time_limit: float | None,
    windows: StageWindows | None,
) -> tuple[StagingResult | None, IlpModel]:
    """Build and solve the model of *problem* for one stage count."""
    circuit = problem.circuit
    model, variables = _staging_model(
        f"stage_{circuit.name}_s{num_stages}", circuit.num_qubits, problem.gates,
        problem.deps, num_stages, local_qubits, global_qubits, inter_node_cost_factor,
        windows,
    )
    solution = solve(model, backend=backend, time_limit=time_limit)
    if not solution.status.is_feasible:
        return None, model
    return _extract_stages(problem, num_stages, variables, solution, inter_node_cost_factor), model


def solve_staging(
    circuit: Circuit,
    num_stages: int,
    local_qubits: int,
    regional_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float = 3.0,
    backend: str = "scipy",
    time_limit: float | None = 120.0,
) -> StagingResult | None:
    """Solve the staging ILP for a fixed stage count; ``None`` if infeasible."""
    _check_qubit_classes(circuit.num_qubits, local_qubits, regional_qubits, global_qubits)
    result, _ = _solve_once(
        _CanonicalProblem.of(circuit), num_stages, local_qubits, global_qubits,
        inter_node_cost_factor, backend, time_limit, None,
    )
    return result


def transition_cost(partitions: Sequence[QubitPartition], inter_node_cost_factor: float) -> float:
    """Equation (3) of a staging: 1 per qubit that newly becomes local, ``c`` per newly global.

    The one evaluator of a staging's communication cost: the ILP's
    extraction, the certificate and the heuristic stagers all report this
    value, summed as integers before the factor is applied, so an integer
    cost compares exactly.
    """
    new_local = new_global = 0
    for before, after in zip(partitions, partitions[1:]):
        new_local += len(set(after.local) - set(before.local))
        new_global += len(set(after.global_) - set(before.global_))
    return float(new_local + inter_node_cost_factor * new_global)


def _place_gates(
    circuit: Circuit, ilp_stage: Mapping[int, int], partitions: Sequence[QubitPartition]
) -> list[int]:
    """Stage of every gate: the ILP gates' as given, the fully-insular ones chosen here.

    A fully-insular gate may run in any stage of its legal range, from the
    latest stage of its predecessors (ASAP) to the earliest stage of its
    successors (ALAP, which a backward pass over the qubit wires gives).
    It goes to the first stage of that range in which all of its qubits
    are local, so that a kernel rather than a non-local op applies it, and
    to ASAP when there is none.
    """
    s = len(partitions)
    alap = [0] * len(circuit)
    following = [s - 1] * circuit.num_qubits
    for idx in range(len(circuit) - 1, -1, -1):
        qubits = circuit[idx].qubits
        k = ilp_stage.get(idx)
        if k is None:
            k = min((following[q] for q in qubits), default=s - 1)
        alap[idx] = k
        for q in qubits:
            following[q] = k
    local_sets = [set(p.local) for p in partitions]
    stage_of_gate: list[int] = []
    last_stage_on_qubit = [0] * circuit.num_qubits
    for idx, gate in enumerate(circuit):
        k = ilp_stage.get(idx)
        if k is None:
            asap = max((last_stage_on_qubit[q] for q in gate.qubits), default=0)
            k = next(
                (j for j in range(asap, alap[idx] + 1) if local_sets[j].issuperset(gate.qubits)),
                asap,
            )
        stage_of_gate.append(k)
        for q in gate.qubits:
            last_stage_on_qubit[q] = max(last_stage_on_qubit[q], k)
    return stage_of_gate


def _assemble(
    problem: _CanonicalProblem,
    local_sets: Sequence[set[int]],
    global_sets: Sequence[set[int]],
    ilp_stage: Sequence[int],
    inter_node_cost_factor: float,
    status: str,
) -> StagingResult:
    """One staging from canonical per-stage local / global sets and ILP-gate stages.

    The extraction both paths share, the solver's and the certificate's:
    ILP qubit ``relabel[q]`` is the circuit's qubit ``q``, ``ilp_stage[g]``
    the stage of ILP gate ``g``; every other gate is placed by
    :func:`_place_gates`, and the cost is :func:`transition_cost`.
    """
    circuit, relabel = problem.circuit, problem.relabel
    everyone = set(range(circuit.num_qubits))
    partitions: list[QubitPartition] = []
    for local_canon, global_canon in zip(local_sets, global_sets):
        local = {q for q in everyone if relabel[q] in local_canon}
        global_ = {q for q in everyone if relabel[q] in global_canon}
        partitions.append(QubitPartition.from_sets(local, everyone - local - global_, global_))
    stage_of_gate = _place_gates(
        circuit,
        {gate.original_index: k for gate, k in zip(problem.gates, ilp_stage)},
        partitions,
    )
    stages: list[Stage] = []
    for k, partition in enumerate(partitions):
        indices = [i for i, sk in enumerate(stage_of_gate) if sk == k]
        gates = [circuit[i] for i in indices]
        stages.append(Stage(gates=gates, partition=partition, gate_indices=indices))
    return StagingResult(
        stages=stages,
        num_stages=len(stages),
        communication_cost=transition_cost(partitions, inter_node_cost_factor),
        ilp_feasible=True,
        solver_status=status,
    )


def _extract_stages(
    problem: _CanonicalProblem,
    num_stages: int,
    variables: dict,
    solution,
    inter_node_cost_factor: float,
) -> StagingResult:
    """Turn an ILP solution (in canonical labels) into a staging."""
    n = problem.circuit.num_qubits
    a_vars, b_vars, f_vars = variables["A"], variables["B"], variables["F"]
    local_sets = [
        {q for q in range(n) if solution.int_value(a_vars[q][k]) == 1} for k in range(num_stages)
    ]
    global_sets = [
        {q for q in range(n) if solution.int_value(b_vars[q][k]) == 1} for k in range(num_stages)
    ]
    # Stage index of each ILP gate: min{k | F[g][k] = 1}.
    ilp_stage = [
        next(k for k in range(num_stages) if solution.int_value(f_vars[g][k]) == 1)
        for g in range(len(problem.gates))
    ]
    return _assemble(
        problem, local_sets, global_sets, ilp_stage, inter_node_cost_factor,
        solution.status.value,
    )


def _bits(mask: int) -> set[int]:
    return {q for q in range(mask.bit_length()) if mask >> q & 1}


def _open_and_close(windows: StageWindows) -> tuple[list[int], list[int]]:
    """Each ILP gate's window ``[opens, closes]`` as 0-based stages at the lower bound."""
    s = windows.lower_bound
    return [e - 1 for e in windows.earliest], [s - b for b in windows.latest_from_end]


def _staging_bound(
    problem: _CanonicalProblem,
    windows: StageWindows,
    local_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float,
) -> float:
    """A lower bound on Equation (3) over every staging with ``windows.lower_bound`` stages.

    With ``m = n - L`` non-local slots and ``P_k`` the qubits that may stay
    non-local across the transition ``k -> k+1`` (at most ``m``, and none
    that a gate whose window lies inside ``{k, k+1}`` needs local), the
    transition makes at least ``m - P_k`` qubits newly local and at least
    ``G - P_k`` newly global.  It also makes at least one qubit newly
    local: two equal consecutive local sets would merge into a staging
    with one stage fewer, which the windows exclude.  Over the whole
    staging, every qubit of the non-insular union ``U`` outside the first
    local set becomes local once, so at least ``|U| - L``.  The bound holds
    only at the windows' lower bound, where the merge argument does.
    """
    s = windows.lower_bound
    n = problem.circuit.num_qubits
    m = n - local_qubits
    opens, closes = _open_and_close(windows)
    union = 0
    pinned = [0] * max(s - 1, 0)  # qubits some gate confined to {k, k+1} needs local
    for gate, first, last in zip(problem.gates, opens, closes):
        mask = _mask(gate.non_insular)
        union |= mask
        for k in range(max(last - 1, 0), min(first, s - 2) + 1):
            pinned[k] |= mask
    free = [min(m, n - p.bit_count()) for p in pinned]
    local_term = max(union.bit_count() - local_qubits, s - 1, sum(max(1, m - p) for p in free))
    global_term = sum(max(0, global_qubits - p) for p in free)
    return float(local_term + inter_node_cost_factor * global_term)


def _window_staging(
    problem: _CanonicalProblem, windows: StageWindows, local_qubits: int, global_qubits: int
) -> tuple[list[set[int]], list[set[int]], list[int]] | str:
    """A staging with exactly ``windows.lower_bound`` stages, driven by the windows.

    Stage ``k`` makes local the non-insular qubits of every gate whose
    window closes at ``k`` and of its unfinished ancestors, fills the other
    local slots by next need (earliest window opening, then deadline;
    among equals a qubit some gate touches sooner, insular qubits included,
    then a qubit that was local, then the lower canonical index), and runs
    every ready gate whose non-insular qubits are local.  Its
    global qubits are the previous stage's while they stay non-local, then
    the non-local qubits needed latest.  Every gate is forced by the stage
    its window closes at, so a staging built is a finished one.  The local
    sets fixed, :func:`_settle_gates` moves each gate to the first stage
    of its legal range where all of its qubits are local.  Returns
    canonical local / global sets and each ILP gate's stage, or why no
    staging was built.
    """
    s = windows.lower_bound
    n = problem.circuit.num_qubits
    masks = [_mask(gate.non_insular) for gate in problem.gates]
    opens, closes = _open_and_close(windows)
    preds: list[list[int]] = [[] for _ in masks]
    for g1, g2 in problem.deps:
        preds[g2].append(g1)
    # Every qubit of each ILP gate: a gate whose controls are local too
    # needs no op per shard for them (fewer ops on a sharded machine).
    touches = [
        _mask([problem.relabel[q] for q in problem.circuit[gate.original_index].qubits])
        for gate in problem.gates
    ]
    stage_of = [-1] * len(masks)
    never = (s, s)

    def next_need(undone: list[int], k: int, of: list[int] = masks) -> list[tuple[int, int]]:
        """``(window opening, deadline)`` of the first unfinished gate that needs each qubit."""
        need = [never] * n
        for g in undone:
            when = (max(opens[g], k), closes[g])
            mask = of[g]
            while mask:
                low = mask & -mask
                q = low.bit_length() - 1
                need[q] = min(need[q], when)
                mask ^= low
        return need

    local = global_ = 0
    local_sets: list[set[int]] = []
    global_sets: list[set[int]] = []
    for k in range(s):
        undone = [g for g, done in enumerate(stage_of) if done < 0]
        forced = 0
        stack = [g for g in undone if closes[g] == k]
        seen = set(stack)
        while stack:
            g = stack.pop()
            forced |= masks[g]
            for p in preds[g]:
                if stage_of[p] < 0 and p not in seen:
                    seen.add(p)
                    stack.append(p)
        if forced.bit_count() > local_qubits:
            return "forced set exceeds L"
        need = next_need(undone, k)
        touch = next_need(undone, k, touches)
        fill = sorted(
            (q for q in range(n) if not forced >> q & 1),
            key=lambda q: (need[q], touch[q], not local >> q & 1, q),
        )
        local = forced | _mask(fill[: local_qubits - forced.bit_count()])
        for g in undone:  # topological order: a predecessor taken here is seen first
            if not masks[g] & ~local and all(stage_of[p] >= 0 for p in preds[g]):
                stage_of[g] = k
        need = next_need([g for g in undone if stage_of[g] < 0], k + 1)
        kept = global_ & ~local
        latest = sorted(
            (q for q in range(n) if not (local | kept) >> q & 1),
            key=need.__getitem__, reverse=True,  # stable: lower index first among equals
        )
        global_ = kept | _mask(latest[: global_qubits - kept.bit_count()])
        local_sets.append(local)
        global_sets.append(_bits(global_))
    stage_of = _settle_gates(masks, touches, preds, local_sets)
    return [_bits(local) for local in local_sets], global_sets, stage_of


def _settle_gates(
    masks: Sequence[int],
    touches: Sequence[int],
    preds: Sequence[Sequence[int]],
    local_sets: Sequence[int],
) -> list[int]:
    """Each ILP gate's stage under fixed local sets: the first stage of its
    legal range where all of its qubits (*touches*) are local.

    A gate's legal range runs from the latest stage of its predecessors to
    the latest stage, no later than any successor's, where its non-insular
    qubits (*masks*) are local; it is never empty, since the window-driven
    placement is a valid one.  The gate goes to the first stage of that
    range in which its insular qubits are local too, so that no op applies
    it per shard, and to the first in which its non-insular ones are when
    there is none.  The local sets, and so the cost, do not change.
    """
    s = len(local_sets)
    succs: list[list[int]] = [[] for _ in masks]
    for g2, before in enumerate(preds):
        for g1 in before:
            succs[g1].append(g2)
    latest = [s - 1] * len(masks)
    for g in range(len(masks) - 1, -1, -1):
        k = min((latest[x] for x in succs[g]), default=s - 1)
        while masks[g] & ~local_sets[k]:
            k -= 1
        latest[g] = k
    settled = [0] * len(masks)
    for g in range(len(masks)):
        first = max((settled[p] for p in preds[g]), default=0)
        legal = [k for k in range(first, latest[g] + 1) if not masks[g] & ~local_sets[k]]
        settled[g] = next((k for k in legal if not touches[g] & ~local_sets[k]), legal[0])
    return settled


def _one_stage_staging(
    circuit: Circuit, local_qubits: int, global_qubits: int, inter_node_cost_factor: float
) -> StagingResult | None:
    """The certificate's staging when the non-insular union fits locally, in closed form.

    The windows' lower bound is 1 exactly when the union ``U`` of the
    gates' non-insular qubits has at most ``L`` members; the bound on
    Equation (3) is then 0, and :func:`_window_staging` (with
    :func:`_settle_gates` and :func:`_assemble`) builds one stage of cost 0
    holding every gate: local are ``U`` and then, by lowest canonical
    label, the qubits an ILP gate touches and the rest; global the lowest
    canonical labels left.  This returns that staging without building the
    canonical problem or the windows (``tests/test_stage_windows.py``
    holds the two equal); ``None`` as soon as ``|U| > L``.
    """
    union: set[int] = set()
    touched: set[int] = set()
    for gate in circuit:
        non_insular = gate.non_insular_qubits()
        if non_insular:
            union.update(non_insular)
            if len(union) > local_qubits:
                return None
            touched.update(gate.qubits)
    relabel = circuit.canonical_relabeling()
    rest = sorted(
        (q for q in range(circuit.num_qubits) if q not in union),
        key=lambda q: (q not in touched, relabel[q]),
    )
    local = union | set(rest[: local_qubits - len(union)])
    non_local = sorted((q for q in rest if q not in local), key=relabel.__getitem__)
    global_ = set(non_local[:global_qubits])
    partition = QubitPartition.from_sets(local, set(non_local) - global_, global_)
    stage = Stage(gates=list(circuit), partition=partition, gate_indices=list(range(len(circuit))))
    return StagingResult(
        stages=[stage],
        num_stages=1,
        communication_cost=transition_cost([partition], inter_node_cost_factor),
        ilp_feasible=True,
        solver_status="certified",
        lower_bound=1,
        stage_bound=0.0,
        certificate_gap=0.0,
    )


def stage_circuit(
    circuit: Circuit,
    local_qubits: int,
    regional_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float = 3.0,
    backend: str = "scipy",
    max_stages: int = 32,
    time_limit: float | None = 120.0,
) -> StagingResult:
    """Algorithm 2: find the minimum feasible number of stages via the ILP.

    No stage count below the stage windows' lower bound is feasible.  At
    that count the certificate runs first: a window-driven staging with
    exactly that many stages and a proven lower bound on Equation (3).  When
    the staging's cost equals the bound, it is a minimum-cost staging with
    the minimum stage count and is returned with ``solver_status
    "certified"`` and no solve (at one stage, the case of a non-insular
    union that fits locally, :func:`_one_stage_staging` gives that staging
    directly).  Otherwise the ILP iteration starts at the
    lower bound (stage counts below it are skipped) and every model has its
    ``F`` variables fixed outside the windows; none of this changes the
    stage count or the communication cost returned.  The circuit is staged
    in its canonical (first-use-order) qubit labels, so staging commutes
    with qubit relabelling.

    Raises :class:`RuntimeError` if a gate has more non-insular qubits than
    ``L`` (before any model is built) or if no feasible staging exists
    within ``max_stages`` (the certificate runs only when the windows'
    lower bound is within it), and :class:`AssertionError` if a staging
    costs less than its proven bound, which would make the bound wrong.
    """
    _check_qubit_classes(circuit.num_qubits, local_qubits, regional_qubits, global_qubits)
    start = time.perf_counter()
    if max_stages >= 1:
        single = _one_stage_staging(circuit, local_qubits, global_qubits, inter_node_cost_factor)
        if single is not None:
            single.solver_seconds = time.perf_counter() - start
            return single
    problem = _CanonicalProblem.of(circuit)
    windows = _stage_windows(problem.gates, problem.deps, local_qubits)
    bound = _staging_bound(problem, windows, local_qubits, global_qubits, inter_node_cost_factor)
    gap: float | None = None
    declined = ""
    if windows.lower_bound <= max_stages:
        candidate = _window_staging(problem, windows, local_qubits, global_qubits)
        if isinstance(candidate, str):
            declined = candidate
        else:
            certified = _assemble(problem, *candidate, inter_node_cost_factor, "certified")
            gap = certified.communication_cost - bound
            if gap < 0:
                raise AssertionError(
                    f"staging of {circuit.name!r} costs {certified.communication_cost}, "
                    f"below its proven bound {bound}"
                )
            if gap == 0:
                certified.lower_bound = windows.lower_bound
                certified.stage_bound = bound
                certified.certificate_gap = gap
                certified.solver_seconds = time.perf_counter() - start
                return certified
    model_sizes: list[tuple[int, int, int]] = []
    for s in range(windows.lower_bound, max_stages + 1):
        result, model = _solve_once(
            problem, s, local_qubits, global_qubits, inter_node_cost_factor,
            backend, time_limit, windows,
        )
        model_sizes.append((
            model.num_constraints,
            model.num_variables,
            sum(v.lower == v.upper for v in model.variables),
        ))
        if result is not None:
            result.lower_bound = windows.lower_bound
            result.model_sizes = model_sizes
            result.num_solves = len(model_sizes)
            result.stage_bound = bound
            result.certificate_gap = gap
            result.certificate_declined = declined
            result.solver_seconds = time.perf_counter() - start
            return result
    raise RuntimeError(
        f"no feasible staging of {circuit.name!r} within {max_stages} stages "
        f"(L={local_qubits}, R={regional_qubits}, G={global_qubits})"
    )
