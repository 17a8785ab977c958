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
* :func:`stage_circuit` — Algorithm 2: iterate ``s`` upward from the
  windows' lower bound and return the first feasible (hence
  stage-count-minimal) solution,
* the extraction of per-stage subcircuits and qubit partitions from the
  ILP solution, including the re-insertion of fully-insular gates that the
  ILP does not need to see (an optimisation described in DESIGN.md).
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
    masks = [sum(1 << q for q in gate.non_insular) for gate in gates]
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
    return _extract_stages(circuit, num_stages, variables, solution, problem.relabel), model


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


def _extract_stages(
    circuit: Circuit,
    num_stages: int,
    variables: dict,
    solution,
    relabel: Mapping[int, int],
) -> StagingResult:
    """Turn an ILP solution into per-stage subcircuits and qubit partitions.

    The ILP's qubit ``relabel[q]`` is the circuit's qubit ``q``.
    """
    n = circuit.num_qubits
    a_vars, b_vars, f_vars = variables["A"], variables["B"], variables["F"]
    ilp_gates = variables["gates"]

    partitions: list[QubitPartition] = []
    for k in range(num_stages):
        local = {q for q in range(n) if solution.int_value(a_vars[relabel[q]][k]) == 1}
        global_ = {q for q in range(n) if solution.int_value(b_vars[relabel[q]][k]) == 1}
        regional = set(range(n)) - local - global_
        partitions.append(QubitPartition.from_sets(local, regional, global_))

    # Stage index of each ILP gate: min{k | F[g][k] = 1}.
    ilp_stage_of_gate: dict[int, int] = {}
    for g, gate in enumerate(ilp_gates):
        for k in range(num_stages):
            if solution.int_value(f_vars[g][k]) == 1:
                ilp_stage_of_gate[gate.original_index] = k
                break

    # Assign every gate (including fully-insular ones) to a stage.  Insular
    # gates go to the latest stage of any predecessor on their qubits, which
    # always exists between their neighbours' stages.
    stage_of_gate: list[int] = [0] * len(circuit)
    last_stage_on_qubit = [0] * n
    for idx, gate in enumerate(circuit):
        if idx in ilp_stage_of_gate:
            k = ilp_stage_of_gate[idx]
        else:
            k = max((last_stage_on_qubit[q] for q in gate.qubits), default=0)
        stage_of_gate[idx] = k
        for q in gate.qubits:
            last_stage_on_qubit[q] = max(last_stage_on_qubit[q], k)

    stages: list[Stage] = []
    for k in range(num_stages):
        indices = [i for i, sk in enumerate(stage_of_gate) if sk == k]
        gates = [circuit[i] for i in indices]
        stages.append(Stage(gates=gates, partition=partitions[k], gate_indices=indices))

    cost = float(solution.objective) if solution.objective is not None else 0.0
    return StagingResult(
        stages=stages,
        num_stages=num_stages,
        communication_cost=cost,
        ilp_feasible=True,
        solver_status=solution.status.value,
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

    The iteration starts at the stage windows' lower bound (stage counts
    below it are provably infeasible, so their solves are skipped) and every
    model has its ``F`` variables fixed outside the windows; neither changes
    the stage count or the communication cost returned.  The circuit is
    staged in its canonical (first-use-order) qubit labels, so staging
    commutes with qubit relabelling.

    Raises :class:`RuntimeError` if a gate has more non-insular qubits than
    ``L`` (before any model is built) or if no feasible staging exists
    within ``max_stages``.
    """
    _check_qubit_classes(circuit.num_qubits, local_qubits, regional_qubits, global_qubits)
    start = time.perf_counter()
    problem = _CanonicalProblem.of(circuit)
    windows = _stage_windows(problem.gates, problem.deps, local_qubits)
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
            result.solver_seconds = time.perf_counter() - start
            return result
    raise RuntimeError(
        f"no feasible staging of {circuit.name!r} within {max_stages} stages "
        f"(L={local_qubits}, R={regional_qubits}, G={global_qubits})"
    )
