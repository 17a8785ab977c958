"""Static verification of execution plans and compiled programs.

:func:`verify_plan` proves the Plan-IR invariants the executors assume —
partition coverage and bounds, per-stage locality (the staging invariant),
kernel/stage gate consistency, and (against the source circuit) exact
gate coverage and dependency order — without executing anything.

:func:`verify_program` is an abstract interpreter over a
:class:`~repro.sim.program.CompiledProgram` op stream.  It tracks the two
ping-pong buffers symbolically: which buffer *actually* holds the state
(derived from each op's kind via the :data:`~repro.sim.program.INPLACE_KINDS`
/ :data:`~repro.sim.program.STREAM_KINDS` discipline) and which buffer the
stream's declared ``mode`` metadata *claims* holds it.  Any divergence is a
ping-pong parity violation: every subsequent op would read a stale — and,
before the first streaming op, uninitialized — buffer.  It further proves
per-op qubit bounds, workspace-temporary alias freedom, that every fold of
dense gates inside a shared-memory kernel op covers one contiguous run of
positions, per-op locality against the plan's layout walk, and (given the
source plan) that the op stream is exactly the compiler's expected
emission — no gate dropped, duplicated or reordered, one ``sm`` op per
shared-memory kernel, and per fusion kernel the native body takes, whose
items are those of :func:`repro.sim.fusion.lower_kernel_gates` (no block
split, merged or reordered), no layout transpose missing or misplaced.

Both return a :class:`~repro.check.report.CheckReport`; call
:meth:`~repro.check.report.CheckReport.raise_if_failed` to convert failure
into a :class:`repro.errors.StaticCheckError`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Optional

from ..circuits.gates import stray_qubits
from ..core.kernel import KernelType
from ..sim.program import INPLACE_KINDS, STREAM_KINDS
from .report import CheckReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits.circuit import Circuit
    from ..cluster.machine import MachineConfig
    from ..core.plan import ExecutionPlan
    from ..sim.program import CompiledProgram

__all__ = ["expected_op_stream", "verify_plan", "verify_program"]


# ---------------------------------------------------------------------------
# Plan verification
# ---------------------------------------------------------------------------


def _check_partition(report: CheckReport, plan: "ExecutionPlan") -> None:
    n = plan.num_qubits
    for stage_idx, stage in enumerate(plan.stages):
        part = stage.partition
        qubits = set(part.local) | set(part.regional) | set(part.global_)
        if part.num_qubits != n or qubits != set(range(n)):
            report.add(
                "plan.partition",
                f"stage partition does not cover qubits 0..{n - 1} exactly "
                f"once (got {sorted(qubits)})",
                site="plan.partition",
                stage=stage_idx,
            )


def _check_gate_bounds(report: CheckReport, plan: "ExecutionPlan") -> None:
    n = plan.num_qubits
    for stage_idx, stage in enumerate(plan.stages):
        for offset, gate in enumerate(stage.gates):
            if len(set(gate.qubits)) != len(gate.qubits):
                report.add(
                    "plan.qubit-bounds",
                    f"gate {gate} names a qubit more than once",
                    site="plan.qubit-bounds",
                    stage=stage_idx,
                    gate_offset=offset,
                )
            bad = [q for q in gate.qubits if not 0 <= q < n]
            if bad:
                report.add(
                    "plan.qubit-bounds",
                    f"gate {gate} addresses out-of-bounds qubit(s) {bad} "
                    f"(plan spans {n} qubits)",
                    site="plan.qubit-bounds",
                    stage=stage_idx,
                    gate_offset=offset,
                )


def _check_locality(
    report: CheckReport, plan: "ExecutionPlan", machine: "Optional[MachineConfig]"
) -> None:
    for stage_idx, stage in enumerate(plan.stages):
        l2p, local = stage.partition.logical_to_physical(), stage.partition.num_local
        if machine is not None and stage.partition.num_local > machine.local_qubits:
            report.add(
                "plan.locality",
                f"stage declares {stage.partition.num_local} local qubits but "
                f"the machine holds only {machine.local_qubits} per GPU",
                site="plan.locality",
                stage=stage_idx,
            )
        for offset, gate in enumerate(stage.gates):
            bad = stray_qubits(gate.non_insular_qubits(), l2p, local)
            if bad:
                report.add(
                    "plan.locality",
                    f"non-insular qubit(s) {sorted(bad)} of gate {gate} are "
                    f"not in the stage's local set {sorted(stage.partition.local)}",
                    site="plan.locality",
                    stage=stage_idx,
                    gate_offset=offset,
                )


def _check_kernels(report: CheckReport, plan: "ExecutionPlan") -> None:
    for stage_idx, stage in enumerate(plan.stages):
        if stage.kernels is None:
            continue
        # Kernelization may reorder gates within a stage (grouping
        # non-adjacent compatible gates into one kernel), so the invariant
        # is multiset equality: every stage gate in exactly one kernel.
        kernel_gates = [g for k in stage.kernels for g in k.gates]
        if Counter(kernel_gates) != Counter(stage.gates):
            report.add(
                "plan.kernel-consistency",
                f"stage kernels cover {len(kernel_gates)} gates that are not "
                f"exactly the stage's {len(stage.gates)} gates (a gate was "
                f"dropped, duplicated or substituted across kernels)",
                site="plan.kernel-consistency",
                stage=stage_idx,
            )
        # Kernel gate indices are stage-relative: together they must name
        # every gate of the stage exactly once.
        kernel_indices = stage.kernels.all_gate_indices()
        if kernel_indices and sorted(kernel_indices) != list(range(len(stage.gates))):
            report.add(
                "plan.kernel-consistency",
                "stage kernel gate indices do not cover the stage's gates "
                "exactly once",
                site="plan.kernel-consistency",
                stage=stage_idx,
            )


def _check_coverage(
    report: CheckReport, plan: "ExecutionPlan", circuit: "Circuit"
) -> None:
    if plan.gate_count() != len(circuit):
        report.add(
            "plan.coverage",
            f"plan covers {plan.gate_count()} gates, circuit has {len(circuit)}",
            site="plan.coverage",
        )
    seen: list[int] = []
    for stage in plan.stages:
        seen.extend(stage.gate_indices)
    if sorted(seen) != list(range(len(circuit))):
        counts = Counter(seen)
        dup = sorted(i for i, c in counts.items() if c > 1)
        missing = sorted(set(range(len(circuit))) - set(seen))
        report.add(
            "plan.coverage",
            f"plan does not cover every gate exactly once "
            f"(duplicated: {dup}, missing: {missing})",
            site="plan.coverage",
            duplicated=dup,
            missing=missing,
        )
        return
    if not circuit.is_topologically_equivalent(seen):
        report.add(
            "plan.dependencies",
            "stage assignment violates gate dependencies (a gate runs "
            "before a predecessor it depends on)",
            site="plan.dependencies",
        )


def verify_plan(
    plan: "ExecutionPlan",
    machine: "Optional[MachineConfig]" = None,
    circuit: "Optional[Circuit]" = None,
) -> CheckReport:
    """Statically verify *plan* and return a :class:`CheckReport`.

    Checks partition coverage/bounds, gate qubit bounds, the per-stage
    locality invariant, kernel/stage gate consistency, and — when the
    source *circuit* is given — exact gate coverage and dependency order.
    """
    report = CheckReport(target="plan")
    report.checks_run += ["partition", "qubit-bounds", "locality", "kernels"]
    _check_partition(report, plan)
    _check_gate_bounds(report, plan)
    _check_locality(report, plan, machine)
    _check_kernels(report, plan)
    if circuit is not None:
        report.checks_run += ["coverage", "dependencies"]
        _check_coverage(report, plan, circuit)
    return report


# ---------------------------------------------------------------------------
# Program verification
# ---------------------------------------------------------------------------


def expected_op_stream(
    plan: "ExecutionPlan", machine: "Optional[MachineConfig]" = None
) -> list[tuple[Any, Optional[tuple], Optional[tuple]]]:
    """The compiler's expected op emission for *plan*: ``(source, gates,
    items)`` triples, in order.

    Follows :func:`repro.runtime.compile.compile_plan`'s walk — layout
    transposes only at genuine permutation boundaries, one op per kernel,
    one per gate of an un-kernelized stage, and the final identity-restore
    transpose — without building any payloads.  What a shared-memory kernel
    (or a lone gate) executes is not mirrored but *read from the spec*: its
    one op carries, as ``items``, the ``(kind, physical positions, gates)``
    of every item of :func:`repro.sim.fusion.lower_kernel_gates`, the
    lowering and fill of the compiler's kernel slot, whose op every
    executor runs — a fusion kernel's too.  ``gates`` and ``items`` are
    ``None`` for layout ops.
    """
    from ..runtime.sharding import QubitLayout, permutation_axes
    from ..sim.fusion import kernel_items, lower_kernel_gates

    n = plan.num_qubits

    def lowered(source: tuple, gates: tuple, l2p: dict[int, int]) -> tuple:
        items = lower_kernel_gates(gates, l2p)
        described = kernel_items(items, l2p)
        return source, gates, tuple([
            (shape.kind, shape.qubits, item.gates) for shape, item in zip(described, items)
        ])

    expected: list[tuple[Any, Optional[tuple], Optional[tuple]]] = []
    layout = QubitLayout(n)
    for stage_idx, stage in enumerate(plan.stages):
        target = stage.partition.logical_to_physical()
        if target != layout.logical_to_physical():
            axes = permutation_axes(layout.logical_to_physical(), target, n)
            if axes != list(range(n)):
                expected.append((("layout", stage_idx), None, None))
            layout.update(target)
        l2p = layout.logical_to_physical()
        if stage.kernels is None:
            for offset, gate in enumerate(stage.gates):
                expected.append(lowered(("gate", stage_idx, offset), (gate,), l2p))
            continue
        for group_idx, kernel in enumerate(stage.kernels):
            fused = kernel.kernel_type is KernelType.FUSION
            expected.append(lowered(
                ("kernel" if fused else "sm", stage_idx, group_idx), tuple(kernel.gates), l2p
            ))
    identity = {q: q for q in range(n)}
    if layout.logical_to_physical() != identity:
        axes = permutation_axes(layout.logical_to_physical(), identity, n)
        if axes != list(range(n)):
            expected.append((("layout", "final"), None, None))
    return expected


def _stage_layouts(plan: "ExecutionPlan") -> list[dict[int, int]]:
    """The logical→physical mapping in effect during each stage."""
    from ..runtime.sharding import QubitLayout

    layout = QubitLayout(plan.num_qubits)
    maps: list[dict[int, int]] = []
    for stage in plan.stages:
        target = stage.partition.logical_to_physical()
        if target != layout.logical_to_physical():
            layout.update(target)
        maps.append(layout.logical_to_physical())
    return maps


def _check_op_metadata(report: CheckReport, program: "CompiledProgram") -> None:
    n = program.num_qubits
    believed = 0  # buffer index the declared modes say holds the state
    actual = 0    # buffer index the op kinds say holds the state
    initialized = [True, False]  # buffer 1 starts uninitialized
    diverged = False
    for op_index, op in enumerate(program.ops):
        known = op.kind in INPLACE_KINDS or op.kind in STREAM_KINDS
        if not known:
            report.add(
                "program.kind",
                f"op has unknown kind {op.kind!r}",
                site="program.kind",
                op_index=op_index,
            )
            continue
        expected_mode = "inplace" if op.kind in INPLACE_KINDS else "stream"
        if op.mode != expected_mode:
            report.add(
                "program.parity",
                f"op of kind {op.kind!r} declares mode {op.mode!r} but the "
                f"ping-pong discipline requires {expected_mode!r} — the "
                f"stream's believed state buffer diverges from the real one",
                site="program.parity",
                op_index=op_index,
            )
        # The op reads whichever buffer the stream believes is the state.
        if not diverged and believed != actual:
            diverged = True
            detail = (
                "an uninitialized buffer"
                if not initialized[believed]
                else "a stale buffer"
            )
            report.add(
                "program.uninitialized-read",
                f"op reads {detail}: the declared ping-pong parity says the "
                f"state is in buffer {believed} but it is actually in buffer "
                f"{actual}",
                site="program.uninitialized-read",
                op_index=op_index,
            )
        if expected_mode == "stream":
            initialized[1 - actual] = True
            actual = 1 - actual
        if op.mode == "stream":
            believed = 1 - believed
        if op.qubits is not None:
            if len(set(op.qubits)) != len(op.qubits):
                report.add(
                    "program.qubit-bounds",
                    f"op addresses qubit positions {op.qubits} with duplicates",
                    site="program.qubit-bounds",
                    op_index=op_index,
                )
            bad = [q for q in op.qubits if not 0 <= q < n]
            if bad:
                report.add(
                    "program.qubit-bounds",
                    f"op addresses out-of-bounds physical position(s) {bad} "
                    f"(program spans {n} qubits)",
                    site="program.qubit-bounds",
                    op_index=op_index,
                )
        for kind, positions, _gates in (op.items or ()) if op.kind == "sm" else ():
            # The lowering folds 1q dense gates on physical neighbours only
            # (`repro.sim.fusion._fold_positions`): a fold's positions are
            # one contiguous run.
            if kind == "fold" and max(positions) - min(positions) + 1 != len(positions):
                report.add(
                    "program.fold",
                    f"folded dense item on positions {positions} is not one "
                    f"contiguous run: the lowering folds physical neighbours "
                    f"only",
                    site="program.fold",
                    op_index=op_index,
                )
        if len(set(op.tmp_slots)) != len(op.tmp_slots):
            report.add(
                "program.tmp-alias",
                f"op borrows workspace temporary slots {op.tmp_slots}: a "
                f"slot is used for two roles in one op (slots must never "
                f"alias read+write)",
                site="program.tmp-alias",
                op_index=op_index,
            )


def _check_op_stream(
    report: CheckReport, program: "CompiledProgram", plan: "ExecutionPlan",
    machine: "Optional[MachineConfig]",
) -> None:
    expected = expected_op_stream(plan, machine)
    if len(program.ops) != len(expected):
        report.add(
            "program.stream",
            f"program holds {len(program.ops)} ops but the plan compiles to "
            f"{len(expected)} (op(s) dropped or duplicated)",
            site="program.stream",
            expected=len(expected),
            actual=len(program.ops),
        )
    for op_index, (op, (source, gates, items)) in enumerate(zip(program.ops, expected)):
        if op.source != source:
            report.add(
                "program.stream",
                f"op stream diverges from the plan: expected source {source}, "
                f"found {op.source}",
                site="program.stream",
                op_index=op_index,
            )
            return  # everything after a divergence would cascade
        if gates is not None and tuple(op.gates or ()) != gates:
            report.add(
                "program.stream",
                f"op at source {source} binds different gates than the plan "
                f"stages there",
                site="program.stream",
                op_index=op_index,
            )
        elif items is not None and op.items != items:
            report.add(
                "program.stream",
                f"kernel op at source {source} applies its gates as other "
                f"items than the kernel lowers to (a block split, merged or "
                f"reordered)",
                site="program.stream",
                op_index=op_index,
            )


def _check_op_locality(
    report: CheckReport, program: "CompiledProgram", plan: "ExecutionPlan",
    machine: "Optional[MachineConfig]",
) -> None:
    layouts = _stage_layouts(plan)
    for op_index, op in enumerate(program.ops):
        source = op.source
        if not (isinstance(source, tuple) and source and source[0] in
                ("gate", "kernel", "sm")):
            continue
        stage_idx = source[1]
        if not isinstance(stage_idx, int) or not 0 <= stage_idx < len(layouts):
            continue  # stream check reports malformed sources
        l2p = layouts[stage_idx]
        stage = plan.stages[stage_idx]
        local_count = (
            machine.local_qubits if machine is not None
            else stage.partition.num_local
        )
        # An op acts on the union of its gates' qubits — one gate's or a
        # kernel's — in the stage's layout.
        touched = {q for gate in op.gates or () for q in gate.qubits}
        if op.qubits is not None and touched <= l2p.keys():
            positions = sorted(l2p[q] for q in touched)
            if sorted(op.qubits) != positions:
                report.add(
                    "program.locality",
                    f"op addresses physical positions {sorted(op.qubits)} but "
                    f"its gates touch {positions} in the stage's layout",
                    site="program.locality",
                    op_index=op_index,
                    stage=stage_idx,
                )
        for gate in op.gates or ():
            bad = stray_qubits(gate.non_insular_qubits(), l2p, local_count)
            if bad:
                report.add(
                    "program.locality",
                    f"non-insular qubit(s) {bad} of gate {gate} are mapped "
                    f"to non-local physical positions (L={local_count})",
                    site="program.locality",
                    op_index=op_index,
                    stage=stage_idx,
                )


def verify_program(
    program: "CompiledProgram",
    plan: "Optional[ExecutionPlan]" = None,
    machine: "Optional[MachineConfig]" = None,
) -> CheckReport:
    """Statically verify a compiled op stream; returns a :class:`CheckReport`.

    Always proves the ping-pong parity discipline (declared mode vs op
    kind, with an abstract two-buffer interpretation flagging stale /
    uninitialized reads), per-op qubit bounds, that every fold of dense
    gates is one contiguous run of positions, and workspace-temporary
    alias freedom.  Given the source *plan*, additionally proves the
    stream is exactly the compiler's expected emission (no op dropped,
    duplicated or reordered) and that every op's gates respect their
    stage's locality set.
    """
    report = CheckReport(target="program")
    report.checks_run += ["parity", "qubit-bounds", "fold", "tmp-alias"]
    _check_op_metadata(report, program)
    if plan is not None:
        report.checks_run += ["stream", "locality"]
        if program.num_qubits != plan.num_qubits:
            report.add(
                "program.stream",
                f"program spans {program.num_qubits} qubits but the plan "
                f"spans {plan.num_qubits}",
                site="program.stream",
            )
        else:
            _check_op_stream(report, program, plan, machine)
            _check_op_locality(report, program, plan, machine)
    return report
