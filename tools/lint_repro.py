#!/usr/bin/env python
"""Project-specific AST lint: rules the generic linters cannot express.

Twenty-seven rules, each enforcing an invariant the execution layer depends on
(see ``docs/static-analysis.md`` for the catalog):

``bare-raise``
    No bare ``raise ValueError(...)`` / ``raise RuntimeError(...)`` /
    ``raise TypeError(...)`` inside the execution layer
    (``runtime/``, ``session/``, ``sim/``, ``core/plan.py``): failures
    there must use the typed taxonomy of :mod:`repro.errors` so the
    retry/degradation machinery can classify them.  Genuine
    *configuration* errors — the user asked for something that does not
    exist, where a plain builtin is the documented contract — carry a
    ``# lint: config-error`` pragma on the raise line.

``hot-alloc``
    No allocation calls (``np.zeros`` / ``np.empty`` / ``np.copy`` /
    ``np.array`` / ``np.ascontiguousarray`` / ``tracked_empty``) inside
    the per-op ``run()`` closures of ``sim/apply.py`` (the op templates,
    both bodies of the kernel template's ``run`` included — the native
    body's tile buffers are the library's own, thread-local) and
    ``sim/program.py`` (the layout op): op
    execution must be allocation-free in steady state; buffers come from
    the :class:`Workspace` only.

``monotonic-time``
    No ``time.time()`` anywhere in ``src/repro``: deadlines and timing
    use ``time.monotonic()`` / ``time.perf_counter()`` (wall-clock time
    jumps break :class:`repro.errors.Deadline`).

``one-stage-loop``
    Under ``runtime/``, each stage-boundary guard — ``write_checkpoint``,
    ``find_checkpoint``, ``crash_after_stage``, ``.stage_begin``,
    ``.stage_complete`` — has exactly one call site: the stage driver
    (``runtime/offload.py::run_stages``).  A second call site is a second
    stage loop growing back; a missing one is a guard dropped from the
    driver.  Checked across files, whenever the linted set contains any
    such call.

``one-kernel-lowering``
    Under ``sim/`` and ``runtime/``, a loop over gates that calls
    ``<gate>.matrix()`` — iterating a kernel's or group's gates to apply
    them — exists only inside the kernel lowering of ``sim/fusion.py``, a
    structure builder plus its numeric fill: ``kernel_lowering`` /
    ``fill_lowered_item`` (every kernel, shared-memory or fusion;
    ``lower_kernel_gates`` is the two in one call) — the structure the plan
    compiler's slots, and through them ``compile_segment_ops``, build (their
    numbers come out of a gate table, never a gate's ``matrix()``; a gate
    on a non-local qubit is one of its kernel's items, restricted per
    shard variant with the rest of them).  A second such loop is a
    gate-at-a-time executor growing back beside the lowering every
    executor and the verifier share; a missing one means the lowering
    moved without this rule following it.  Checked across files, whenever
    the linted set contains ``sim/fusion.py``.  Anywhere in the package, a
    call of ``lower_kernel_gates`` / ``kernel_lowering`` passes the stage
    layout: the dense fold pairs gates by physical position.

``one-segment-compiler``
    Under ``runtime/``, ``kernel_lowering`` / ``kernel_template`` — the
    calls that turn gates into op templates — are made from
    ``runtime/compile.py`` and nowhere else: a stage's segment is compiled
    by the slots a plan is (``SegmentStructure``), each kernel lowered as
    the in-core program lowers it and restricted per shard variant
    (``_restrict``), once per plan structure
    (``runtime/offload.py::ScheduleStructure``), and a warm job's plan is
    admitted whole by the record both lowerings share (``PlanRecord``) and
    bound stage by stage from the plan's one gate table — no segment is
    admitted again per job.  One of those calls made from
    ``runtime/offload.py`` or ``runtime/parallel.py`` is the second
    segment compiler growing back.  A gate inside a kernel gets no op of
    its own on the shard path: under ``runtime/`` nothing — not
    ``runtime/compile.py`` either — calls ``unitary_template`` /
    ``compile_unitary_op`` (a one-gate op), and the names of the per-gate
    shard path the kernel variants replaced — ``_DynamicSlot`` (a gate on
    a non-local qubit as ops of its own), ``_transitions`` and ``_reduce``
    (its per-variant axis walk and ``np.ix_`` block) — appear nowhere
    under ``src/``.  And the text ``schedule_key`` appears nowhere under
    ``src/``: a shard schedule lives in the Session plan cache and reaches
    the executors as ``schedule=``; a structure-name string threaded
    towards a runtime is the second cache's plumbing.  Checked across
    files; ``runtime/compile.py`` making none of the calls means the
    compiler moved without this rule following it.

``one-kernel-set``
    Under ``sim/``, ``runtime/`` and ``analysis/`` there is one
    gate-application engine: the op templates of ``sim/apply.py``, where
    an op is a broadcast diagonal or a kernel.  A comparison on a
    ``MatrixInfo``'s ``.kind`` (``info.kind``) appears only in the
    analysis and in ``unitary_template``, which reads "diagonal or not";
    and ``threading.local()`` appears once under ``sim/`` — the thread
    workspace is the only per-thread buffer set.  Either growing a second
    site is a second executor's own dispatch or scratch pool coming back
    beside the templates.  A kernel reaches execution through one
    template, ``kernel_template``: under ``sim/``, ``runtime/`` and
    ``analysis/`` it is called from ``runtime/compile.py`` (the kernel
    slot, which every executor's kernel op comes from — a compiled
    program's, or a shard schedule's segment),
    from ``sim/apply.py::unitary_template`` (one gate that is not
    diagonal, a one-item kernel) and from
    ``sim/fusion.py::apply_gate_sequence`` (a gate list applied outside
    any plan) and nowhere else — a second caller is a second way for a
    kernel to run (the native library's entry point is
    ``one-native-loader``'s).  A fusion kernel too, on
    every host: under ``runtime/`` ``fused_unitary`` is called nowhere — a
    call there is an executor fusing a kernel by itself again.  The
    retired uncompiled paths — the second op builder
    ``apply_lowered_items``, ``fused_unitary_cached``,
    ``fused_kernel_op``, ``configure_fusion_cache``,
    ``fusion_cache_stats``, and after it ``kernel_op``, ``kernel_op_stats``
    and the degraded shard pass ``run_groups_on_shard``, and then the
    per-shard gate resolution ``_gate_on_shard`` with its relabel predicate
    ``segment_relabels_shards`` and the race detector's restatement of it,
    ``shard_write_map``; then the fused-gemm fallback ``_FusedSlot`` with
    ``kernel_fusion``, ``fill_fused_unitary`` and ``gate_step``, its guard
    ``_StructureChanged`` and the bounds ``gemm_ulps`` and ``stack_ulps``;
    then the BLAS dense planner (``_gemm_strategy``, ``_dense_plan_impl``,
    ``run_dense_plan`` and its helpers and thresholds), the position
    refinement ``_effective_kind`` and the templates built on them — the
    controlled, dense, tensordot and slice-move templates with the cycle
    walk ``_permutation_moves`` — are named nowhere under ``src/`` (as
    whole words), and
    ``execute_plan`` takes no ``compiled`` parameter: a plan
    runs as a compiled program or a shard schedule, and a failed lowering
    raises.  Under ``runtime/`` no entry point of ``sim/apply.py``
    (``apply_gate_buffered`` / ``apply_matrix`` / ``apply_diagonal``, which
    bind a template on first sight of a matrix) is called: every op a shard
    pass runs is bound with its schedule.  Checked across files, whenever
    the linted set contains ``sim/apply.py``.

``one-op-body``
    Under ``sim/`` an op has one body, ``run(states, scratch, ws)``,
    written against ``(..., 2^n)`` buffers — a flat state is a stack of
    one: no function named ``run_batched`` is nested inside another
    function (``CompiledProgram.run_batched`` is a method and drives the
    same op loop), ``CompiledOp.__slots__`` holds no ``run_batched``, and
    the result of a ``….bind(...)`` call is never subscripted
    (``OpTemplate.bind`` returns the one closure, not a pair).  Any of
    these is the hand-written stacked twin of an op growing back.  The
    kernel template is the one op with two bodies, and it names them:
    inside ``kernel_template`` exactly two ``run`` closures are defined —
    under ``bind_numbers``, the native tile pass over a packed payload, and
    under ``loop``, the item loop, which is the native body's oracle in the
    tests (``item_loop``, over filled items) and every kernel's only
    fallback, fusion kernels included.  A third is a third body; nothing
    but the host and the input selects between the two.

``one-float-expression``
    The item loop computes the native body's bits, so it runs the C
    body's float expressions and nothing else: inside the kernel
    template's ``loop`` and the step builders of ``sim/apply.py`` it binds
    (``_products``, ``_gate1_step``, ``_dense_step``, ``_copy_step``,
    ``_phase_step``) there is no ``@`` and no call of ``matmul`` / ``dot``
    / ``vdot`` / ``einsum`` / ``tensordot`` (a fused or blocked sum), and
    the complex buffers an op is handed (``states``, ``scratch``) appear
    only as planes (``_planes``), in a copy in or out (``np.copyto`` of
    them or their ``.real`` / ``.imag``), in ``np.may_share_memory``, as
    ``.size`` / ``.shape``, handed to the one pass over a buffer
    (``_item_pass``, held to the same rule) or split into its rows
    (``_rows``, a stack's row views), or in the returned pair — no
    arithmetic on the complex state.  Any of those functions missing means
    the item loop moved without this rule following it.

``one-native-loader``
    ``ctypes`` / ``cffi`` / ``subprocess`` are imported, and ``CDLL`` is
    named, in exactly one module under ``src/``: ``sim/native.py``, which
    builds, caches and loads the kernel library.  That module reads no
    environment variable (no ``environ``, no ``getenv``): nothing but the
    host — a compiler on ``PATH``, a writable cache — decides whether the
    native body runs.  And no ``.so`` / ``.o`` file is tracked by git: the
    library is built on first use, never shipped.  The tile pass is
    reached one way: its symbol ``sm_apply`` is declared (``argtypes`` /
    ``restype``) in ``sim/native.py``'s ``_load`` and named elsewhere only
    inside ``apply_tiles``, a module-level function there (so the split
    across threads never sits in a per-op ``run`` closure, and
    ``hot-alloc`` holds unchanged); ``apply_tiles`` is called only by
    ``sim/apply.py::kernel_template``; and ``sched_getaffinity`` — where
    the cut's thread count comes from — is named once under ``src/``, in
    ``sim/native.py``.

``one-planning-surface``
    Nothing under ``session/`` or ``service/`` names ``legacy_pipeline``
    or takes, passes or forwards a ``stager`` / ``kernelizer`` keyword: a
    :class:`~repro.session.Session` is told how to plan through
    ``planner=`` (a preset name or a ``PassManager``) and nothing else.
    The seed planner's knobs live at the keyword-style entry points
    (``repro.simulate``, ``repro.core.partition``), which build a
    ``legacy_pipeline`` and hand it over like any other pipeline; the name
    reappearing here is the second configuration surface, or the third
    planner-degradation hop, growing back.

``one-pipeline-signature``
    Under ``src/``, ``freeze_config`` — the walk that turns a planning
    configuration into a hashable key — is called only in
    ``PassManager``'s constructor (``planner/pipeline.py``, where the
    immutable manager builds its ``signature`` once), in
    ``freeze_config`` itself (its recursion) and in
    ``session/cache.py::frozen`` (a machine or a cost model, frozen once
    per object); and ``register_preset(...)`` is called only in
    ``planner/pipeline.py``.  A call elsewhere is a per-job signature walk,
    or a second cold preset, growing back.  Checked across files; a
    ``planner/pipeline.py`` whose ``PassManager`` constructor makes no call
    is the rule left behind.

``one-staging-bound``
    Nothing under ``src/`` names ``min_stages`` or ``lower_bound_start``:
    the stage count's lower bound is proven inside
    ``core/stage.py::stage_circuit`` (the stage windows) for every caller,
    and a caller-supplied start or a switch for it is the second bound
    growing back.  And ``core/stage.py`` reaches the solver only by
    calling its module attribute ``solve`` (bound by a module-level
    import): that name is the seam ``benchmarks/perf/layers.py`` traces
    ``ilp.solve`` through, so a backend called directly — or ``solve``
    reached through another object — would run unpriced.

``one-staging-cost``
    Under ``core/``, nothing reads an ``.objective`` and no
    ``StagingResult(...)`` computes its ``communication_cost`` inline: the
    cost of a staging is Equation (3) of its partitions, evaluated by
    ``core/stage.py::transition_cost`` — a call of it, or a numeric
    constant, is the only value the field takes.  The ILP's extraction,
    the certificate and both heuristic stagers report that one value, so
    an integer cost compares exactly; a solver's float objective
    (26.000000000000007 for an optimum of 26) or a stager's own running
    sum is a second evaluator growing back.

``one-staging-path``
    Under ``src/repro``, ``StagingResult(...)`` is built only in
    ``core/stage.py`` (``stage_circuit``: the certificate and the ILP
    iteration) and ``core/stage_heuristics.py`` (the paper's SnuQS and
    greedy baselines).  Every staging a plan carries comes out of a stager;
    a staging assembled anywhere else — a planning pass that stages a
    special case itself, as the stage pass's fits-locally shortcut once
    did — is a second staging path beside Algorithm 2, and it need not
    commute with qubit relabelling or report the certificate's bound.

``kernelizer-oracle``
    Under ``src/repro`` the reference DP ``kernelize`` is named in two
    places outside its own module: ``core/__init__.py`` re-exports it and
    ``planner/passes.py`` imports it for the ``"atlas-ref"`` entry of the
    ``KERNELIZERS`` registry.  Production plans through
    ``fast_kernelize``, whose beam runs native (``beam_kernelize`` in
    ``sim/beam.c``, many times faster than the reference) and which the
    differential tests hold to the same ordered kernels, types and costs;
    the reference exists to be audited against Algorithms 3/4 and compared
    against.  Any other reference is the slow DP becoming a production
    path unnoticed.  And the beam's two planning bodies are selected by
    the host and the input alone: the foreign symbol ``beam_kernelize`` is
    declared (``argtypes`` / ``restype``) only in ``sim/native.py`` and
    named elsewhere only as the call in
    ``core/fast_kernelize.py::_native_beam``; the Python loop
    ``_beam_loop`` is called once under ``src/`` — from ``fast_kernelize``,
    in the branch of the ``if`` whose other branch calls ``_native_beam``
    (tests call it by name); and ``fast_kernelize`` takes ``(stage,
    cost_model, config)`` and nothing more, that ``if`` names none of them,
    and its module reads no environment variable (no ``environ``, no
    ``getenv``).  The contiguous-segment DP of Algorithm 5 is held the same
    way (:data:`NATIVE_DPS`): ``ordered_segments`` declared only in
    ``sim/native.py`` and called only by
    ``core/ordered_kernelize.py::_native_ordered``, ``_ordered_loop`` called
    once, from ``ordered_kernelize``'s fallback branch, and
    ``ordered_kernelize`` taking ``(stage, cost_model)`` and nothing more.

``bench-host-free``
    ``benchmarks/run_bench.py`` writes counts and ratios of two timings of
    one run, never a second: no string constant ending ``_seconds`` or
    ``_per_s`` is a key of a dict literal or a subscript there (what a host
    costs in seconds is ``benchmarks/perf``'s question, and an absolute
    time gated against a committed baseline flakes on a shared host).  And
    no function there calls ``permute_state`` — the mark of a stage loop: a
    copy of the seed executor kept beside the runtime's to race it is a
    third executor growing back.  Checked on every run.

``one-layout-move``
    Under ``runtime/``, ``permute_state`` — a full-state sweep that moves
    the amplitudes into another qubit layout — is called only by the
    sharded stage driver (``runtime/offload.py::run_stages``), whose
    permute is the fallback for a stage boundary no shard load or store
    carries (a compiled program's boundaries are its precomputed layout
    ops).  A call anywhere else is a second stage-boundary sweep growing
    back beside the in-pass moves; the driver losing its call means the
    fallback moved without this rule following it.  Checked across files,
    whenever the linted set contains ``runtime/offload.py``.

``one-pass-per-stage``
    A schedule stage is one shard pass, or none when it has no gates: in
    ``runtime/offload.py::run_stages`` the executor's ``shard_pass`` is
    called at exactly one site, and that site sits in no loop nested in
    the stage loop; and under ``runtime/`` and in ``check/races.py`` no
    ``"full"`` / ``"shards"`` string literal appears (a ``__slots__`` entry
    is an attribute name, not a literal).  A second call site or an inner
    loop is a stage cut into several passes again; a segment-kind literal
    is the full-state segment path — a gate mixing amplitudes along a
    non-local qubit run over the whole state beside the passes — growing
    back, where every executor refuses a plan that breaks the staging
    invariant.  Checked across files; ``runtime/offload.py`` linted without
    the call is the rule left behind.

``one-gate-table``
    A gate's numbers on the compile path come from one place, the job's
    gate table (``circuits/gates.py::GateTable``), through each slot's
    gather program: inside the ``bind`` / ``fill`` methods of the slot
    classes of ``runtime/compile.py`` nothing calls ``.matrix()`` (a gate's
    own matrix), ``fill_lowered_item`` (the per-item oracle fill) or
    ``_restrict`` (a kernel's items restricted to a shard variant, which
    is resolved into gather indices when the slot is built).  One of them
    there is the per-gate or per-shard bind growing back beside the
    table.  A
    ``GateTable(...)`` is constructed under ``src/`` only in
    ``circuits/circuit.py`` (the circuit's memo) and ``core/plan.py``
    (``_own_table``, for a plan built without one): one anywhere else is a
    second per-job table growing back.  The names ``cache_patterns`` — the
    per-gate pattern cache the table replaced — and ``segment_table`` — the
    per-segment table a warm shard schedule built for itself — appear
    nowhere under ``src/``.  The slot check runs whenever the linted set
    contains ``runtime/compile.py`` (a file without a slot ``bind`` is the
    rule left behind).

``one-gate-shape``
    A gate's structure on the lowering path comes from one lookup: inside
    ``sim/fusion.py``'s ``kernel_lowering``, its block composer ``_block``
    and the shape lookup ``_gate_shape`` nothing calls ``analyze_matrix``
    (a matrix's classification, gate by gate) or ``.matrix()`` (a gate's
    own matrix).  The lowering reads each gate's ``GateShape`` keyed on its
    name and exact signature — the bytes the circuit's gate table hands
    every gate — and a parameter-free gate's shape from its name's
    constant (``gate_matrix``).  One of those calls there is the per-gate
    analysis growing back beside the table; a ``fusion.py`` without a
    ``kernel_lowering`` is the rule left behind.

``layering``
    No module under ``core/``, ``circuits/``, ``sim/``, ``runtime/``,
    ``planner/``, ``check/``, ``cluster/``, ``ilp/`` or ``baselines/``
    imports ``repro.session`` or ``repro.service`` (or anything under
    them), at module level or inside a function, absolutely or
    relatively: the session and the service sit on top of those layers,
    and what a lower layer needs of them belongs below (the plan
    skeleton and its digest live in ``core/plan.py``, which the session's
    plan cache and the runtime's checkpoints both read).  Only
    ``analysis/``, the figure drivers, may import them.

``exact-persisted-formats``
    The modules that write a persisted format — ``circuits/qasm.py`` (the
    journal's circuit text), ``service/journal.py``,
    ``service/persistence.py`` and ``runtime/checkpoint.py`` — make no
    tolerance comparison: no ``abs(...) <`` / ``<=`` against a literal
    (either way round) and no ``isclose`` / ``allclose`` call.  What they
    write is read back as the bits it holds; a value snapped to a
    neighbour within a tolerance is a recovered job running other
    numbers.

``one-bind-path``
    A job's numbers reach a kernel op one way, a stack of one or more
    jobs at a time: under ``src/`` a gather program is run
    (``<structure>.program(...)``, ``GatherProgram.__call__``) only in
    ``runtime/compile.py::_Structure.bind`` and ``.bind_numbers(...)`` —
    the native template's bind of bare numbers — is called only in
    ``runtime/compile.py::_KernelSlot.fill``, the compile slot's stacked
    fill (one payload row per job).  A call anywhere else is a second,
    per-job bind path growing back beside the stacked one; the slot losing
    its call is the rule left behind.  And the service dispatches one way:
    ``service/service.py::_scheduler_loop`` makes exactly one
    ``session.run`` call, over the circuits of the whole dispatched group
    — never ``<item>.circuits`` of one job, the single-job branch beside
    the grouped one — and every other ``session.run`` in that module
    passes ``execute=False`` (admission's pricing, which runs nothing).
    Checked across files, whenever the linted set contains
    ``runtime/compile.py`` or ``service/service.py``.

``one-admit-path``
    A warm row is admitted one way, by what its structure recorded when it
    was built: in ``runtime/compile.py`` a plan's stages are walked — an
    attribute ``.stages`` / ``.kernels`` / ``.gate_indices`` read, or
    ``.logical_to_physical()`` called — only in ``PlanRecord.__init__``
    (the stage records and the gate positions, once per structure) and in
    ``row_of`` (the local counts a plan without a machine has), and
    ``.digest()`` is called only in ``row_of`` (a plan is digested once per
    compile); no function named ``admit`` under ``runtime/`` walks a
    plan's stages or digests one; and ``prove_locality`` is called only by
    ``ProgramStructure.admit``.  In ``session/session.py`` ``rebind_plan``
    is never called — it is handed to ``BoundPlan``, which builds a row's
    plan when it is read — and a backend's ``.timing(...)`` is called only
    in ``Session._timing``, which keeps a warm row's in its cache entry.
    A call elsewhere is a second, per-row admit (or
    rebind) growing back beside the recorded one.  Checked across files,
    whenever the linted set contains ``runtime/compile.py`` or
    ``session/session.py``; either losing its site is the rule left
    behind.

``one-memory-budget``
    A job is admitted under one memory budget by one rule, the session's
    chain walk (``Session.admission``): under ``src/repro``,
    ``memory_budget_bytes`` — as an attribute, a name, a parameter or a
    string (a ``getattr`` or a field list) — appears only in
    ``session/session.py``.  Passing it on as a keyword
    (``Session(machine, memory_budget_bytes=...)``) is not a read.
    ``Session.stack_limit`` takes no budget: its definition has no
    parameter and no call of it an argument or keyword beyond
    ``(backend_name, machine, num_qubits)``; and no name, parameter or
    keyword spelled ``stack_budget`` (``_stack_budget`` included) appears
    under ``src/repro``.  Each is a second budget, or a second admission
    walk beside the session's, growing back — the service's policy budget
    and its own chain walk once admitted a job the session then ran
    otherwise.  Checked across files; ``session/session.py`` linted without
    a ``stack_limit`` is the rule left behind.

``one-insularity-rule``
    A gate's axes are classified once: ``circuits/gates.py::axes_of``
    reads each axis of a gate — control, diagonal, anti-diagonal or mixing
    — off its ``> 1e-12`` pattern, and insularity (Definition 2), the
    whole-matrix diagonal flags and the shard executors' non-local axis
    table all read that.  Under ``src/repro``, no module but
    ``circuits/gates.py`` unpacks a pattern (``np.unpackbits``) or compares
    the ``"mixing"`` literal (``==``, ``!=``, ``in``): either is a second
    classification growing back — the stager and the shard executors once
    disagreed on ``rxx(0)`` that way.  Every check of the staging
    invariant finds its offending qubits through
    ``circuits/gates.py::stray_qubits``.  Checked across files;
    ``circuits/gates.py`` linted without an ``axes_of`` is the rule left
    behind.

Usage::

    python tools/lint_repro.py [--baseline tools/lint_baseline.json]
                               [--write-baseline] [paths...]

Exit status 1 when any non-baselined finding exists.  The baseline file
is a committed JSON list of finding keys (``"path::rule::symbol"``) that
lets pre-existing findings ride along without blocking CI; it is empty —
keep it that way.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Directories/files where the bare-raise rule applies (the execution
#: layer; planner/analysis code raising ValueError on bad user input is
#: out of scope by design).
BARE_RAISE_SCOPE = (
    "runtime/",
    "session/",
    "sim/",
    "core/plan.py",
)
BARE_RAISE_BUILTINS = {"ValueError", "RuntimeError", "TypeError"}
PRAGMA = "lint: config-error"

HOT_ALLOC_FILES = ("sim/apply.py", "sim/program.py")
HOT_ALLOC_CALLS = {"zeros", "empty", "copy", "array", "ascontiguousarray"}
HOT_ALLOC_NAMES = {"tracked_empty"}
HOT_CLOSURES = {"run"}

STAGE_LOOP_SCOPE = "runtime/"
STAGE_GUARDS = (
    "write_checkpoint",
    "find_checkpoint",
    "crash_after_stage",
    "stage_begin",
    "stage_complete",
)

KERNEL_LOWERING_SCOPE = ("sim/", "runtime/")
KERNEL_LOWERING_HOME = "sim/fusion.py"
#: The shared-memory lowering (its public entry point and the structure
#: builder it delegates the gate loop to), and every other licensed site.
SHM_LOWERING_SITES = ("lower_kernel_gates", "kernel_lowering")
KERNEL_LOWERING_SITES = SHM_LOWERING_SITES + ("fill_lowered_item",)

SEGMENT_COMPILER_SCOPE = "runtime/"
SEGMENT_COMPILER_HOME = "runtime/compile.py"
SEGMENT_COMPILER_CALLS = {"kernel_template", "kernel_lowering"}
#: The one-gate op builders: under runtime/ a gate runs inside its kernel.
ONE_GATE_OPS = {"unitary_template", "compile_unitary_op"}
#: The per-gate shard path's names, each with what replaced it.
SHARD_PATH_RETIRED = {
    "_DynamicSlot": "a gate on a non-local qubit is an item of its kernel, "
    "bound per shard variant (runtime/compile.py::_KernelSlot)",
    "_transitions": "a kernel's items are restricted per shard variant by "
    "runtime/compile.py::_restrict",
    "_reduce": "a variant's numbers are one take of its kernel's gathered "
    "numbers (sim/fusion.py::KernelGather)",
}
SHARD_PATH_RETIRED_WORDS = re.compile(r"\b(%s)\b" % "|".join(SHARD_PATH_RETIRED))
SCHEDULE_KEY_WORD = "schedule_key"

KERNEL_SET_SCOPE = ("sim/", "runtime/", "analysis/")
KERNEL_SET_HOME = "sim/apply.py"
#: The name a ``MatrixInfo`` goes by where its ``.kind`` is compared, and
#: the functions licensed to compare it: the analysis that builds it and
#: the one template chooser (the shared-memory lowering reads a gate's
#: shape, never a ``MatrixInfo``).
MATRIX_INFO_NAMES = {"info"}
MATRIX_KIND_SITES = {"_analyze_impl", "unitary_template"}
THREAD_LOCAL_SCOPE = "sim/"

#: The kernel template, and where it may be called — module, and the
#: function there (``""``: anywhere in it).
KERNEL_TEMPLATE = "kernel_template"
KERNEL_TEMPLATE_CALLERS = {
    "runtime/compile.py": "", "sim/apply.py": "unitary_template",
    "sim/fusion.py": "apply_gate_sequence",
}
#: A fusion kernel's matrix: no runtime builds one (a fusion kernel is the
#: kernel op, on every host).
FUSED_MATRIX_CALL = "fused_unitary"
FUSED_MATRIX_SCOPE = "runtime/"
#: The uncompiled paths — their kernel-op builders, memos' surface,
#: degraded shard pass and per-shard gate resolution — the fused-gemm
#: fallback with its guard and its bounds, and the BLAS dense planner with
#: the templates built on it: named nowhere under ``src/`` (whole words).
RETIRED_KERNEL_NAMES = (
    "apply_lowered_items", "fused_unitary_cached", "fused_kernel_op",
    "configure_fusion_cache", "fusion_cache_stats",
    "kernel_op", "kernel_op_stats", "run_groups_on_shard",
    "_gate_on_shard", "segment_relabels_shards", "shard_write_map",
    "kernel_fusion", "fill_fused_unitary", "gate_step", "_FusedSlot",
    "_StructureChanged", "gemm_ulps", "stack_ulps",
    "_gemm_strategy", "_dense_plan_impl", "run_dense_plan", "_dense_accumulate",
    "_dense_views_inplace", "_big_to_out", "_reorder_matrix_bits",
    "_single_gemm_plannable", "_STACKED_MIN_LOW", "_WIDE_STACKED_MAX",
    "_WIDE_HOLE_MAX", "_MIN_VIEW_BITS", "_effective_kind",
    "_controlled_gather_gemm_inplace", "_controlled_template", "_dense_template",
    "_big_template", "_permutation_moves", "_bind_moves", "_run_moves",
    "_moves_template",
)
RETIRED_KERNEL_WORDS = re.compile(r"\b(%s)\b" % "|".join(RETIRED_KERNEL_NAMES))
#: The plan executor, and the parameter that selected a second tier.
PLAN_EXECUTOR = "execute_plan"
RETIRED_EXECUTOR_PARAM = "compiled"
#: The engine's entry points, which bind on first sight of a matrix: no
#: runtime calls them.
ENTRY_POINTS = {"apply_gate_buffered", "apply_matrix", "apply_diagonal"}
ENTRY_POINT_SCOPE = "runtime/"

OP_BODY_SCOPE = "sim/"
OP_BODY_TWIN = "run_batched"
OP_BODY_CLASS = "CompiledOp"
#: The kernel template's two bodies: the function each ``run`` is nested in.
KERNEL_BODIES = {"bind_numbers": "native", "loop": "item loop"}

#: The item loop: the kernel template's ``loop`` and the step builders of
#: ``sim/apply.py`` it binds — float64 planes only, one ufunc per C
#: operation.
FLOAT_EXPRESSION_HOME = "sim/apply.py"
FLOAT_EXPRESSION_FUNCS = (
    "loop", "_item_pass", "_products", "_gate1_step", "_dense_step", "_copy_step",
    "_phase_step",
)
FLOAT_EXPRESSION_FUSED = {"matmul", "dot", "vdot", "einsum", "tensordot"}
#: The complex buffers an op is handed, and what the item loop may do with
#: them: view them as planes, copy in and out of their halves, ask for
#: their size or shape, hand them back.
FLOAT_EXPRESSION_STATE = {"states", "scratch"}
FLOAT_EXPRESSION_STATE_CALLS = {"_planes", "copyto", "may_share_memory", "_rows", "_item_pass"}
FLOAT_EXPRESSION_STATE_ATTRS = {"real", "imag", "size", "shape"}

NATIVE_LOADER_HOME = "sim/native.py"
NATIVE_LOADER_MODULES = {"ctypes", "cffi", "subprocess"}
NATIVE_LOADER_NAME = "CDLL"
NATIVE_ENV_WORDS = ("environ", "getenv")
NATIVE_ARTIFACT_SUFFIXES = ("*.so", "*.o")
#: The tile pass's foreign symbol, the one function of the loader that calls
#: it (and cuts a pass across threads), and the one caller of that.
NATIVE_ENTRY = "sm_apply"
NATIVE_SPLIT = "apply_tiles"
NATIVE_SPLIT_CALLER = ("sim/apply.py", "kernel_template")
#: Where the cut's thread count comes from: named once under ``src/``.
NATIVE_THREAD_SOURCE = "sched_getaffinity"

PLANNING_SURFACE_SCOPE = ("session/", "service/")
PLANNING_SURFACE_NAME = "legacy_pipeline"
PLANNING_SURFACE_KEYWORDS = {"stager", "kernelizer"}

#: Where a planning configuration is frozen into a key, by module: the
#: manager's constructor (and the walk's own recursion), and the session's
#: per-object memo.
PIPELINE_SIGNATURE_SITES = {
    "planner/pipeline.py": (("PassManager", "__post_init__"), ("freeze_config",)),
    "session/cache.py": (("frozen",),),
}
PIPELINE_HOME = "planner/pipeline.py"

STAGING_BOUND_WORDS = ("min_stages", "lower_bound_start")
STAGING_HOME = "core/stage.py"
STAGING_SOLVER_SEAM = "solve"
#: Ways past the seam: the backends behind ``repro.ilp.solve``.
STAGING_SOLVER_BYPASSES = {
    "solve_with_scipy", "solve_with_branch_and_bound", "milp", "linprog", "BACKENDS",
}

STAGING_COST_SCOPE = "core/"
STAGING_COST_EVALUATOR = "transition_cost"
STAGING_COST_FIELD = "communication_cost"

STAGING_RESULT = "StagingResult"
STAGING_PATH_HOMES = ("core/stage.py", "core/stage_heuristics.py")

KERNELIZER_ORACLE = "kernelize"
KERNELIZER_ORACLE_HOME = "core/kernelize.py"
KERNELIZER_ORACLE_REEXPORT = "core/__init__.py"
KERNELIZER_REGISTRY_HOME = "planner/passes.py"
KERNELIZER_REGISTRY_KEY = "atlas-ref"


class NativeDP(NamedTuple):
    """A kernelizer DP with two planning bodies: its module, the one function
    that picks between them and its parameters, the foreign symbol and its
    one caller, and the Python loop."""

    home: str
    entry: str
    params: list[str]
    symbol: str
    caller: str
    loop: str


NATIVE_DPS = (
    NativeDP("core/fast_kernelize.py", "fast_kernelize", ["stage", "cost_model", "config"],
             "beam_kernelize", "_native_beam", "_beam_loop"),
    NativeDP("core/ordered_kernelize.py", "ordered_kernelize", ["stage", "cost_model"],
             "ordered_segments", "_native_ordered", "_ordered_loop"),
)


BENCH_HOST_FREE_FILE = "benchmarks/run_bench.py"
BENCH_TIMING_SUFFIXES = ("_seconds", "_per_s")
BENCH_STAGE_LOOP_MARK = "permute_state"

LAYOUT_MOVE_SCOPE = "runtime/"
LAYOUT_MOVE_CALL = "permute_state"
#: Where a full-state permute may run: the sharded stage driver's fallback.
LAYOUT_MOVE_DRIVER = "runtime/offload.py"
LAYOUT_MOVE_SITE = "run_stages"

#: The stage driver and the one call it makes per stage.
PASS_PER_STAGE_CALL = "shard_pass"
#: The retired segment kinds, and where they may not be spelled.
SEGMENT_KIND_WORDS = {"full", "shards"}
SEGMENT_KIND_SCOPE = ("runtime/", "check/races.py")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str, symbol: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        #: Line-number-independent key for the baseline (survives drift).
        self.key = f"{path}::{rule}::{symbol}"

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _has_pragma(source_lines: list[str], node: ast.AST) -> bool:
    line = source_lines[node.lineno - 1]
    # The pragma may sit on the raise line or on the closing line of a
    # multi-line raise.
    end = getattr(node, "end_lineno", node.lineno)
    return any(
        PRAGMA in source_lines[i]
        for i in range(node.lineno - 1, min(end, len(source_lines)))
    )


def _enclosing(stack: list[str]) -> str:
    return ".".join(stack) if stack else "<module>"


def _rel_src(path: Path) -> str:
    """*path* relative to the package root (to the repo when outside it)."""
    inside = SRC in path.parents or path.parent == SRC
    return path.relative_to(SRC if inside else REPO).as_posix()


def _call_name(node: ast.Call) -> str | None:
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def check_one_stage_loop(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-stage-loop`` rule over the linted *files*."""
    sites: dict[str, list[tuple[str, int]]] = {guard: [] for guard in STAGE_GUARDS}
    for path in files:
        if not _rel_src(path).startswith(STAGE_LOOP_SCOPE):
            continue
        rel = path.relative_to(REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in sites:
                sites[name].append((rel, node.lineno))
    if not any(sites.values()):
        return []  # the stage driver is not among the linted files
    findings = []
    for guard, calls in sites.items():
        if not calls:
            findings.append(
                Finding(
                    f"src/repro/{STAGE_LOOP_SCOPE}", 0, "one-stage-loop",
                    f"no call to `{guard}` under {STAGE_LOOP_SCOPE}: the stage "
                    f"driver lost a guard",
                    f"{guard}:missing",
                )
            )
        elif len(calls) > 1:
            findings.extend(
                Finding(
                    rel, line, "one-stage-loop",
                    f"`{guard}` has {len(calls)} call sites under "
                    f"{STAGE_LOOP_SCOPE}: stage-boundary guards belong to the "
                    f"one stage driver (runtime/offload.py::run_stages)",
                    guard,
                )
                for rel, line in calls
            )
    return findings


def _loop_targets(node: ast.AST) -> set[str]:
    """Names bound by a ``for`` statement or a comprehension."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        targets = [node.target]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        targets = [gen.target for gen in node.generators]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _omits_layout(node: ast.Call) -> bool:
    """A call of the shared-memory lowering that leaves its layout argument
    to the default (the identity layout)."""
    if _call_name(node) not in SHM_LOWERING_SITES:
        return False
    spread = any(isinstance(a, ast.Starred) for a in node.args)
    named = any(kw.arg in (None, "logical_to_physical") for kw in node.keywords)
    return len(node.args) < 2 and not spread and not named


def check_one_kernel_lowering(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-kernel-lowering`` rule over the linted *files*."""
    findings: list[Finding] = []
    lowering_seen = home_linted = False

    def visit(node: ast.AST, stack: list[str], rel: str, loops: bool) -> None:
        nonlocal lowering_seen
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + [node.name]
        if isinstance(node, ast.Call) and _omits_layout(node):
            where = _enclosing(stack)
            findings.append(
                Finding(
                    rel, node.lineno, "one-kernel-lowering",
                    f"`{_call_name(node)}` called without the stage layout in "
                    f"{where}: the dense fold pairs gates by physical position, "
                    f"pass the stage's logical_to_physical",
                    f"{where}:layout",
                )
            )
        targets = _loop_targets(node) if loops else ()
        if targets:
            for inner in ast.walk(node):
                f = getattr(inner, "func", None)
                if not (
                    isinstance(inner, ast.Call)
                    and isinstance(f, ast.Attribute)
                    and f.attr == "matrix"
                    and isinstance(f.value, ast.Name)
                    and f.value.id in targets
                ):
                    continue
                if any(name in KERNEL_LOWERING_SITES for name in stack):
                    lowering_seen = True
                    continue
                where = _enclosing(stack)
                findings.append(
                    Finding(
                        rel, inner.lineno, "one-kernel-lowering",
                        f"loop over gates applying `{f.value.id}.matrix()` in "
                        f"{where}: kernels execute the items of "
                        f"sim/fusion.py::lower_kernel_gates, not their gates "
                        f"one at a time",
                        where,
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, loops)

    for path in files:
        rel_src = _rel_src(path)
        in_scope = rel_src.startswith(KERNEL_LOWERING_SCOPE)
        if not in_scope and SRC not in path.parents:
            continue  # the layout rule covers the whole package
        home_linted = home_linted or rel_src == KERNEL_LOWERING_HOME
        visit(
            ast.parse(path.read_text(), filename=str(path)), [],
            path.relative_to(REPO).as_posix(), in_scope,
        )
    if home_linted and not lowering_seen:
        findings.append(
            Finding(
                f"src/repro/{KERNEL_LOWERING_HOME}", 0, "one-kernel-lowering",
                "no gate loop inside the lowering's fill (`lower_kernel_gates` / "
                "`fill_lowered_item`): the shared-memory kernel lowering moved "
                "without this rule following it",
                "lower_kernel_gates:missing",
            )
        )
    return findings


def check_one_segment_compiler(files: list[Path]) -> list[Finding]:
    """The ``one-segment-compiler`` rule over the linted *files*."""
    findings = []
    for path in files:
        if SRC not in path.parents:
            continue
        rel, rel_src = path.relative_to(REPO).as_posix(), _rel_src(path)
        source = path.read_text()
        for lineno, line in enumerate(source.splitlines(), 1):
            if SCHEDULE_KEY_WORD in line:
                findings.append(
                    Finding(
                        rel, lineno, "one-segment-compiler",
                        f"`{SCHEDULE_KEY_WORD}` under src/: a shard schedule lives "
                        f"in the Session plan cache and reaches the executors as "
                        f"`schedule=`, not as a key into a second cache",
                        SCHEDULE_KEY_WORD,
                    )
                )
            for match in SHARD_PATH_RETIRED_WORDS.finditer(line):
                name = match.group(1)
                findings.append(Finding(
                    rel, lineno, "one-segment-compiler",
                    f"`{name}` under src/: {SHARD_PATH_RETIRED[name]}", name,
                ))
        if not rel_src.startswith(SEGMENT_COMPILER_SCOPE):
            continue
        every = [
            node for node in ast.walk(ast.parse(source, filename=str(path)))
            if isinstance(node, ast.Call)
        ]
        for node in every:
            if _call_name(node) in ONE_GATE_OPS:
                findings.append(Finding(
                    rel, node.lineno, "one-segment-compiler",
                    f"`{_call_name(node)}` called under runtime/: a gate runs "
                    f"inside its kernel's op (on a shard, the kernel's variant), "
                    f"never as an op of its own",
                    _call_name(node),
                ))
        calls = [node for node in every if _call_name(node) in SEGMENT_COMPILER_CALLS]
        if rel_src == SEGMENT_COMPILER_HOME:
            if not calls:
                findings.append(
                    Finding(
                        rel, 0, "one-segment-compiler",
                        f"{SEGMENT_COMPILER_HOME} calls no template builder: the "
                        f"plan compiler moved without this rule following it",
                        "compile:missing",
                    )
                )
            continue
        for node in calls:
            findings.append(
                Finding(
                    rel, node.lineno, "one-segment-compiler",
                    f"`{_call_name(node)}` called outside {SEGMENT_COMPILER_HOME}: "
                    f"a stage's segment compiles through its slots "
                    f"(SegmentStructure), not through a second walk",
                    _call_name(node),
                )
            )
    return findings


def _names_matrix_info(node: ast.AST) -> bool:
    """``<info>.kind`` for one of the names a ``MatrixInfo`` goes by."""
    if not (isinstance(node, ast.Attribute) and node.attr == "kind"):
        return False
    owner = node.value
    named = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    return named in MATRIX_INFO_NAMES


def check_one_kernel_set(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-kernel-set`` rule over the linted *files*."""
    findings: list[Finding] = []
    thread_locals: list[tuple[str, int]] = []
    home_linted = False

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-kernel-set", message, symbol))

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + [node.name]
        where = _enclosing(stack)
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == PLAN_EXECUTOR
            and any(
                arg.arg == RETIRED_EXECUTOR_PARAM
                for arg in node.args.args + node.args.kwonlyargs
            )
        ):
            flag(
                rel, node.lineno,
                f"`{PLAN_EXECUTOR}` takes `{RETIRED_EXECUTOR_PARAM}`: a plan runs "
                f"as its compiled program and nothing else — a failed lowering "
                f"raises, it does not select a second executor tier",
                f"{where}:{RETIRED_EXECUTOR_PARAM}",
            )
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name == FUSED_MATRIX_CALL and rel_src.startswith(FUSED_MATRIX_SCOPE):
                flag(
                    rel, node.lineno,
                    f"`{name}` called in {where}: a fusion kernel reaches "
                    f"execution through the compiler's slot as one kernel op, "
                    f"on every host — no runtime builds its matrix",
                    f"{where}:{name}",
                )
            if name in ENTRY_POINTS and rel_src.startswith(ENTRY_POINT_SCOPE):
                flag(
                    rel, node.lineno,
                    f"`{name}` called in {where}: every op a runtime runs is "
                    f"bound with its compiled program or shard schedule, not "
                    f"on first sight of a matrix",
                    f"{where}:{name}",
                )
            caller = KERNEL_TEMPLATE_CALLERS.get(rel_src)
            if name == KERNEL_TEMPLATE and (caller is None or (caller and caller not in stack)):
                flag(
                    rel, node.lineno,
                    f"`{KERNEL_TEMPLATE}` called in {where}: every executor's "
                    f"kernel op is built by the compiler's kernel slot "
                    f"(runtime/compile.py); sim/apply.py::unitary_template and "
                    f"sim/fusion.py::apply_gate_sequence are the other callers",
                    f"{where}:{KERNEL_TEMPLATE}",
                )
            f = node.func
            if (
                rel_src.startswith(THREAD_LOCAL_SCOPE)
                and isinstance(f, ast.Attribute) and f.attr == "local"
                and isinstance(f.value, ast.Name) and f.value.id == "threading"
            ):
                thread_locals.append((rel, node.lineno))
        if isinstance(node, ast.Compare) and not MATRIX_KIND_SITES.intersection(stack):
            if any(_names_matrix_info(side) for side in [node.left, *node.comparators]):
                flag(
                    rel, node.lineno,
                    f"comparison on a MatrixInfo's `.kind` in {where}: an op "
                    f"is chosen by sim/apply.py::unitary_template, not per "
                    f"call site",
                    f"{where}:kind",
                )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        if SRC not in path.parents:
            continue
        rel, rel_src = path.relative_to(REPO).as_posix(), _rel_src(path)
        source = path.read_text()
        for lineno, line in enumerate(source.splitlines(), 1):
            for match in RETIRED_KERNEL_WORDS.finditer(line):
                name = match.group(1)
                flag(
                    rel, lineno,
                    f"`{name}` under src/: a retired second path — every "
                    f"gate runs as a broadcast diagonal or a kernel op, a "
                    f"plan's from the compiler's slots, with no per-kernel op "
                    f"memo, and a failed lowering raises",
                    name,
                )
        if not rel_src.startswith(KERNEL_SET_SCOPE):
            continue
        home_linted = home_linted or rel_src == KERNEL_SET_HOME
        visit(ast.parse(source, filename=str(path)), [], rel, rel_src)
    if not home_linted:
        return findings
    if len(thread_locals) != 1:
        for rel, line in thread_locals or [(f"src/repro/{KERNEL_SET_HOME}", 0)]:
            flag(
                rel, line,
                f"{len(thread_locals)} `threading.local()` under "
                f"{THREAD_LOCAL_SCOPE}: the thread workspace "
                f"(sim/apply.py::thread_workspace) is the one per-thread "
                f"buffer set",
                "threading.local",
            )
    return findings


def check_one_op_body(files: list[Path]) -> list[Finding]:
    """The ``one-op-body`` rule over the linted *files*."""
    findings: list[Finding] = []

    def flag(rel: str, node: ast.AST, message: str, symbol: str) -> None:
        findings.append(Finding(rel, node.lineno, "one-op-body", message, symbol))

    def visit(node: ast.AST, stack: list[str], rel: str) -> None:
        where = _enclosing(stack)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == OP_BODY_TWIN and stack:
                flag(
                    rel, node,
                    f"`{OP_BODY_TWIN}` closure in {where}: an op has one body, "
                    f"`run`, written against (..., 2^n) buffers — a flat "
                    f"state is a stack of one",
                    f"{where}:{OP_BODY_TWIN}",
                )
            stack = stack + [node.name]
        if isinstance(node, ast.ClassDef) and node.name == OP_BODY_CLASS:
            for stmt in node.body:
                slots = isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                )
                if slots and any(
                    isinstance(c, ast.Constant) and c.value == OP_BODY_TWIN
                    for c in ast.walk(stmt.value)
                ):
                    flag(
                        rel, stmt,
                        f"`{OP_BODY_TWIN}` in {OP_BODY_CLASS}.__slots__: an op "
                        f"carries one closure",
                        f"{OP_BODY_CLASS}.__slots__",
                    )
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "bind"
        ):
            flag(
                rel, node,
                f"subscript on a `.bind(...)` call in {where}: "
                f"OpTemplate.bind returns the one `run` closure, not a pair",
                f"{where}:bind[]",
            )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel)

    for path in files:
        if SRC in path.parents and _rel_src(path).startswith(OP_BODY_SCOPE):
            tree = ast.parse(path.read_text(), filename=str(path))
            rel = path.relative_to(REPO).as_posix()
            visit(tree, [], rel)
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == KERNEL_TEMPLATE:
                    _check_kernel_bodies(node, rel, flag)
    return findings


def _check_kernel_bodies(template: ast.FunctionDef, rel: str, flag) -> None:
    """Exactly one ``run`` closure under each named body of the kernel
    template, and none elsewhere in it."""
    seen: dict[str, int] = {}

    def visit(node: ast.AST, stack: list[str]) -> None:
        if isinstance(node, ast.FunctionDef):
            if node.name == "run":
                parent = stack[-1] if stack else ""
                seen[parent] = seen.get(parent, 0) + 1
                if parent not in KERNEL_BODIES or seen[parent] > 1:
                    flag(
                        rel, node,
                        f"`run` closure under `{parent or KERNEL_TEMPLATE}` in "
                        f"{KERNEL_TEMPLATE}: the kernel op has two bodies — "
                        + ", ".join(f"{body} under `{fn}`" for fn, body in KERNEL_BODIES.items())
                        + " — and nothing selects a third",
                        f"{KERNEL_TEMPLATE}:{parent}:run",
                    )
            stack = stack + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    for child in template.body:
        visit(child, [])
    for parent, body in KERNEL_BODIES.items():
        if parent not in seen:
            flag(
                rel, template,
                f"{KERNEL_TEMPLATE} defines no `run` under `{parent}`: the "
                f"{body} body moved without this rule following it",
                f"{KERNEL_TEMPLATE}:{parent}:missing",
            )


def check_one_float_expression(files: list[Path]) -> list[Finding]:
    """The ``one-float-expression`` rule over the linted *files*."""
    findings: list[Finding] = []
    for path in files:
        if SRC not in path.parents or _rel_src(path) != FLOAT_EXPRESSION_HOME:
            continue
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        found = set()

        def flag(line: int, message: str, symbol: str) -> None:
            findings.append(Finding(rel, line, "one-float-expression", message, symbol))

        for func in ast.walk(tree):
            if not (isinstance(func, ast.FunctionDef) and func.name in FLOAT_EXPRESSION_FUNCS):
                continue
            found.add(func.name)
            parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(func):
                fused = None
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    fused = "@"
                elif isinstance(node, ast.Call) and _call_name(node) in FLOAT_EXPRESSION_FUSED:
                    fused = _call_name(node)
                if fused is not None:
                    flag(
                        node.lineno,
                        f"`{fused}` in {func.name}: the item loop computes the C "
                        f"body's sums term by term, one ufunc per C operation",
                        f"{func.name}:{fused}",
                    )
                if not (isinstance(node, ast.Name) and node.id in FLOAT_EXPRESSION_STATE):
                    continue
                target, parent = node, parents.get(node)
                if isinstance(parent, ast.Attribute):
                    if parent.attr not in FLOAT_EXPRESSION_STATE_ATTRS:
                        parent = None
                    elif parent.attr in ("size", "shape"):
                        continue
                    else:
                        target, parent = parent, parents.get(parent)
                if (
                    isinstance(parent, ast.Call) and target in parent.args
                    and _call_name(parent) in FLOAT_EXPRESSION_STATE_CALLS
                ) or isinstance(parent, ast.Return) or (
                    isinstance(parent, ast.Tuple) and isinstance(parents.get(parent), ast.Return)
                ):
                    continue
                flag(
                    node.lineno,
                    f"`{node.id}` used in {func.name} other than as planes, a "
                    f"copy in or out, or the result: the item loop reads and "
                    f"writes only the float64 planes",
                    f"{func.name}:{node.id}",
                )
        for name in FLOAT_EXPRESSION_FUNCS:
            if name not in found:
                flag(
                    0,
                    f"no `{name}` in {FLOAT_EXPRESSION_HOME}: the item loop moved "
                    f"without this rule following it",
                    f"{name}:missing",
                )
    return findings


def check_one_native_loader(files: list[Path]) -> list[Finding]:
    """The ``one-native-loader`` rule over the linted *files*."""
    findings: list[Finding] = []
    #: Where the thread-count source is named: ``(rel, line, in the loader)``.
    affinity: list[tuple[str, int, bool]] = []

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-native-loader", message, symbol))

    for path in files:
        if SRC not in path.parents:
            continue
        rel, rel_src = path.relative_to(REPO).as_posix(), _rel_src(path)
        source = path.read_text()
        home = rel_src == NATIVE_LOADER_HOME
        tree = ast.parse(source, filename=str(path))
        for node in ast.walk(tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                modules = [node.module.split(".")[0]]
            named = (
                isinstance(node, ast.Name) and node.id == NATIVE_LOADER_NAME
            ) or (isinstance(node, ast.Attribute) and node.attr == NATIVE_LOADER_NAME)
            for module in NATIVE_LOADER_MODULES.intersection(modules):
                if not home:
                    flag(
                        rel, node.lineno,
                        f"`{module}` imported outside {NATIVE_LOADER_HOME}: one "
                        f"module builds, caches and loads native code",
                        module,
                    )
            if named and not home:
                flag(
                    rel, node.lineno,
                    f"`{NATIVE_LOADER_NAME}` named outside {NATIVE_LOADER_HOME}",
                    NATIVE_LOADER_NAME,
                )
        findings.extend(_check_tile_split(tree, rel, rel_src, home, affinity))
        if home:
            for lineno, line in enumerate(source.splitlines(), 1):
                for word in NATIVE_ENV_WORDS:
                    if word in line:
                        flag(
                            rel, lineno,
                            f"`{word}` in {NATIVE_LOADER_HOME}: nothing but the "
                            f"host decides whether the native body runs",
                            word,
                        )
    at_home = [(rel, line) for rel, line, home in affinity if home]
    for rel, line in [(rel, line) for rel, line, home in affinity if not home] + at_home[1:]:
        flag(
            rel, line,
            f"`{NATIVE_THREAD_SOURCE}` named a second time under src/: one place "
            f"({NATIVE_LOADER_HOME}) decides how many threads a pass is cut into",
            NATIVE_THREAD_SOURCE,
        )
    if not at_home and any(_rel_src(path) == NATIVE_LOADER_HOME for path in files):
        flag(
            f"src/repro/{NATIVE_LOADER_HOME}", 0,
            f"`{NATIVE_THREAD_SOURCE}` named nowhere under src/: the pass's thread "
            f"count moved without this rule following it",
            f"{NATIVE_THREAD_SOURCE}:missing",
        )
    try:
        tracked = subprocess.run(
            ["git", "ls-files", "--", *NATIVE_ARTIFACT_SUFFIXES], cwd=REPO,
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):  # no git: nothing is tracked
        tracked = []
    for name in tracked:
        flag(
            name, 0,
            "a built object is tracked by git: the kernel library is built on "
            "first use, never shipped",
            "tracked-artifact",
        )
    return findings


def _walk(node: ast.AST | None):
    """``ast.walk`` of *node*, nothing for ``None``."""
    return () if node is None else ast.walk(node)


def _check_tile_split(
    tree: ast.Module, rel: str, rel_src: str, home: bool, affinity: list
) -> list[Finding]:
    """``one-native-loader``'s half on the tile pass in one module: the
    foreign symbol is declared and called in the loader only — its call
    inside the split helper, a function of the module itself, never of a
    per-op closure — and the helper is called only by the kernel
    template.  Appends where *tree* names the thread-count source to
    *affinity*, which the caller holds to one place."""
    findings: list[Finding] = []

    def flag(line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-native-loader", message, symbol))

    licensed: set[int] = set()
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    if home:
        declared = {
            target.attr
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Attribute) and target.value.attr == NATIVE_ENTRY
        }
        if declared != {"argtypes", "restype"}:
            flag(
                0,
                f"{NATIVE_LOADER_HOME} does not declare `{NATIVE_ENTRY}`'s argtypes "
                f"and restype: the tile pass's symbol moved without this rule "
                f"following it",
                f"{NATIVE_ENTRY}:undeclared",
            )
        licensed.update(id(n) for n in _walk(functions.get("_load")))
        split = functions.get(NATIVE_SPLIT)
        if split is None:
            flag(
                0,
                f"{NATIVE_LOADER_HOME} defines no module-level `{NATIVE_SPLIT}`: "
                f"the one caller of `{NATIVE_ENTRY}` moved (into a per-op closure?) "
                f"without this rule following it",
                f"{NATIVE_SPLIT}:missing",
            )
        else:
            licensed.update(id(n) for n in ast.walk(split))
    caller_module, caller_function = NATIVE_SPLIT_CALLER
    caller = functions.get(caller_function) if rel_src == caller_module else None
    calls = {
        id(n.func) for n in _walk(caller)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == NATIVE_SPLIT
    }
    for node in ast.walk(tree):
        named = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, (ast.FunctionDef, ast.alias))
            else None
        )
        if named == NATIVE_THREAD_SOURCE:
            affinity.append((rel, node.lineno, home))
        elif named == NATIVE_ENTRY and id(node) not in licensed:
            flag(
                node.lineno,
                f"`{NATIVE_ENTRY}` named outside {NATIVE_LOADER_HOME}'s `_load` and "
                f"`{NATIVE_SPLIT}`: every tile pass goes through the one function "
                f"that cuts it across threads",
                NATIVE_ENTRY,
            )
        elif (
            named == NATIVE_SPLIT and id(node) not in calls
            and not (home and node is functions.get(NATIVE_SPLIT))
        ):
            flag(
                node.lineno,
                f"`{NATIVE_SPLIT}` named outside its definition and its call in "
                f"{caller_module}::{caller_function}: one op binds the tile pass",
                NATIVE_SPLIT,
            )
    return findings


def check_one_planning_surface(files: list[Path]) -> list[Finding]:
    """The ``one-planning-surface`` rule over the linted *files*."""
    findings = []
    for path in files:
        if not _rel_src(path).startswith(PLANNING_SURFACE_SCOPE):
            continue
        rel = path.relative_to(REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            named = None
            if isinstance(node, ast.Name):
                named = node.id
            elif isinstance(node, ast.Attribute):
                named = node.attr
            elif isinstance(node, ast.alias):
                named = node.name.rpartition(".")[2]
            keyword = None
            if isinstance(node, (ast.keyword, ast.arg)):
                keyword = node.arg
            if named == PLANNING_SURFACE_NAME or keyword in PLANNING_SURFACE_KEYWORDS:
                symbol = named or f"{keyword}="
                findings.append(
                    Finding(
                        rel, node.lineno, "one-planning-surface",
                        f"`{symbol}` under {_rel_src(path).split('/')[0]}/: a Session "
                        f"plans through `planner=` only — build the "
                        f"legacy_pipeline at the keyword-style entry point "
                        f"(repro.simulate, repro.core.partition) and pass it in",
                        symbol,
                    )
                )
    return findings


def check_one_pipeline_signature(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-pipeline-signature`` rule over the linted *files*."""
    findings: list[Finding] = []
    home_linted = built = False

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        nonlocal built
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + [node.name]
        name = _call_name(node) if isinstance(node, ast.Call) else None
        where = _enclosing(stack)
        if name == "freeze_config":
            sites = PIPELINE_SIGNATURE_SITES.get(rel_src, ())
            if _within(stack, sites):
                built = built or (rel_src == PIPELINE_HOME and _within(stack, sites[:1]))
            else:
                findings.append(Finding(
                    rel, node.lineno, "one-pipeline-signature",
                    f"`freeze_config` in {where}: a PassManager builds its signature "
                    f"once, in its constructor, and the session freezes a machine or "
                    f"cost model once per object (session/cache.py::frozen)",
                    f"{where}:freeze_config",
                ))
        if name == "register_preset" and rel_src != PIPELINE_HOME:
            findings.append(Finding(
                rel, node.lineno, "one-pipeline-signature",
                f"`register_preset` in {where}: the presets are registered in "
                f"{PIPELINE_HOME} only — one cold preset and its quality step",
                f"{where}:register_preset",
            ))
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        if SRC not in path.parents:
            continue
        rel_src = _rel_src(path)
        home_linted = home_linted or rel_src == PIPELINE_HOME
        visit(
            ast.parse(path.read_text(), filename=str(path)), [],
            path.relative_to(REPO).as_posix(), rel_src,
        )
    if home_linted and not built:
        findings.append(Finding(
            f"src/repro/{PIPELINE_HOME}", 0, "one-pipeline-signature",
            "PassManager's constructor builds no signature: the rule lost its site",
            "PassManager:no-signature",
        ))
    return findings


def check_one_staging_bound(files: list[Path]) -> list[Finding]:
    """The ``one-staging-bound`` rule over the linted *files*."""
    findings = []
    for path in files:
        if SRC not in path.parents:
            continue
        rel = path.relative_to(REPO).as_posix()
        source = path.read_text()
        for number, line in enumerate(source.splitlines(), 1):
            for word in STAGING_BOUND_WORDS:
                if word in line:
                    findings.append(
                        Finding(
                            rel, number, "one-staging-bound",
                            f"`{word}` under src/: the stage count starts at the "
                            f"bound core/stage.py::stage_circuit proves itself; "
                            f"there is no caller-side start and no switch for it",
                            word,
                        )
                    )
        if _rel_src(path) != STAGING_HOME:
            continue
        tree = ast.parse(source, filename=str(path))
        bound_at_module_level = any(
            isinstance(node, ast.ImportFrom)
            and any((a.asname or a.name) == STAGING_SOLVER_SEAM for a in node.names)
            for node in tree.body
        )
        seam_calls = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                seam_calls += node.func.id == STAGING_SOLVER_SEAM
            if isinstance(node, ast.Attribute):
                named = node.attr
            elif isinstance(node, ast.Name):
                named = node.id
            elif isinstance(node, ast.alias):
                named = node.name
            else:
                continue
            through_object = named == STAGING_SOLVER_SEAM and isinstance(node, ast.Attribute)
            if named in STAGING_SOLVER_BYPASSES or through_object:
                symbol = f".{named}" if through_object else named
                findings.append(
                    Finding(
                        rel, node.lineno, "one-staging-bound",
                        f"`{symbol}` in {STAGING_HOME}: staging calls the solver "
                        f"only as the module attribute `{STAGING_SOLVER_SEAM}` — "
                        f"the seam the repo benchmark traces ilp.solve through",
                        symbol,
                    )
                )
        if not (bound_at_module_level and seam_calls):
            findings.append(
                Finding(
                    rel, 0, "one-staging-bound",
                    f"{STAGING_HOME} no longer imports `{STAGING_SOLVER_SEAM}` at "
                    f"module level and calls it by that name: the solver seam "
                    f"moved without this rule following it",
                    f"{STAGING_SOLVER_SEAM}:missing",
                )
            )
    return findings


def _inline_staging_cost(node: ast.Call) -> ast.AST | None:
    """The cost a ``StagingResult(...)`` call computes inline, if it does."""
    values = [k.value for k in node.keywords if k.arg == STAGING_COST_FIELD]
    values += node.args[2:3]  # (stages, num_stages, communication_cost, ...)
    for value in values:
        evaluated = isinstance(value, ast.Call) and _call_name(value) == STAGING_COST_EVALUATOR
        constant = isinstance(value, ast.Constant) and isinstance(value.value, (int, float))
        if not (evaluated or constant):
            return value
    return None


def check_one_staging_cost(files: list[Path]) -> list[Finding]:
    """The ``one-staging-cost`` rule over the linted *files*."""
    findings = []
    for path in files:
        if SRC not in path.parents or not _rel_src(path).startswith(STAGING_COST_SCOPE):
            continue
        rel = path.relative_to(REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "objective":
                findings.append(
                    Finding(
                        rel, node.lineno, "one-staging-cost",
                        "`.objective` under core/: a staging's cost is "
                        f"`{STAGING_COST_EVALUATOR}` of its partitions, never the "
                        "solver's float objective",
                        ".objective",
                    )
                )
            if (
                isinstance(node, ast.Call)
                and _call_name(node) == "StagingResult"
                and _inline_staging_cost(node) is not None
            ):
                findings.append(
                    Finding(
                        rel, node.lineno, "one-staging-cost",
                        f"`StagingResult(...)` computes its {STAGING_COST_FIELD} "
                        f"inline: report `{STAGING_COST_EVALUATOR}(partitions, c)`, "
                        "the one evaluator of Equation (3)",
                        f"StagingResult:{STAGING_COST_FIELD}",
                    )
                )
    return findings


def check_one_staging_path(files: list[Path]) -> list[Finding]:
    """The ``one-staging-path`` rule over the linted *files*."""
    findings = []
    for path in files:
        if SRC not in path.parents or _rel_src(path) in STAGING_PATH_HOMES:
            continue
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        # The innermost function around each call (ast.walk visits an outer
        # function before the functions nested in it).
        owner: dict[int, str] = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node) == STAGING_RESULT:
                findings.append(
                    Finding(
                        rel, node.lineno, "one-staging-path",
                        f"`{STAGING_RESULT}(...)` outside the stagers "
                        f"({', '.join(STAGING_PATH_HOMES)}): a second staging path",
                        f"{STAGING_RESULT}:{owner.get(id(node), '<module>')}",
                    )
                )
    return findings


def check_kernelizer_oracle(files: list[Path]) -> list[Finding]:
    """The ``kernelizer-oracle`` rule over the linted *files*."""
    findings = []
    for path in files:
        rel_src = _rel_src(path)
        if SRC not in path.parents or rel_src == KERNELIZER_ORACLE_HOME:
            continue
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        # Imports are licensed in the two files that may name the oracle;
        # uses only inside the registry entry.
        licensed: set[int] = set()
        if rel_src in (KERNELIZER_ORACLE_REEXPORT, KERNELIZER_REGISTRY_HOME):
            licensed.update(id(n) for n in ast.walk(tree) if isinstance(n, ast.alias))
        entry_uses = 0
        if rel_src == KERNELIZER_REGISTRY_HOME:
            for node in ast.walk(tree):
                if not isinstance(node, ast.Dict):
                    continue
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) and key.value == KERNELIZER_REGISTRY_KEY:
                        uses = [
                            n for n in ast.walk(value)
                            if isinstance(n, ast.Name) and n.id == KERNELIZER_ORACLE
                        ]
                        entry_uses += len(uses)
                        licensed.update(id(n) for n in uses)
            if not entry_uses:
                findings.append(
                    Finding(
                        rel, 0, "kernelizer-oracle",
                        f"{KERNELIZER_REGISTRY_HOME} has no "
                        f"\"{KERNELIZER_REGISTRY_KEY}\" registry entry calling "
                        f"`{KERNELIZER_ORACLE}`: the oracle's one entry point moved "
                        f"without this rule following it",
                        f"{KERNELIZER_REGISTRY_KEY}:missing",
                    )
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named = node.id
            elif isinstance(node, ast.Attribute):
                named = node.attr
            elif isinstance(node, ast.alias):
                named = node.name
            else:
                continue
            if named == KERNELIZER_ORACLE and id(node) not in licensed:
                findings.append(
                    Finding(
                        rel, node.lineno, "kernelizer-oracle",
                        f"`{KERNELIZER_ORACLE}` (the reference DP) outside "
                        f"{KERNELIZER_ORACLE_REEXPORT}'s re-export and the "
                        f"\"{KERNELIZER_REGISTRY_KEY}\" registry entry: production "
                        f"code plans through fast_kernelize — same kernels, types "
                        f"and costs, many times faster",
                        KERNELIZER_ORACLE,
                    )
                )
    return findings + _check_native_dps(files)


def _check_native_dps(files: list[Path]) -> list[Finding]:
    """``kernelizer-oracle``'s half on the planning bodies of :data:`NATIVE_DPS`."""
    findings = []

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "kernelizer-oracle", message, symbol))

    for path in files:
        if SRC not in path.parents:
            continue
        rel, rel_src = path.relative_to(REPO).as_posix(), _rel_src(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for dp in NATIVE_DPS:
            _check_native_dp(dp, tree, rel, rel_src, flag)
    return findings


def _check_native_dp(dp: NativeDP, tree: ast.Module, rel: str, rel_src: str, flag) -> None:
    """One DP's foreign symbol and Python loop, named only in their places."""
    licensed: set[int] = set()
    if rel_src == NATIVE_LOADER_HOME:
        declared = {
            target.attr
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == dp.symbol
        }
        if declared != {"argtypes", "restype"}:
            flag(
                rel, 0,
                f"{NATIVE_LOADER_HOME} does not declare `{dp.symbol}`'s argtypes and "
                f"restype: the foreign symbol moved without this rule following it",
                f"{dp.symbol}:undeclared",
            )
        licensed.update(
            id(n) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == dp.symbol
        )
    if rel_src == dp.home:
        licensed.update(_check_native_dp_selection(dp, tree, rel, flag))
    for node in ast.walk(tree):
        named = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if rel_src == dp.home and named in NATIVE_ENV_WORDS:
            flag(
                rel, node.lineno,
                f"`{named}` in {dp.home}: nothing but the host and the input picks "
                f"`{dp.entry}`'s body",
                named,
            )
        if named in (dp.symbol, dp.loop) and id(node) not in licensed:
            flag(
                rel, node.lineno,
                f"`{named}` named outside its place: the foreign symbol `{dp.symbol}` "
                f"is declared in {NATIVE_LOADER_HOME} and called by "
                f"{dp.home}::{dp.caller}, the Python loop called only from "
                f"{dp.entry}'s fallback branch",
                named,
            )


def _check_native_dp_selection(dp: NativeDP, tree: ast.Module, rel: str, flag) -> set[int]:
    """The nodes of *dp*'s module that may name its bodies: the foreign
    symbol's call in its caller and the loop's one call in the entry's
    fallback branch.  Flags the entry's signature and selection."""
    licensed: set[int] = set()
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    caller = functions.get(dp.caller)
    if caller is not None:
        licensed.update(
            id(n.func) for n in ast.walk(caller)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == dp.symbol
        )
    entry = functions.get(dp.entry)
    if entry is None:
        flag(rel, 0, f"{dp.home} defines no `{dp.entry}`", f"{dp.entry}:missing")
        return licensed
    params = entry.args
    if (
        [a.arg for a in params.posonlyargs + params.args] != dp.params
        or params.vararg or params.kwonlyargs or params.kwarg
    ):
        flag(
            rel, entry.lineno,
            f"`{dp.entry}` takes more than ({', '.join(dp.params)}): no parameter "
            f"selects its body",
            f"{dp.entry}:parameters",
        )

    def calls(nodes: list[ast.stmt], name: str) -> list[ast.Call]:
        return [
            n for stmt in nodes for n in ast.walk(stmt)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
        ]

    selections = [
        node for node in ast.walk(entry)
        if isinstance(node, ast.If)
        and len(calls(node.body, dp.loop)) == 1 and calls(node.orelse, dp.caller)
    ]
    if len(selections) != 1:
        flag(
            rel, entry.lineno,
            f"`{dp.entry}` has no one `if` calling `{dp.loop}` in its branch and "
            f"`{dp.caller}` in the other: the fallback moved without this rule "
            f"following it",
            f"{dp.loop}:fallback",
        )
        return licensed
    (selection,) = selections
    licensed.update(id(call.func) for call in calls(selection.body, dp.loop))
    for node in ast.walk(selection.test):
        if isinstance(node, ast.Name) and node.id in dp.params:
            flag(
                rel, node.lineno,
                f"`{node.id}` in `{dp.entry}`'s choice of body: the host and the input "
                f"pick it, no setting does",
                f"{dp.entry}:selects-on-{node.id}",
            )
    return licensed


def check_bench_host_free() -> list[Finding]:
    """The ``bench-host-free`` rule over ``benchmarks/run_bench.py``."""
    path = REPO / BENCH_HOST_FREE_FILE
    if not path.exists():
        return []
    findings = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        keys: list = []
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        for key in keys:
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and key.value.endswith(BENCH_TIMING_SUFFIXES)
            ):
                findings.append(
                    Finding(
                        BENCH_HOST_FREE_FILE, key.lineno, "bench-host-free",
                        f"result key \"{key.value}\": this file writes counts and "
                        f"ratios of two timings of one run, never a second — price "
                        f"it against np.copyto or the alternative timed beside it",
                        key.value,
                    )
                )
        if isinstance(node, ast.Call) and _call_name(node) == BENCH_STAGE_LOOP_MARK:
            findings.append(
                Finding(
                    BENCH_HOST_FREE_FILE, node.lineno, "bench-host-free",
                    f"`{BENCH_STAGE_LOOP_MARK}` called from the micro gate: a stage "
                    f"loop of its own is a third executor growing back — time "
                    f"the runtime's, through its entry points",
                    BENCH_STAGE_LOOP_MARK,
                )
            )
    return findings


def check_one_layout_move(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-layout-move`` rule over the linted *files*."""
    findings: list[Finding] = []
    driver_linted = driver_calls = False

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        nonlocal driver_calls
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + [node.name]
        if isinstance(node, ast.Call) and _call_name(node) == LAYOUT_MOVE_CALL:
            if rel_src == LAYOUT_MOVE_DRIVER and LAYOUT_MOVE_SITE in stack:
                driver_calls = True
            else:
                where = _enclosing(stack)
                findings.append(
                    Finding(
                        rel, node.lineno, "one-layout-move",
                        f"`{LAYOUT_MOVE_CALL}` called in {where}: a stage boundary "
                        f"is a shard load or store (runtime/offload.py::"
                        f"build_schedule); the full-state permute is "
                        f"{LAYOUT_MOVE_SITE}'s fallback only",
                        f"{where}:{LAYOUT_MOVE_CALL}",
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        rel_src = _rel_src(path)
        if SRC not in path.parents or not rel_src.startswith(LAYOUT_MOVE_SCOPE):
            continue
        driver_linted = driver_linted or rel_src == LAYOUT_MOVE_DRIVER
        visit(
            ast.parse(path.read_text(), filename=str(path)), [],
            path.relative_to(REPO).as_posix(), rel_src,
        )
    if driver_linted and not driver_calls:
        findings.append(
            Finding(
                f"src/repro/{LAYOUT_MOVE_DRIVER}", 0, "one-layout-move",
                f"no `{LAYOUT_MOVE_CALL}` in {LAYOUT_MOVE_DRIVER}::{LAYOUT_MOVE_SITE}: the "
                f"stage driver's permute fallback moved without this rule "
                f"following it",
                f"{LAYOUT_MOVE_SITE}:{LAYOUT_MOVE_CALL}:missing",
            )
        )
    return findings


def check_one_pass_per_stage(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-pass-per-stage`` rule over the linted *files*."""
    findings: list[Finding] = []
    sites: list[tuple[str, int, int]] = []
    driver_linted = False

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-pass-per-stage", message, symbol))

    def visit(node: ast.AST, loops: int | None, rel: str, rel_src: str, named) -> None:
        # *loops* counts the loops around *node* inside the driver (None
        # outside it); *named* holds the ``__slots__`` entries of the file.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            rel_src == LAYOUT_MOVE_DRIVER and node.name == LAYOUT_MOVE_SITE
        ):
            loops = 0
        if loops is not None and isinstance(node, ast.Call) and (
            _call_name(node) == PASS_PER_STAGE_CALL
        ):
            sites.append((rel, node.lineno, loops))
        if (
            isinstance(node, ast.Constant) and node.value in SEGMENT_KIND_WORDS
            and id(node) not in named
            and any(rel_src == scope or rel_src.startswith(scope) for scope in SEGMENT_KIND_SCOPE)
        ):
            flag(
                rel, node.lineno,
                f"segment-kind literal {node.value!r}: a stage is one shard pass, "
                f"and a gate mixing amplitudes along a non-local qubit is refused "
                f"when the schedule is built, not run over the full state",
                f"{node.value}:literal",
            )
        if loops is not None and isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension)):
            loops += 1
        for child in ast.iter_child_nodes(node):
            visit(child, loops, rel, rel_src, named)

    for path in files:
        if SRC not in path.parents:
            continue
        rel_src = _rel_src(path)
        driver_linted |= rel_src == LAYOUT_MOVE_DRIVER
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {
            id(entry)
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
            for entry in ast.walk(node.value)
        }
        visit(tree, None, path.relative_to(REPO).as_posix(), rel_src, named)
    for rel, line, loops in sites:
        if len(sites) > 1:
            flag(
                rel, line,
                f"`{PASS_PER_STAGE_CALL}` has {len(sites)} call sites in "
                f"{LAYOUT_MOVE_SITE}: a stage is one shard pass",
                f"{LAYOUT_MOVE_SITE}:{PASS_PER_STAGE_CALL}:sites",
            )
        if loops > 1:
            flag(
                rel, line,
                f"`{PASS_PER_STAGE_CALL}` called in a loop nested in the stage loop "
                f"of {LAYOUT_MOVE_SITE}: a stage is one shard pass",
                f"{LAYOUT_MOVE_SITE}:{PASS_PER_STAGE_CALL}:nested",
            )
    if driver_linted and not sites:
        flag(
            f"src/repro/{LAYOUT_MOVE_DRIVER}", 0,
            f"no `{PASS_PER_STAGE_CALL}` call in {LAYOUT_MOVE_DRIVER}::{LAYOUT_MOVE_SITE}: "
            f"the stage driver moved without this rule following it",
            f"{LAYOUT_MOVE_SITE}:{PASS_PER_STAGE_CALL}:missing",
        )
    return findings


BIND_PATH_HOME = "runtime/compile.py"
#: ``(called attribute, class, method)``: where each may be called.
BIND_PATH_SITES = {"program": ("_Structure", "bind"), "bind_numbers": ("_KernelSlot", "fill")}
BIND_PATH_PROGRAM_CLASS = "GatherProgram"
DISPATCH_HOME = "service/service.py"
DISPATCH_LOOP = "_scheduler_loop"


def _is_session_run(node: ast.AST) -> bool:
    """``<...>.session.run(...)`` or ``session.run(...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    named = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    return node.func.attr == "run" and named == "session"


def check_one_bind_path(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-bind-path`` rule over the linted *files*."""
    findings: list[Finding] = []
    seen = {name: False for name in BIND_PATH_SITES}
    home_linted = dispatch_linted = False
    dispatch_runs = 0

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-bind-path", message, symbol))

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        nonlocal dispatch_runs
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + [node.name]
        where = _enclosing(stack)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else None
            if isinstance(f, ast.Call) and _call_name(f) == BIND_PATH_PROGRAM_CLASS:
                name = "program"
            if name in BIND_PATH_SITES:
                if rel_src == BIND_PATH_HOME and stack[-2:] == list(BIND_PATH_SITES[name]):
                    seen[name] = True
                else:
                    cls, method = BIND_PATH_SITES[name]
                    flag(
                        rel, node.lineno,
                        f"`{name}` called in {where}: a job's numbers are bound "
                        f"only by {BIND_PATH_HOME}::{cls}.{method}, the stacked "
                        f"bind a solo job is a stack of one of",
                        f"{where}:{name}",
                    )
            if rel_src == DISPATCH_HOME and _is_session_run(node):
                if DISPATCH_LOOP in stack:
                    dispatch_runs += 1
                    first = node.args[0] if node.args else None
                    if isinstance(first, ast.Attribute) and first.attr == "circuits":
                        flag(
                            rel, node.lineno,
                            f"`session.run` of one job's `{first.attr}` in {where}: "
                            f"the scheduler runs the dispatched group, a solo job "
                            f"as a group of one",
                            f"{where}:single-job",
                        )
                elif not any(
                    kw.arg == "execute" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                ):
                    flag(
                        rel, node.lineno,
                        f"`session.run` in {where} executes: the service runs "
                        f"jobs only from {DISPATCH_LOOP}'s grouped dispatch",
                        f"{where}:session.run",
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        if SRC not in path.parents:
            continue
        rel_src = _rel_src(path)
        home_linted = home_linted or rel_src == BIND_PATH_HOME
        dispatch_linted = dispatch_linted or rel_src == DISPATCH_HOME
        visit(
            ast.parse(path.read_text(), filename=str(path)), [],
            path.relative_to(REPO).as_posix(), rel_src,
        )
    if home_linted:
        for name, found in seen.items():
            if not found:
                cls, method = BIND_PATH_SITES[name]
                flag(
                    f"src/repro/{BIND_PATH_HOME}", 0,
                    f"no `{name}` call in {BIND_PATH_HOME}::{cls}.{method}: the "
                    f"stacked bind moved without this rule following it",
                    f"{cls}.{method}:{name}:missing",
                )
    if dispatch_linted and dispatch_runs != 1:
        flag(
            f"src/repro/{DISPATCH_HOME}", 0,
            f"{dispatch_runs} `session.run` calls in {DISPATCH_HOME}::{DISPATCH_LOOP}: "
            f"the scheduler has one dispatch, the grouped one",
            f"{DISPATCH_LOOP}:dispatch",
        )
    return findings


ADMIT_HOME = "runtime/compile.py"
#: What walks a plan's stages: attributes read, and the layout call.
ADMIT_STAGE_READS = ("stages", "kernels", "gate_indices")
ADMIT_LAYOUT_CALL = "logical_to_physical"
#: ``(class, function)`` suffixes of the enclosing scopes allowed to walk
#: stages, to digest a plan, and to prove locality.
ADMIT_WALKERS = (("PlanRecord", "__init__"), ("row_of",))
ADMIT_DIGESTERS = (("row_of",),)
ADMIT_PROVERS = (("ProgramStructure", "admit"),)
ADMIT_SESSION = "session/session.py"
ADMIT_TIMING = ("Session", "_timing")


def _within(stack: list[str], sites) -> bool:
    return any(stack[-len(site):] == list(site) for site in sites)


def check_one_admit_path(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-admit-path`` rule over the linted *files*."""
    findings: list[Finding] = []
    home_linted = session_linted = walked = handed = False

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-admit-path", message, symbol))

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        nonlocal walked, handed
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + [node.name]
        where = _enclosing(stack)
        in_admit = "admit" in stack and rel_src.startswith("runtime/")
        walk = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in ADMIT_STAGE_READS:
                walk = f".{node.attr}"
        if isinstance(node, ast.Call) and _call_name(node) == ADMIT_LAYOUT_CALL:
            walk = f".{ADMIT_LAYOUT_CALL}()"
        if walk is not None and (rel_src == ADMIT_HOME or in_admit):
            if rel_src == ADMIT_HOME and _within(stack, ADMIT_WALKERS) and not in_admit:
                walked = True
            else:
                flag(
                    rel, node.lineno,
                    f"`{walk}` in {where}: a plan's stages are walked only where "
                    f"its structure is built (PlanRecord.__init__) — a warm row "
                    f"is admitted by its digest and gate table",
                    f"{where}:{walk}",
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name == "digest" and (rel_src == ADMIT_HOME or in_admit) and not (
                rel_src == ADMIT_HOME and _within(stack, ADMIT_DIGESTERS)
            ):
                flag(
                    rel, node.lineno,
                    f"`.digest()` in {where}: a plan is digested once per "
                    f"compile, by {ADMIT_HOME}::row_of",
                    f"{where}:digest",
                )
            if name == "prove_locality" and not _within(stack, ADMIT_PROVERS):
                flag(
                    rel, node.lineno,
                    f"`prove_locality` called in {where}: an admitted row is "
                    f"proved local by ProgramStructure.admit",
                    f"{where}:prove_locality",
                )
            if name == "timing" and rel_src == ADMIT_SESSION and not _within(
                stack, (ADMIT_TIMING,)
            ):
                flag(
                    rel, node.lineno,
                    f"`.timing(...)` in {where}: the modelled timing is kept "
                    f"once per cache entry, by Session._timing",
                    f"{where}:timing",
                )
        if rel_src == ADMIT_SESSION and isinstance(node, ast.Call):
            if _call_name(node) == "rebind_plan":
                flag(
                    rel, node.lineno,
                    f"`rebind_plan` called in {where}: a row's plan is built "
                    f"when it is read — hand rebind_plan to BoundPlan",
                    f"{where}:rebind_plan",
                )
            if _call_name(node) == "BoundPlan" and any(
                isinstance(arg, ast.Name) and arg.id == "rebind_plan" for arg in node.args
            ):
                handed = True
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        if SRC not in path.parents:
            continue
        rel_src = _rel_src(path)
        home_linted = home_linted or rel_src == ADMIT_HOME
        session_linted = session_linted or rel_src == ADMIT_SESSION
        visit(
            ast.parse(path.read_text(), filename=str(path)), [],
            path.relative_to(REPO).as_posix(), rel_src,
        )
    if home_linted and not walked:
        flag(
            f"src/repro/{ADMIT_HOME}", 0,
            f"no stage walk in {ADMIT_HOME}::PlanRecord.__init__: the "
            f"structure's record moved without this rule following it",
            "PlanRecord.__init__:missing",
        )
    if session_linted and not handed:
        flag(
            f"src/repro/{ADMIT_SESSION}", 0,
            f"no `BoundPlan(..., rebind_plan)` in {ADMIT_SESSION}: the lazy "
            f"row plan moved without this rule following it",
            "BoundPlan:missing",
        )
    return findings


GATE_SHAPE_HOME = "sim/fusion.py"
#: The lowering's structure half: the gate loop, the block composer and
#: the shape lookup.
GATE_SHAPE_SITES = ("kernel_lowering", "_block", "_gate_shape")
#: What re-derives a gate's structure one gate at a time.
GATE_SHAPE_BYPASS = ("analyze_matrix", "matrix")


def check_one_gate_shape(files: list[Path]) -> list[Finding]:
    """The ``one-gate-shape`` rule over the linted *files*."""
    findings: list[Finding] = []
    for path in files:
        if _rel_src(path) != GATE_SHAPE_HOME:
            continue
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        sites = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in GATE_SHAPE_SITES
        ]
        if not any(site.name == "kernel_lowering" for site in sites):
            findings.append(Finding(
                rel, 0, "one-gate-shape",
                f"no `kernel_lowering` in {GATE_SHAPE_HOME}: the lowering moved "
                f"without this rule following it",
                "kernel_lowering:missing",
            ))
        for site in sites:
            for node in ast.walk(site):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name == "matrix" and not isinstance(node.func, ast.Attribute):
                    continue
                if name in GATE_SHAPE_BYPASS:
                    findings.append(Finding(
                        rel, node.lineno, "one-gate-shape",
                        f"`{name}` called in {site.name}: the lowering reads each "
                        f"gate's shape keyed on its name and exact signature "
                        f"(`_gate_shape`), never a matrix gate by gate",
                        f"{site.name}:{name}",
                    ))
    return findings


GATE_TABLE_HOME = "runtime/compile.py"
GATE_TABLE_METHODS = ("bind", "fill")
#: Calls that fetch a gate's numbers one gate (or one item) at a time.
GATE_TABLE_BYPASS = ("matrix", "fill_lowered_item", "_restrict")
#: Retired names, each with why it is gone.
GATE_TABLE_RETIRED = {
    "cache_patterns": "a gate's key pattern and exact signature are read off its "
    "circuit's GateTable",
    "segment_table": "a shard schedule's segments read the plan's one gate table, "
    "admitted with the whole plan",
}
GATE_TABLE_RETIRED_WORDS = re.compile(r"\b(%s)\b" % "|".join(GATE_TABLE_RETIRED))
#: Where a ``GateTable`` may be constructed: the circuit's memo and a
#: hand-built plan's own table (``core/plan.py::_own_table``).
GATE_TABLE_BUILDERS = ("circuits/circuit.py", "core/plan.py")


def check_one_gate_table(files: list[Path]) -> list[Finding]:
    """The ``one-gate-table`` rule over the linted *files*."""
    findings: list[Finding] = []

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-gate-table", message, symbol))

    for path in files:
        if SRC not in path.parents:
            continue
        rel, rel_src = path.relative_to(REPO).as_posix(), _rel_src(path)
        source = path.read_text()
        for lineno, line in enumerate(source.splitlines(), 1):
            for match in GATE_TABLE_RETIRED_WORDS.finditer(line):
                name = match.group(1)
                flag(rel, lineno, f"`{name}` under src/: {GATE_TABLE_RETIRED[name]}", name)
        tree = ast.parse(source, filename=str(path))
        if rel_src not in GATE_TABLE_BUILDERS:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _call_name(node) == "GateTable":
                    flag(
                        rel, node.lineno,
                        f"`GateTable(...)` built in {rel_src}: a job's numbers come "
                        f"from its circuit's one table (or a hand-built plan's own, "
                        f"core/plan.py), not a second per-job table",
                        "GateTable",
                    )
        if rel_src != GATE_TABLE_HOME:
            continue
        methods = 0
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not (
                    isinstance(method, ast.FunctionDef) and method.name in GATE_TABLE_METHODS
                ):
                    continue
                methods += 1
                where = f"{cls.name}.{method.name}"
                for node in ast.walk(method):
                    name = _call_name(node) if isinstance(node, ast.Call) else None
                    if name in GATE_TABLE_BYPASS:
                        flag(
                            rel, node.lineno,
                            f"`{name}` called in {where}: a slot binds its numbers "
                            f"from the job's gate table through its gather "
                            f"program, not gate by gate",
                            f"{where}:{name}",
                        )
        if not methods:
            flag(
                rel, 0,
                f"no slot `bind` / `fill` method in {GATE_TABLE_HOME}: the "
                f"slots moved without this rule following them",
                "slots:missing",
            )
    return findings


#: The modules that write a persisted format, read back bit for bit.
EXACT_FORMAT_FILES = (
    "circuits/qasm.py", "service/journal.py", "service/persistence.py",
    "runtime/checkpoint.py",
)
TOLERANCE_CALLS = {"isclose", "allclose"}
_BELOW = {ast.Lt: "<", ast.LtE: "<="}
#: ``literal > abs(x)`` is ``abs(x) < literal``.
_MIRRORED = {ast.Gt: "<", ast.GtE: "<="}


def _is_abs(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs"


def _is_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _tolerance_test(node: ast.AST) -> str | None:
    """What makes *node* a tolerance comparison — ``abs<`` for an
    ``abs(...)`` bounded by a literal, the call's name for
    ``isclose`` / ``allclose`` — or None."""
    if isinstance(node, ast.Call) and _call_name(node) in TOLERANCE_CALLS:
        return _call_name(node)
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) in _BELOW and _is_abs(left) and _is_literal(right):
                return "abs" + _BELOW[type(op)]
            if type(op) in _MIRRORED and _is_literal(left) and _is_abs(right):
                return "abs" + _MIRRORED[type(op)]
    return None


def check_exact_persisted_formats(files: list[Path]) -> list[Finding]:
    """The ``exact-persisted-formats`` rule over the linted *files*."""
    findings: list[Finding] = []

    def visit(node: ast.AST, stack: list[str], rel: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + [node.name]
        test = _tolerance_test(node)
        if test is not None:
            where = _enclosing(stack)
            findings.append(
                Finding(
                    rel, node.lineno, "exact-persisted-formats",
                    f"tolerance comparison `{test}` in {where}: a persisted "
                    f"format is read back as the bits it holds — compare "
                    f"exactly, or a recovered job runs other numbers",
                    f"{where}:{test}",
                )
            )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel)

    for path in files:
        if SRC in path.parents and _rel_src(path) in EXACT_FORMAT_FILES:
            visit(
                ast.parse(path.read_text(), filename=str(path)), [],
                path.relative_to(REPO).as_posix(),
            )
    return findings


#: The layers below the session: none of them imports an upper one.
LAYERING_SCOPE = (
    "core/", "circuits/", "sim/", "runtime/", "planner/", "check/", "cluster/", "ilp/",
    "baselines/",
)
LAYERING_UPPER = ("repro.session", "repro.service")


def _imported_modules(node: ast.AST, package: str) -> list[str]:
    """The absolute module names an import *node* of a module in
    *package* can bind (an imported name may itself be a module)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = package.split(".")
    base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
    module = ".".join(filter(None, (base, node.module)))
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def check_layering(files: list[Path]) -> list[Finding]:
    """The ``layering`` rule over the linted *files*."""
    findings = []
    for path in files:
        rel_src = _rel_src(path)
        if SRC not in path.parents or not rel_src.startswith(LAYERING_SCOPE):
            continue
        rel = path.relative_to(REPO).as_posix()
        package = "repro." + rel_src.rpartition("/")[0].replace("/", ".")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            upper = next(
                (
                    name for name in _imported_modules(node, package)
                    if any(name == top or name.startswith(top + ".") for top in LAYERING_UPPER)
                ),
                None,
            )
            if upper is not None:
                findings.append(
                    Finding(
                        rel, node.lineno, "layering",
                        f"`{upper}` imported under {rel_src.split('/')[0]}/: a lower "
                        f"layer never reaches into the session or the service — "
                        f"move what both need down to it",
                        upper,
                    )
                )
    return findings

MEMORY_BUDGET_NAME = "memory_budget_bytes"
MEMORY_BUDGET_HOME = "session/session.py"
STACK_LIMIT = "stack_limit"
STACK_LIMIT_PARAMS = ("self", "backend_name", "machine", "num_qubits")
STACK_BUDGET_WORD = "stack_budget"


def check_one_memory_budget(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-memory-budget`` rule over the linted *files*."""
    findings: list[Finding] = []
    home_linted = limit_defined = False

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-memory-budget", message, symbol))

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        nonlocal limit_defined
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef) and node.name == STACK_LIMIT:
                limit_defined = True
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                for name in [a.arg for a in params if a is not None]:
                    if name in STACK_LIMIT_PARAMS:
                        continue
                    flag(
                        rel, node.lineno,
                        f"`{STACK_LIMIT}` takes `{name}`: the stack limit reads the "
                        f"session's own budget and takes no other",
                        f"{node.name}:{name}",
                    )
            stack = stack + [node.name]
        where = _enclosing(stack)
        named = None
        if isinstance(node, ast.Attribute):
            named = node.attr
        elif isinstance(node, ast.Name):
            named = node.id
        elif isinstance(node, ast.arg):
            named = node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = node.value
        if named == MEMORY_BUDGET_NAME and rel_src != MEMORY_BUDGET_HOME:
            flag(
                rel, node.lineno,
                f"`{MEMORY_BUDGET_NAME}` read in {where}: the budget is the "
                f"session's, and a job is priced by `Session.admission`",
                f"{where}:{MEMORY_BUDGET_NAME}",
            )
        spelled = node.arg if isinstance(node, ast.keyword) else named
        if spelled is not None and spelled.lstrip("_") == STACK_BUDGET_WORD:
            flag(
                rel, node.lineno,
                f"`{spelled}` in {where}: a second budget for a run's stacks; "
                f"`Session.stack_limit` reads the session's",
                f"{where}:{spelled}",
            )
        if isinstance(node, ast.Call) and _call_name(node) == STACK_LIMIT and (
            len(node.args) > len(STACK_LIMIT_PARAMS) - 1 or node.keywords
        ):
            flag(
                rel, node.lineno,
                f"`{STACK_LIMIT}` called with a budget in {where}: it reads the "
                f"session's own",
                f"{where}:{STACK_LIMIT}",
            )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        if SRC not in path.parents:
            continue
        rel_src = _rel_src(path)
        home_linted |= rel_src == MEMORY_BUDGET_HOME
        visit(
            ast.parse(path.read_text(), filename=str(path)), [],
            path.relative_to(REPO).as_posix(), rel_src,
        )
    if home_linted and not limit_defined:
        flag(
            f"src/repro/{MEMORY_BUDGET_HOME}", 1,
            f"no `{STACK_LIMIT}` defined: the rule lost its site",
            f"{STACK_LIMIT}:missing",
        )
    return findings


INSULARITY_HOME = "circuits/gates.py"
INSULARITY_CLASSIFIER = "axes_of"
PATTERN_UNPACK = "unpackbits"
MIXING_KIND = "mixing"


def _names_mixing(node: ast.AST) -> bool:
    """Whether a comparison operand is the ``"mixing"`` literal, or a
    tuple, list or set of literals holding it."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_mixing(element) for element in node.elts)
    return isinstance(node, ast.Constant) and node.value == MIXING_KIND


def check_one_insularity_rule(files: list[Path]) -> list[Finding]:
    """The cross-file ``one-insularity-rule`` rule over the linted *files*."""
    findings: list[Finding] = []

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-insularity-rule", message, symbol))

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = stack + [node.name]
        where = _enclosing(stack)
        if isinstance(node, ast.Call) and _call_name(node) == PATTERN_UNPACK:
            flag(
                rel, node.lineno,
                f"`{PATTERN_UNPACK}` in {where}: a gate's pattern is read by "
                f"`{INSULARITY_HOME}::{INSULARITY_CLASSIFIER}` and nowhere else",
                f"{where}:{PATTERN_UNPACK}",
            )
        if isinstance(node, ast.Compare) and any(
            _names_mixing(operand) for operand in [node.left, *node.comparators]
        ):
            flag(
                rel, node.lineno,
                f"{MIXING_KIND!r} compared in {where}: whether a gate mixes an "
                f"axis is `{INSULARITY_CLASSIFIER}`'s answer — check the staging "
                f"invariant through `stray_qubits`",
                f"{where}:{MIXING_KIND}",
            )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        if SRC not in path.parents:
            continue
        rel_src = _rel_src(path)
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        if rel_src != INSULARITY_HOME:
            visit(tree, [], rel, rel_src)
        elif not any(
            isinstance(node, ast.FunctionDef) and node.name == INSULARITY_CLASSIFIER
            for node in tree.body
        ):
            flag(
                rel, 0,
                f"no `{INSULARITY_CLASSIFIER}` in {INSULARITY_HOME}: the "
                f"classification moved without this rule following it",
                f"{INSULARITY_CLASSIFIER}:missing",
            )
    return findings


def check_file(path: Path) -> list[Finding]:
    rel = path.relative_to(REPO).as_posix()
    rel_src = _rel_src(path)
    try:
        source = path.read_text()
    except OSError as exc:  # pragma: no cover - unreadable file
        return [Finding(rel, 0, "io", f"unreadable: {exc}", "io")]
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))

    findings: list[Finding] = []
    in_scope_raise = any(
        rel_src == scope or rel_src.startswith(scope) for scope in BARE_RAISE_SCOPE
    )
    is_hot_file = rel_src in HOT_ALLOC_FILES

    func_stack: list[str] = []
    #: Parallel stack: whether each enclosing function is a class method.
    #: ``CompiledProgram.run`` (the documented one-allocation public API)
    #: is a method; the hot-alloc rule targets only the nested per-op
    #: ``run`` closures.
    method_stack: list[bool] = []

    def visit(node: ast.AST, parent: ast.AST | None = None) -> None:
        pushed = False
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func_stack.append(node.name)
            method_stack.append(isinstance(parent, ast.ClassDef))
            pushed = True

        if in_scope_raise and isinstance(node, ast.Raise) and node.exc is not None:
            call = node.exc
            name = None
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                name = call.func.id
            elif isinstance(call, ast.Name):
                name = call.id
            if name in BARE_RAISE_BUILTINS and not _has_pragma(lines, node):
                where = _enclosing(func_stack)
                findings.append(
                    Finding(
                        rel, node.lineno, "bare-raise",
                        f"bare `raise {name}` in {where}: use a typed error "
                        f"from repro.errors (or mark a genuine user "
                        f"configuration error with `# {PRAGMA}`)",
                        f"{where}:{name}",
                    )
                )

        if is_hot_file and isinstance(node, ast.Call):
            hot = any(
                f in HOT_CLOSURES and not is_method
                for f, is_method in zip(func_stack, method_stack)
            )
            if hot:
                alloc = None
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "np"
                    and f.attr in HOT_ALLOC_CALLS
                ):
                    alloc = f"np.{f.attr}"
                elif isinstance(f, ast.Name) and f.id in HOT_ALLOC_NAMES:
                    alloc = f.id
                if alloc is not None:
                    where = _enclosing(func_stack)
                    findings.append(
                        Finding(
                            rel, node.lineno, "hot-alloc",
                            f"allocation `{alloc}` inside hot closure "
                            f"{where}: per-op execution must be "
                            f"allocation-free — borrow from the Workspace",
                            f"{where}:{alloc}",
                        )
                    )

        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "time"
                and isinstance(f.value, ast.Name)
                and f.value.id == "time"
            ):
                where = _enclosing(func_stack)
                findings.append(
                    Finding(
                        rel, node.lineno, "monotonic-time",
                        f"`time.time()` in {where}: use time.monotonic() or "
                        f"time.perf_counter() (Deadline requires a "
                        f"monotonic clock)",
                        f"{where}:time.time",
                    )
                )

        for child in ast.iter_child_nodes(node):
            visit(child, node)
        if pushed:
            func_stack.pop()
            method_stack.pop()

    visit(tree)
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=REPO / "tools" / "lint_baseline.json",
        help="JSON list of accepted finding keys",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    args = parser.parse_args(argv)

    roots = args.paths or [SRC]
    files: list[Path] = []
    for root in roots:
        root = root.resolve()
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)

    findings: list[Finding] = []
    for path in files:
        findings.extend(check_file(path))
    findings.extend(check_one_stage_loop(files))
    findings.extend(check_one_kernel_lowering(files))
    findings.extend(check_one_segment_compiler(files))
    findings.extend(check_one_kernel_set(files))
    findings.extend(check_one_op_body(files))
    findings.extend(check_one_float_expression(files))
    findings.extend(check_one_native_loader(files))
    findings.extend(check_one_planning_surface(files))
    findings.extend(check_one_pipeline_signature(files))
    findings.extend(check_one_staging_bound(files))
    findings.extend(check_one_staging_cost(files))
    findings.extend(check_one_staging_path(files))
    findings.extend(check_kernelizer_oracle(files))
    findings.extend(check_bench_host_free())
    findings.extend(check_one_layout_move(files))
    findings.extend(check_one_pass_per_stage(files))
    findings.extend(check_one_gate_table(files))
    findings.extend(check_one_gate_shape(files))
    findings.extend(check_one_bind_path(files))
    findings.extend(check_one_admit_path(files))
    findings.extend(check_one_memory_budget(files))
    findings.extend(check_one_insularity_rule(files))
    findings.extend(check_layering(files))
    findings.extend(check_exact_persisted_formats(files))

    if args.write_baseline:
        args.baseline.write_text(
            json.dumps(sorted(f.key for f in findings), indent=2) + "\n"
        )
        print(f"wrote {len(findings)} finding key(s) to {args.baseline}")
        return 0

    baseline: set[str] = set()
    if args.baseline.exists():
        baseline = set(json.loads(args.baseline.read_text()))

    fresh = [f for f in findings if f.key not in baseline]
    for finding in fresh:
        print(finding)
    suppressed = len(findings) - len(fresh)
    status = "clean" if not fresh else f"{len(fresh)} finding(s)"
    print(
        f"lint_repro: {status} across {len(files)} file(s)"
        + (f" ({suppressed} baselined)" if suppressed else "")
    )
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
