#!/usr/bin/env python
"""Project-specific AST lint: rules the generic linters cannot express.

Fourteen rules, each enforcing an invariant the execution layer depends on
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
    them — exists only inside the two kernel lowerings of
    ``sim/fusion.py``, each a structure builder plus its numeric fill:
    ``kernel_lowering`` / ``fill_lowered_item`` (shared-memory kernels;
    ``lower_kernel_gates`` is their memoized front door) and
    ``kernel_fusion`` / ``fill_fused_unitary`` (fusion kernels) — the four
    the plan compiler's slots, and through them ``compile_segment_ops``,
    call; the dynamic per-shard path ``_gate_on_shard`` resolves one gate
    per call and is the only other place a gate matrix is applied.  A second such loop is a
    gate-at-a-time executor growing back beside the lowering every
    executor and the verifier share; a missing one means the lowering
    moved without this rule following it.  Checked across files, whenever
    the linted set contains ``sim/fusion.py``.  Anywhere in the package, a
    call of ``lower_kernel_gates`` / ``kernel_lowering`` passes the stage
    layout: the dense fold pairs gates by physical position.

``one-segment-compiler``
    Under ``runtime/``, ``unitary_template`` / ``monomial_template`` /
    ``gate_step`` / ``kernel_lowering`` / ``kernel_fusion`` — the calls
    that turn gates into op templates — are made from
    ``runtime/compile.py`` and nowhere else: a shards-segment is compiled
    by the slots a plan is (``SegmentStructure``), so one of them called
    from ``runtime/offload.py`` or ``runtime/parallel.py`` is the second
    segment compiler growing back.  And the text ``schedule_key`` appears
    nowhere under ``src/``: a shard schedule lives in the Session plan
    cache and reaches the executors as ``schedule=``; a structure-name
    string threaded towards a runtime is the second cache's plumbing.
    Checked across files; ``runtime/compile.py`` making none of the calls
    means the compiler moved without this rule following it.

``one-kernel-set``
    Under ``sim/``, ``runtime/`` and ``analysis/`` there is one
    gate-application engine: the op templates of ``sim/apply.py``.
    ``_effective_kind`` (and ``_inplace_preferred``, should it come back)
    is called from ``unitary_template`` and nowhere else — that call is
    where a matrix classification and a position become a kernel; a
    comparison on a ``MatrixInfo``'s ``.kind`` (``info.kind``,
    ``….reduced_info.kind``) appears only in the analysis, the position
    refinement, ``unitary_template`` and the monomial-run classification
    of ``sim/fusion.py``; only ``_permutation_moves`` walks permutation
    cycles (a ``while`` loop stepping through ``perm[...]``); and
    ``threading.local()`` appears once under ``sim/`` — the thread
    workspace is the only per-thread buffer set.  Any of these growing a
    second site is the interpreter's own kernels, dispatch or scratch pool
    coming back beside the templates.  A shared-memory kernel reaches
    execution through one template, ``kernel_template``: it is called
    from ``runtime/compile.py`` (the kernel slot) and
    ``sim/fusion.py::apply_lowered_items`` (the interpreter, the
    un-kernelized and the uncompiled shard paths) and nowhere else, and
    the native library's entry point ``sm_apply`` is named nowhere but
    inside it — a second caller of either is a second way for a kernel to
    run.  Checked across files, whenever the linted set contains
    ``sim/apply.py``.

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
    under ``bind``, the native tile pass, and under ``item_loop``, the
    loop over the items' own op bodies, which is the native body's oracle
    in the tests and its only fallback.  A third is a third body; nothing
    but the host and the input selects between the two.

``one-native-loader``
    ``ctypes`` / ``cffi`` / ``subprocess`` are imported, and ``CDLL`` is
    named, in exactly one module under ``src/``: ``sim/native.py``, which
    builds, caches and loads the kernel library.  That module reads no
    environment variable (no ``environ``, no ``getenv``): nothing but the
    host — a compiler on ``PATH``, a writable cache — decides whether the
    native body runs.  And no ``.so`` / ``.o`` file is tracked by git: the
    library is built on first use, never shipped.

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

``interpreter-call-sites``
    ``compiled=False`` — the per-gate interpreter — is passed only in
    ``session/backends.py``, where it is the bit-exact degradation target
    of a failed compiled program.  It stays the named oracle (tests and
    benchmarks call it freely); any other caller under ``src/repro`` is a
    second executor tier growing back.

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

``kernelizer-oracle``
    Under ``src/repro`` the reference DP ``kernelize`` is named in two
    places outside its own module: ``core/__init__.py`` re-exports it and
    ``planner/passes.py`` imports it for the ``"atlas-ref"`` entry of the
    ``KERNELIZERS`` registry.  Production plans through
    ``fast_kernelize``, which the differential tests hold to the same
    ordered kernels, types and costs; the reference is several times
    slower and exists to be audited against Algorithms 3/4 and compared
    against.  Any other reference is the slow DP becoming a production
    path unnoticed.

``bench-host-free``
    ``benchmarks/run_bench.py`` writes counts and ratios of two timings of
    one run, never a second: no string constant ending ``_seconds`` or
    ``_per_s`` is a key of a dict literal or a subscript there (what a host
    costs in seconds is ``benchmarks/perf``'s question, and an absolute
    time gated against a committed baseline flakes on a shared host).  And
    no function there calls ``permute_state`` — the mark of a stage loop: a
    copy of the seed executor kept beside the runtime's to race it is a
    third executor growing back.  Checked on every run.

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
import subprocess
import sys
from pathlib import Path

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
KERNEL_LOWERING_SITES = SHM_LOWERING_SITES + (
    "fill_lowered_item", "kernel_fusion", "fill_fused_unitary", "_gate_on_shard",
)

SEGMENT_COMPILER_SCOPE = "runtime/"
SEGMENT_COMPILER_HOME = "runtime/compile.py"
SEGMENT_COMPILER_CALLS = {
    "unitary_template", "monomial_template", "gate_step", "kernel_lowering",
    "kernel_fusion",
}
SCHEDULE_KEY_WORD = "schedule_key"

KERNEL_SET_SCOPE = ("sim/", "runtime/", "analysis/")
KERNEL_SET_HOME = "sim/apply.py"
#: The functions that refine a classification by position, and the one
#: function allowed to call them.
KERNEL_CHOICE_FUNCS = ("_effective_kind", "_inplace_preferred")
KERNEL_CHOICE_CALLER = "unitary_template"
#: Names a ``MatrixInfo`` goes by where its ``.kind`` is compared, and the
#: functions licensed to compare it: the analysis that builds it, the
#: position refinement, the one template chooser, and the shared-memory
#: lowering's "is this gate monomial" classification.
MATRIX_INFO_NAMES = {"info", "reduced_info"}
MATRIX_KIND_SITES = {
    "_analyze_impl", "_effective_kind", "unitary_template",
    "kernel_lowering", "_absorb", "_only_permutes",
}
CYCLE_WALK_SITE = "_permutation_moves"
THREAD_LOCAL_SCOPE = "sim/"

#: The kernel template, the modules that may call it, and the native entry
#: point only it may name.
KERNEL_TEMPLATE = "kernel_template"
KERNEL_TEMPLATE_CALLERS = {"runtime/compile.py", "sim/fusion.py"}
NATIVE_ENTRY = "sm_apply"

OP_BODY_SCOPE = "sim/"
OP_BODY_TWIN = "run_batched"
OP_BODY_CLASS = "CompiledOp"
#: The kernel template's two bodies: the function each ``run`` is nested in.
KERNEL_BODIES = {"bind": "native", "item_loop": "item loop"}

NATIVE_LOADER_HOME = "sim/native.py"
NATIVE_LOADER_MODULES = {"ctypes", "cffi", "subprocess"}
NATIVE_LOADER_NAME = "CDLL"
NATIVE_ENV_WORDS = ("environ", "getenv")
NATIVE_ARTIFACT_SUFFIXES = ("*.so", "*.o")

PLANNING_SURFACE_SCOPE = ("session/", "service/")
PLANNING_SURFACE_NAME = "legacy_pipeline"
PLANNING_SURFACE_KEYWORDS = {"stager", "kernelizer"}

INTERPRETER_HOME = "session/backends.py"

STAGING_BOUND_WORDS = ("min_stages", "lower_bound_start")
STAGING_HOME = "core/stage.py"
STAGING_SOLVER_SEAM = "solve"
#: Ways past the seam: the backends behind ``repro.ilp.solve``.
STAGING_SOLVER_BYPASSES = {
    "solve_with_scipy", "solve_with_branch_and_bound", "milp", "linprog", "BACKENDS",
}

KERNELIZER_ORACLE = "kernelize"
KERNELIZER_ORACLE_HOME = "core/kernelize.py"
KERNELIZER_ORACLE_REEXPORT = "core/__init__.py"
KERNELIZER_REGISTRY_HOME = "planner/passes.py"
KERNELIZER_REGISTRY_KEY = "atlas-ref"


BENCH_HOST_FREE_FILE = "benchmarks/run_bench.py"
BENCH_TIMING_SUFFIXES = ("_seconds", "_per_s")
BENCH_STAGE_LOOP_MARK = "permute_state"


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
                    lowering_seen = lowering_seen or any(
                        name in SHM_LOWERING_SITES for name in stack
                    )
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
                "no gate loop inside `lower_kernel_gates`: the shared-memory "
                "kernel lowering moved without this rule following it",
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
        if not rel_src.startswith(SEGMENT_COMPILER_SCOPE):
            continue
        calls = [
            node for node in ast.walk(ast.parse(source, filename=str(path)))
            if isinstance(node, ast.Call) and _call_name(node) in SEGMENT_COMPILER_CALLS
        ]
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
                    f"shards-segments compile through its slots "
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
    choice_calls = {name: 0 for name in KERNEL_CHOICE_FUNCS}
    thread_locals: list[tuple[str, int]] = []
    home_linted = False

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-kernel-set", message, symbol))

    def visit(node: ast.AST, stack: list[str], rel: str, rel_src: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + [node.name]
        where = _enclosing(stack)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in choice_calls:
                choice_calls[name] += 1
                if KERNEL_CHOICE_CALLER not in stack:
                    flag(
                        rel, node.lineno,
                        f"`{name}` called in {where}: a classification and a "
                        f"position become a kernel in sim/apply.py::"
                        f"{KERNEL_CHOICE_CALLER} and nowhere else — bind its "
                        f"template instead of dispatching again",
                        f"{where}:{name}",
                    )
            if name == KERNEL_TEMPLATE and rel_src not in KERNEL_TEMPLATE_CALLERS:
                flag(
                    rel, node.lineno,
                    f"`{KERNEL_TEMPLATE}` called in {where}: a shared-memory "
                    f"kernel reaches execution through the compiler's kernel "
                    f"slot and sim/fusion.py::apply_lowered_items only",
                    f"{where}:{KERNEL_TEMPLATE}",
                )
            f = node.func
            if (
                rel_src.startswith(THREAD_LOCAL_SCOPE)
                and isinstance(f, ast.Attribute) and f.attr == "local"
                and isinstance(f.value, ast.Name) and f.value.id == "threading"
            ):
                thread_locals.append((rel, node.lineno))
        if (
            isinstance(node, ast.Attribute) and node.attr == NATIVE_ENTRY
            and not (rel_src == KERNEL_SET_HOME and KERNEL_TEMPLATE in stack)
            and rel_src != NATIVE_LOADER_HOME  # declares its signature
        ):
            flag(
                rel, node.lineno,
                f"`{NATIVE_ENTRY}` named in {where}: the native body is bound "
                f"in sim/apply.py::{KERNEL_TEMPLATE} and nowhere else",
                f"{where}:{NATIVE_ENTRY}",
            )
        if isinstance(node, ast.Compare) and not MATRIX_KIND_SITES.intersection(stack):
            if any(_names_matrix_info(side) for side in [node.left, *node.comparators]):
                flag(
                    rel, node.lineno,
                    f"comparison on a MatrixInfo's `.kind` in {where}: kernels "
                    f"are chosen by the template builders of sim/apply.py, "
                    f"not per call site",
                    f"{where}:kind",
                )
        if isinstance(node, ast.While) and CYCLE_WALK_SITE not in stack:
            walks = any(
                isinstance(inner, ast.Subscript)
                and isinstance(inner.value, ast.Name) and inner.value.id == "perm"
                for inner in ast.walk(node)
            )
            if walks:
                flag(
                    rel, node.lineno,
                    f"permutation cycle walk in {where}: cycles are lowered "
                    f"to moves once, in sim/apply.py::{CYCLE_WALK_SITE}",
                    f"{where}:cycles",
                )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, rel, rel_src)

    for path in files:
        rel_src = _rel_src(path)
        if SRC not in path.parents or not rel_src.startswith(KERNEL_SET_SCOPE):
            continue
        home_linted = home_linted or rel_src == KERNEL_SET_HOME
        visit(
            ast.parse(path.read_text(), filename=str(path)), [],
            path.relative_to(REPO).as_posix(), rel_src,
        )
    if not home_linted:
        return findings
    if choice_calls[KERNEL_CHOICE_FUNCS[0]] == 0:
        flag(
            f"src/repro/{KERNEL_SET_HOME}", 0,
            f"no call to `{KERNEL_CHOICE_FUNCS[0]}`: the kernel choice moved "
            f"without this rule following it",
            f"{KERNEL_CHOICE_FUNCS[0]}:missing",
        )
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


def check_one_native_loader(files: list[Path]) -> list[Finding]:
    """The ``one-native-loader`` rule over the linted *files*."""
    findings: list[Finding] = []

    def flag(rel: str, line: int, message: str, symbol: str) -> None:
        findings.append(Finding(rel, line, "one-native-loader", message, symbol))

    for path in files:
        if SRC not in path.parents:
            continue
        rel, rel_src = path.relative_to(REPO).as_posix(), _rel_src(path)
        source = path.read_text()
        home = rel_src == NATIVE_LOADER_HOME
        for node in ast.walk(ast.parse(source, filename=str(path))):
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


def check_interpreter_call_sites(files: list[Path]) -> list[Finding]:
    """The ``interpreter-call-sites`` rule over the linted *files*."""
    findings = []
    for path in files:
        if _rel_src(path) == INTERPRETER_HOME or SRC not in path.parents:
            continue
        rel = path.relative_to(REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if (
                    kw.arg == "compiled"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                ):
                    findings.append(
                        Finding(
                            rel, node.lineno, "interpreter-call-sites",
                            f"`compiled=False` outside {INTERPRETER_HOME}: the "
                            f"per-gate interpreter is the backends' degradation "
                            f"target and the tests' oracle, not an executor tier",
                            "compiled=False",
                        )
                    )
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
                        f"and costs, several times faster",
                        KERNELIZER_ORACLE,
                    )
                )
    return findings


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
    findings.extend(check_one_native_loader(files))
    findings.extend(check_one_planning_surface(files))
    findings.extend(check_interpreter_call_sites(files))
    findings.extend(check_one_staging_bound(files))
    findings.extend(check_kernelizer_oracle(files))
    findings.extend(check_bench_host_free())

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
