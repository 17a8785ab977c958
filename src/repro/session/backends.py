"""Pluggable execution backends — every executor behind one protocol.

The repository grew four ways to run a plan (:func:`repro.runtime.execute_plan`,
:func:`repro.runtime.execute_plan_offloaded`,
:class:`repro.runtime.ParallelRuntime`, and the gate-by-gate reference), plus
the modelled baseline simulators in :mod:`repro.baselines`.  Each is wrapped
in an :class:`ExecutionBackend` adapter exposing one ``run_plan`` protocol so
the :class:`repro.session.Session` facade (and tests, and benchmarks) can
treat them uniformly:

=============  ==============================================================
``reference``  gate-by-gate on the full state; the correctness oracle
``incore``     single-stream staged executor (ping-pong buffers, fused kernels)
``offload``    sequential DRAM shard streaming (Section VII-C)
``parallel``   multi-worker shard scheduler with prefetch (PR 2's runtime)
``hyquas`` / ``cuquantum`` / ``qiskit``
               modelled baseline strategies: plans from the baseline's own
               partitioner, functional execution for correctness, timings
               scaled by the baseline's overhead factors
=============  ==============================================================

``"auto"`` is not a backend but a selection rule, resolved per job by
:func:`select_auto_backend`: **"incore" when the state fits aggregate GPU
device memory** (``machine.fits_in_gpus``), **"parallel" otherwise** (the
state must stream through the devices shard by shard, which is exactly what
the parallel runtime pipelines).

Backends are registered in :data:`BACKENDS` by factory so each Session owns
private instances (the parallel backend holds worker pools and device
buffers that must not be shared between sessions).  Register custom
backends with :func:`register_backend`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..baselines import SIMULATORS, BaselineSimulator
from ..circuits.circuit import Circuit
from ..cluster.costmodel import CostModel
from ..cluster.machine import MachineConfig
from ..core.plan import ExecutionPlan
from ..errors import (
    Deadline,
    KernelError,
    PlanValidationError,
    RetryPolicy,
    TransientError,
)
from ..runtime import faults
from ..runtime.checkpoint import CheckpointConfig
from ..runtime.executor import execute_plan, trace_for_program
from ..runtime.offload import execute_plan_offloaded
from ..runtime.parallel import ParallelRuntime
from ..runtime.timeline import TimingBreakdown, model_simulation_time
from ..sim.statevector import StateVector
from .cache import freeze_config

__all__ = [
    "BACKENDS",
    "BaselineBackend",
    "ExecutionBackend",
    "InCoreBackend",
    "OffloadBackend",
    "ParallelBackend",
    "ReferenceBackend",
    "available_backends",
    "make_backend",
    "register_backend",
    "select_auto_backend",
]


class ExecutionBackend:
    """One executor behind the ``run_plan`` protocol.

    Subclasses implement :meth:`run_plan`; everything else has working
    defaults.  A backend instance may own heavyweight state (worker pools,
    device buffers) — it belongs to one Session and is released by
    :meth:`close`.
    """

    #: Registry name; set per subclass/instance.
    name: str = "backend"

    #: Whether the Session should lower plans for this backend, keep the
    #: result in its plan cache and pass each job's through
    #: ``program=``/``programs=``: a
    #: :class:`~repro.sim.program.CompiledProgram` stream, or for the
    #: sharded backends a :class:`~repro.runtime.offload.Schedule`.
    uses_programs: bool = False

    #: Which of the two: ``"program"`` or ``"schedule"``.  The Session
    #: lowers, rebinds and caches by this kind and by nothing else — a
    #: subclass registered under any name gets the kind it runs.
    program_kind: str = "program"

    #: Whether :meth:`run_plan` takes the durability kwargs
    #: (``checkpoint=`` / ``resume_from=`` / ``monitor=``).  Only the shard
    #: executors have stage boundaries to snapshot; :meth:`run_batch`
    #: drops the three for the backends without.
    supports_checkpoints: bool = False

    def run_plan(
        self,
        plan: ExecutionPlan,
        machine: MachineConfig,
        initial_state: StateVector | None = None,
        circuit: Circuit | None = None,
        program=None,
        deadline: Deadline | None = None,
    ) -> tuple[StateVector, object]:
        """Execute *plan* and return ``(final_state, execution_stats)``.

        ``circuit`` is the source circuit (used by backends that do not
        replay the staged plan, e.g. the reference oracle); ``program`` is
        what the Session lowered the plan to for backends with
        ``uses_programs`` (a compiled op stream, or a shard schedule);
        ``deadline`` is the job's cooperative cancellation budget.
        """
        raise NotImplementedError

    def run_batch(
        self,
        items: Sequence[tuple[ExecutionPlan, StateVector | None, Circuit | None]],
        machine: MachineConfig,
        *,
        programs: Sequence,
        deadline: Deadline,
        checkpoint,
        resume_from,
        monitor,
    ) -> list[tuple[StateVector, object]]:
        """Execute many ``(plan, initial_state, circuit)`` problems in order.

        The one batch signature: the Session passes every keyword on every
        call (``programs[i]`` is ``None`` where nothing was compiled, an
        unbounded ``deadline`` never expires), and an override takes them
        all — a backend without stage boundaries ignores ``checkpoint`` /
        ``resume_from`` / ``monitor``.  The default runs the items back to
        back through :meth:`run_plan`; backends with shared runtime state
        (worker pools, buffers, compiled programs) override it to amortise
        that state.
        """
        out = []
        for i, ((plan, state, circuit), program) in enumerate(zip(items, programs)):
            deadline.check("batch item")
            durable = {}
            if self.supports_checkpoints:
                durable = dict(
                    checkpoint=CheckpointConfig.for_item(checkpoint, i, len(items)),
                    resume_from=resume_from, monitor=monitor,
                )
            out.append(
                self.run_plan(
                    plan, machine, initial_state=state, circuit=circuit,
                    program=program, deadline=deadline, **durable,
                )
            )
        return out

    def recovery_counters(self) -> dict:
        """Cumulative recovery accounting over this backend's lifetime.

        Aggregated into ``SessionStats`` after every job; subclasses with
        richer runtimes (the parallel backend's per-runtime counters)
        override it.  Counters live as plain instance attributes so the
        base class needs no ``__init__`` cooperation from subclasses.
        """
        return {
            "retries": getattr(self, "retries", 0),
            "fallbacks": getattr(self, "fallbacks", 0),
            "quarantined_workers": getattr(self, "quarantined_workers", 0),
        }

    def timing(
        self, plan: ExecutionPlan, machine: MachineConfig, cost_model: CostModel
    ) -> TimingBreakdown:
        """Modelled wall-clock time of *plan* on the target cluster."""
        return model_simulation_time(plan, machine, cost_model)

    def planner_key(self) -> tuple | None:
        """Adapter hook: the backend's own planner identity, or ``None``.

        ``None`` (all the Atlas-pipeline backends) means the Session's
        pipeline signature and cost model key the plan cache; a backend with
        its own partitioner (the modelled baselines) returns a stable tuple
        instead, so its plans are cached separately.
        """
        return None

    def make_plan(
        self, circuit: Circuit, machine: MachineConfig
    ) -> ExecutionPlan | None:
        """Adapter hook: build a plan with the backend's own partitioner.

        Returning ``None`` (the default) asks the Session to plan through
        its Atlas pipeline; only called on plan-cache misses.
        """
        return None

    def close(self) -> None:
        """Release backend-owned resources (pools, buffers)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ReferenceBackend(ExecutionBackend):
    """Gate-by-gate execution on the full state — the correctness oracle.

    Runs the *circuit* (when provided) in its original gate order, making
    the result bit-identical with :func:`repro.sim.simulate_reference`;
    falls back to the plan's (topologically equivalent) gate order when
    only a plan exists.
    """

    name = "reference"

    def run_plan(self, plan, machine, initial_state=None, circuit=None, program=None, deadline=None):
        if deadline is not None:
            deadline.check("job")
        n = plan.num_qubits
        if initial_state is None:
            state = StateVector.zero_state(n)
        else:
            if initial_state.num_qubits != n:
                raise PlanValidationError("initial state size does not match plan")
            state = initial_state.copy()
        gates = circuit.gates if circuit is not None else plan.all_gates()
        state.apply_circuit(gates)
        return state, None


class InCoreBackend(ExecutionBackend):
    """Single-stream staged executor on in-memory buffers.

    Runs the compiled program the Session's plan cache carries (zero
    per-gate dispatch; the structural cache rebinds programs across a
    parameter sweep).  Batch items that share one program — a circuit
    fanned out over many initial states, a shots/observables sweep —
    execute as a single stacked ``(B, 2^n)`` pass through the same op
    closures, every row bit-identical to its own run (``big`` ops within
    their documented bound).
    """

    name = "incore"
    uses_programs = True

    def run_plan(self, plan, machine, initial_state=None, circuit=None, program=None, deadline=None):
        if deadline is not None:
            deadline.check("job")
        try:
            faults.check("kernel_apply")
            if program is not None:
                return program.run(initial_state), trace_for_program(program)
            return execute_plan(plan, initial_state=initial_state, machine=machine)
        except (KernelError, TransientError):
            # Compiled-program failure → the bit-exact per-gate interpreter.
            self.fallbacks = getattr(self, "fallbacks", 0) + 1
            return execute_plan(
                plan, initial_state=initial_state, machine=machine, compiled=False
            )

    def run_batch(self, items, machine, *, programs, deadline, checkpoint, resume_from, monitor):
        results: list[tuple[StateVector, object] | None] = [None] * len(items)
        index = 0
        while index < len(items):
            deadline.check("batch item")
            program = programs[index]
            span = index + 1
            while program is not None and span < len(items) and programs[span] is program:
                span += 1
            if span - index > 1:
                # One program, many initial states: a single (B, 2^n) pass.
                states = [state for _plan, state, _circuit in items[index:span]]
                try:
                    faults.check("kernel_apply")
                    for offset, final in enumerate(program.run_batched(states)):
                        results[index + offset] = (final, trace_for_program(program))
                except (KernelError, TransientError):
                    # Degrade the whole stacked pass to per-item interpreter
                    # runs; the batch stays bit-exact with the program path.
                    self.fallbacks = getattr(self, "fallbacks", 0) + 1
                    for offset, (plan, state, _circuit) in enumerate(items[index:span]):
                        results[index + offset] = execute_plan(
                            plan, initial_state=state, machine=machine,
                            compiled=False,
                        )
            else:
                plan, state, circuit = items[index]
                results[index] = self.run_plan(
                    plan, machine, initial_state=state, circuit=circuit,
                    program=program, deadline=deadline,
                )
            index = span
        return results


class OffloadBackend(ExecutionBackend):
    """Sequential DRAM shard-streaming executor (one load per stage per shard)."""

    name = "offload"
    uses_programs = True
    program_kind = "schedule"
    supports_checkpoints = True

    def run_plan(self, plan, machine, initial_state=None, circuit=None, program=None, deadline=None, checkpoint=None, resume_from=None, monitor=None):
        state, stats = execute_plan_offloaded(
            plan,
            machine,
            initial_state=initial_state,
            deadline=deadline,
            retry=getattr(self, "retry", None),
            checkpoint=checkpoint,
            resume_from=resume_from,
            monitor=monitor,
            schedule=program,
        )
        self.retries = getattr(self, "retries", 0) + stats.retries
        self.fallbacks = getattr(self, "fallbacks", 0) + stats.fallbacks
        return state, stats


class ParallelBackend(ExecutionBackend):
    """Parallel shard scheduler: worker pool and prefetch.

    Owns one long-lived :class:`ParallelRuntime` per machine configuration
    so repeated and batched jobs reuse pools, device buffers and DRAM
    scratch.
    """

    name = "parallel"
    uses_programs = True
    program_kind = "schedule"
    supports_checkpoints = True

    def __init__(self, num_workers: int | None = None, retry: RetryPolicy | None = None):
        self.num_workers = num_workers
        self.retry = retry
        self._runtimes: dict[object, ParallelRuntime] = {}

    def runtime_for(self, machine: MachineConfig) -> ParallelRuntime:
        key = freeze_config(machine)
        runtime = self._runtimes.get(key)
        if runtime is None:
            runtime = self._runtimes[key] = ParallelRuntime(
                machine,
                num_workers=self.num_workers,
                retry=getattr(self, "retry", None),
            )
        return runtime

    def run_plan(self, plan, machine, initial_state=None, circuit=None, program=None, deadline=None, checkpoint=None, resume_from=None, monitor=None):
        return self.runtime_for(machine).execute(
            plan, initial_state, schedule=program, deadline=deadline,
            checkpoint=checkpoint, resume_from=resume_from, monitor=monitor,
        )

    #: The default loop — every item arrives with its own bound schedule, the
    #: runtime is shared through :meth:`runtime_for` — under this class's own
    #: name: ``benchmarks/perf/layers.py`` registers its ``session.execute``
    #: span site on each backend class that defines ``run_batch``.
    run_batch = ExecutionBackend.run_batch

    def exec_lock_counters(self) -> tuple[int, float]:
        """Summed ``(acquisitions, wait_seconds)`` of every owned runtime's
        exec lock — the pool-convoying signal the service watchdog reads."""
        acq = sum(r.exec_lock_acquisitions for r in self._runtimes.values())
        waited = sum(r.exec_lock_wait_seconds for r in self._runtimes.values())
        return acq, waited

    def recovery_counters(self) -> dict:
        return {
            "retries": sum(r.retries for r in self._runtimes.values()),
            "fallbacks": getattr(self, "fallbacks", 0)
            + sum(r.fallbacks for r in self._runtimes.values()),
            "quarantined_workers": sum(
                r.quarantined_workers for r in self._runtimes.values()
            ),
        }

    def close(self):
        for runtime in self._runtimes.values():
            runtime.close()
        self._runtimes.clear()


class BaselineBackend(ExecutionBackend):
    """A modelled baseline simulator as a session backend.

    Plans come from the baseline's *own* partitioning strategy
    (:meth:`make_plan`, cached by the Session under the baseline's planner
    key), functional execution goes through the staged executor so the
    baseline still computes the correct state, and :meth:`timing` scales
    the shared performance model by the baseline's kernel/communication
    overhead factors — exactly what the paper's Figure 5 curves measure.
    """

    def __init__(self, simulator: BaselineSimulator):
        self.simulator = simulator
        self.name = simulator.name

    def planner_key(self):
        return ("baseline", type(self.simulator).__name__, self.name)

    def make_plan(self, circuit, machine):
        return self.simulator.partition(circuit, machine)

    def run_plan(self, plan, machine, initial_state=None, circuit=None, program=None, deadline=None):
        if deadline is not None:
            deadline.check("job")
        # Baseline staging heuristics satisfy their own locality notion but
        # not necessarily Atlas's per-stage invariant; the functional check
        # is correctness of the final state, not the invariant.
        return execute_plan(
            plan, initial_state=initial_state, machine=machine, check_locality=False
        )

    def timing(self, plan, machine, cost_model):
        return model_simulation_time(
            plan,
            machine,
            cost_model=cost_model,
            kernel_overhead_factor=self.simulator.kernel_overhead_factor,
            comm_overhead_factor=self.simulator.comm_overhead_factor,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Backend factories by registry name.  Factories (not instances) so every
#: Session owns private backend state.
BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend *factory* under *name* (overwrites existing)."""
    BACKENDS[name] = factory


def make_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under *name*."""
    try:
        factory = BACKENDS[name]
    except KeyError as exc:
        raise ValueError(  # lint: config-error
            f"unknown backend {name!r}; known: {available_backends()}"
        ) from exc
    backend = factory()
    backend.name = name
    return backend


def available_backends() -> list[str]:
    """Sorted registry names (``"auto"`` is a selection rule, not listed)."""
    return sorted(BACKENDS)


def select_auto_backend(machine: MachineConfig, num_qubits: int) -> str:
    """The documented ``"auto"`` rule: state size vs. device memory.

    ``"incore"`` when the full state fits in aggregate GPU device memory
    (``machine.fits_in_gpus``); ``"parallel"`` when it does not, because an
    oversized state must stream through the devices shard by shard and the
    parallel runtime pipelines those loads.
    """
    return "incore" if machine.fits_in_gpus(num_qubits) else "parallel"


register_backend("reference", ReferenceBackend)
register_backend("incore", InCoreBackend)
register_backend("offload", OffloadBackend)
register_backend("parallel", ParallelBackend)
for _name in ("hyquas", "cuquantum", "qiskit"):
    register_backend(
        _name, lambda _cls=SIMULATORS[_name]: BaselineBackend(_cls())
    )
