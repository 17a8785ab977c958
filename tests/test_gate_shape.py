"""A cold job reads every gate's structure off its circuit's gate table.

The analyze pass, staging and the cost model read each gate's key pattern
and exact signature as the circuit's :class:`~repro.circuits.gates.GateTable`
hands them out (``GateTable.patterns``), and the kernel lowering reads each
gate's shape keyed on its name and exact signature
(``repro.sim.fusion._gate_shape``).  So with the per-gate derivations they
replaced — :func:`repro.sim.apply.analyze_matrix` and
``repro.circuits.gates._pattern_of`` — made to raise, a fresh ``Session``
still plans, compiles and runs every library family, and the in-core
pinned digests still hold, on the native body and on the item loop.  The
differential half (the table's shapes against ``analyze_matrix``) is in
``tests/test_gate_table.py``.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.circuits import gates as gates_mod
from repro.circuits.library import ae, ising, qft, qpeexact, qsvm, su2random, vqc
from repro.cluster import MachineConfig
from repro.core import partition
from repro.runtime import clear_program_cache, execute_plan
from repro.runtime.compile import compile_plan
from repro.session import Session
from repro.sim import StateVector, native, simulate_reference
from repro.sim import apply as apply_mod

from test_native_kernel import PINNED_DIGESTS, UNAVAILABLE, _random_states

FAMILIES = {
    "ae": ae, "qft": qft, "ising": ising, "qpeexact": qpeexact, "qsvm": qsvm,
    "su2random": su2random, "vqc": vqc,
}


@pytest.fixture(params=["native", "numpy"])
def engine(request, monkeypatch):
    """Each body in turn: the host's native one, and the loader forced
    "unavailable" — the item loop, which lowers through the same shapes."""
    if request.param == "native" and not native.status()["available"]:
        pytest.skip(f"no native body: {native.status()['reason']}")
    if request.param == "numpy":
        monkeypatch.setattr(native, "_STATE", UNAVAILABLE)
    clear_program_cache()
    yield request.param
    clear_program_cache()


@contextmanager
def table_only(monkeypatch):
    """The per-gate derivations the cold path no longer takes, made to
    raise for the block's duration."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a cold job re-derived a gate's structure gate by gate")

    with monkeypatch.context() as patch:
        patch.setattr(apply_mod, "analyze_matrix", refuse)
        patch.setattr(gates_mod, "_pattern_of", refuse)
        yield


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_cold_job_reads_the_table(family, n, engine, monkeypatch):
    """A fresh Session's plan and program, and an in-core ``compile_plan``
    of the same plan: neither call, and the two programs agree bit for bit
    with each other and with the reference (which analyses every gate, so
    runs outside the patch)."""
    circuit = FAMILIES[family](n)
    state = _random_states(n, 1, n)[0]
    with table_only(monkeypatch):
        with Session(MachineConfig.for_circuit(n, num_shards=4)) as session:
            plan, _report, hit, program = session.plan_for(circuit)
        assert not hit and program is not None
        again = compile_plan(plan)
        ours = program.run(state).data.copy()
        theirs = again.run(state).data.copy()
    assert [op.kind for op in again.ops] == [op.kind for op in program.ops]
    assert ours.tobytes() == theirs.tobytes()
    want = simulate_reference(circuit, StateVector(n, state)).data
    assert np.allclose(ours, want, atol=1e-10)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pinned_in_core_digests_read_the_table(family, engine, monkeypatch):
    """The in-core pins of ``tests/test_native_kernel.py``, from a plan
    built, compiled and run with neither call."""
    machine = MachineConfig.for_circuit(10, num_shards=4)
    init = StateVector(10, _random_states(10, 1, 2024)[0])
    with table_only(monkeypatch):
        plan = partition(FAMILIES[family](10), machine)[0]
        state = execute_plan(plan, init, machine=machine)[0]
    assert hashlib.sha256(state.data.tobytes()).hexdigest() == PINNED_DIGESTS[family]
