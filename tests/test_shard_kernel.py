"""A shard runs its kernel (`runtime/compile.py::_KernelSlot`).

Hand-built plans put each kind of non-local axis inside one kernel: a
diagonal, a declared control on a dense target, a controlled permutation,
an anti-diagonal that relabels shards and a block over non-local qubits
only.  A shard binds the kernel the in-core program runs, with the
shard's bits resolved per variant, so the offload run, the parallel run
(W = 1, 2) and the in-core run are ``np.array_equal`` — on the native body
and on the item loop — and every shard is stored where its gates'
non-local axes send it.
"""

import numpy as np
import pytest

from repro import MachineConfig
from repro.circuits import Circuit, make_gate
from repro.runtime import ParallelRuntime, execute_plan, execute_plan_offloaded
from repro.runtime.offload import build_schedule
from repro.runtime.sharding import nonlocal_axes, shard_out_index
from repro.sim import StateVector, simulate_reference

from test_admit import body  # noqa: F401  (each kernel body in turn)
from test_property_based import _chunked_plan

N, LOCAL = 7, 4
#: A permuted layout: logical qubits 2, 0, 6, 3 at the local positions,
#: 5 and 1 regional, 4 global — so 5, 1 and 4 are the non-local ones.
SETS = ((2, 0, 6, 3), (5, 1), (4,))
A, B, C, D = SETS[0]
F, G, H = (*SETS[1], *SETS[2])


def _g(name, qubits, *params):
    return make_gate(name, list(qubits), list(params))


#: Per case a kernel's gates (a controlled gate lists its controls last).
CASES = {
    "diagonal": [
        _g("h", [A]), _g("h", [B]), _g("cp", [A, F], 0.7), _g("rzz", [B, G], 0.4),
        _g("crz", [C, H], 2.1), _g("rz", [F], 1.3), _g("ry", [C], 0.5),
    ],
    "control-on-dense-target": [
        _g("h", [A]), _g("cry", [A, F], 0.9), _g("ch", [B, G]), _g("ry", [C], 0.3),
        _g("cry", [D, H], 1.9), _g("rx", [B], 0.8),
    ],
    "controlled-permutation": [
        _g("h", [A]), _g("h", [B]), _g("cx", [A, F]), _g("ccx", [B, G, H]),
        _g("cp", [A, B], 0.6), _g("ccx", [C, A, G]),
    ],
    "anti-diagonal-relabel": [
        _g("h", [A]), _g("x", [F]), _g("cp", [A, F], 1.1), _g("x", [H]),
        _g("cry", [B, H], 0.7), _g("y", [G]), _g("ry", [D], 0.2),
    ],
    "block-over-non-local-qubits": [
        _g("h", [A]), _g("cp", [F, G], 1.7), _g("rz", [H], 0.4), _g("cz", [G, H]),
        _g("cp", [A, B], 0.3), _g("rzz", [F, H], 2.3),
    ],
}
CASES["every-kind"] = [gate for gates in CASES.values() for gate in gates]


def _write_map(gates, l2p):
    """Where each shard is stored: its index threaded through every gate's
    non-local axes, gate by gate."""
    out = []
    for shard in range(1 << (N - LOCAL)):
        for gate in gates:
            shard = shard_out_index(nonlocal_axes(gate, l2p, LOCAL), shard)
        out.append(shard)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kernels", [1, 2])
def test_sharded_runs_equal_the_in_core_run(case, kernels, body):
    gates = CASES[case]
    cut = len(gates) // 2
    chunks = [(0, len(gates))] if kernels == 1 else [(0, cut), (cut, len(gates))]
    plan = _chunked_plan(N, gates, SETS, chunks, True)
    machine = MachineConfig.for_circuit(N, local_qubits=LOCAL)
    schedule = build_schedule(plan, LOCAL)
    ((l2p, segment),) = schedule.stages
    assert any(isinstance(entry, tuple) for entry in segment.ops)
    assert segment.ops.write_map == _write_map(gates, l2p)
    init = StateVector.random_state(N, seed=len(gates))
    want = execute_plan(plan, init)[0].data
    assert simulate_reference(Circuit(N, gates), init).allclose(StateVector(N, want))
    assert np.array_equal(execute_plan_offloaded(plan, machine, init, schedule=schedule)[0].data, want)
    for workers in (1, 2):
        with ParallelRuntime(machine, num_workers=workers) as runtime:
            assert np.array_equal(runtime.execute(plan, init, schedule=schedule)[0].data, want)


def test_a_shard_runs_one_op_per_kernel():
    """Every shard runs one op per kernel it has work in — the gates on
    non-local qubits inside it — and none where the kernel only relabels
    it (``x`` on a non-local qubit) or its control is 0."""
    gates = [
        _g("h", [A]), _g("cp", [A, F], 0.7), _g("x", [F]),  # work on every shard
        _g("cry", [B, G], 0.9),  # work where G (index bit 1) is 1
        _g("x", [H]),  # a relabel only
    ]
    plan = _chunked_plan(N, gates, SETS, [(0, 3), (3, 4), (4, 5)], True)
    ((_l2p, segment),) = build_schedule(plan, LOCAL).stages
    shards = range(1 << (N - LOCAL))
    assert [len(stream) for stream, _out in segment.ops.shards] == [1 + ((s >> 1) & 1) for s in shards]
    assert {op.kind for stream, _out in segment.ops.shards for op in stream} == {"sm"}
    assert segment.ops.write_map == [s ^ 0b101 for s in shards]
