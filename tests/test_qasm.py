"""Tests for the OpenQASM 2.0 reader/writer."""

import hashlib
import math

import pytest

from repro.circuits import Circuit, from_qasm, to_qasm
from repro.circuits.gates import GATE_SPECS, Gate
from repro.circuits.library import (
    CIRCUIT_FAMILIES, ae, ghz, ising, qft, qpeexact, qsvm, su2random, vqc,
)
from repro.circuits.qasm import QasmError, _template
from repro.sim import simulate_reference

#: Every ``±pi/2^k`` value the writer spells as a symbol.
PI_SYMBOLS = [sign * math.pi / mult for mult in (1, 2, 4, 8, 16) for sign in (1, -1)]


def every_gate_circuit() -> Circuit:
    """One gate of every name in ``GATE_SPECS`` on 4 qubits, its angles
    cycling through the exact ``±pi/2^k`` values."""
    circuit = Circuit(4, name="every_gate")
    slot = 0
    for i, (name, spec) in enumerate(GATE_SPECS.items()):
        qubits = tuple((i + j) % 4 for j in range(spec.num_qubits))
        params = tuple(PI_SYMBOLS[(slot + j) % len(PI_SYMBOLS)] for j in range(spec.num_params))
        slot += spec.num_params
        circuit.append(Gate(name, qubits, params))
    return circuit


#: SHA-256 of the writer's text, pinned from the per-gate writer the
#: template replaced: the template must write the same bytes.
GOLDEN_DIGESTS = {
    "qft": (lambda: qft(12), "7d68c935e6999f1d1c90b8e3c6c8c90ed739ac2b2bb654f1563c498e1a07a481"),
    "ising": (
        lambda: ising(12, seed=7),
        "8dd41878c450ea104cc3a9cd5a52effd1c9b1e8034156454f1bc3b9bc121959f",
    ),
    "qsvm": (
        lambda: qsvm(12, seed=7),
        "2c3029ca80bcceef82e19c2e5909fef114ea634c2179007a5ab1ea2137570443",
    ),
    "vqc": (
        lambda: vqc(12, seed=7),
        "2f7ccafa5d8741521e74cdf9df7859e81a05241507443ced89602bc4f5153347",
    ),
    "su2random": (
        lambda: su2random(12, seed=7),
        "b2c514be7535323d4dbb5fbf0b9bb7afbf904c0423a9229ed3eeef89e4cc5292",
    ),
    "ae": (lambda: ae(12), "ae21f3d2eece171c2cf97da4487dcf6a4126dff8a69b83822c803b12ea73c0c6"),
    "qpeexact": (
        lambda: qpeexact(12),
        "e728a49176de57d6f691fa1d3adb2cc419b217119647cf4077125575b33a9e13",
    ),
    "every_gate": (
        every_gate_circuit,
        "c77fd9509836d8bb0a8a99892fc5a5501b7c695284dec5119f2988647c121841",
    ),
}


class TestWriter:
    def test_header(self):
        text = to_qasm(Circuit(3).h(0))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[3];" in text

    def test_gate_lines(self):
        text = to_qasm(Circuit(2).h(0).cx(0, 1).rz(0.5, 1))
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text
        assert "rz(0.5) q[1];" in text

    def test_pi_formatting(self):
        text = to_qasm(Circuit(1).rz(math.pi / 2, 0))
        assert "pi/2" in text

    def test_p_gate_written_as_u1(self):
        text = to_qasm(Circuit(1).p(0.3, 0))
        assert "u1(0.3) q[0];" in text

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_golden_bytes(self, name):
        build, digest = GOLDEN_DIGESTS[name]
        assert hashlib.sha256(to_qasm(build()).encode()).hexdigest() == digest

    @pytest.mark.parametrize("value", PI_SYMBOLS)
    def test_exact_pi_fractions_written_as_symbols(self, value):
        text = to_qasm(Circuit(1).rz(value, 0))
        assert "pi" in text.splitlines()[-1]
        assert from_qasm(text)[0].params[0] == value

    @pytest.mark.parametrize(
        "value",
        [
            math.pi / 4 - 3e-13,
            math.nextafter(math.pi, 4),
            -math.pi / 16 + 1e-13,
            math.nextafter(-math.pi / 2, 0),
        ],
    )
    def test_values_near_pi_fractions_keep_their_bits(self, value):
        text = to_qasm(Circuit(1).rz(value, 0))
        assert text.splitlines()[-1] == f"rz({value!r}) q[0];"
        assert from_qasm(text)[0].params[0] == value

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_raises(self, value):
        with pytest.raises(QasmError, match="non-finite"):
            to_qasm(Circuit(2).h(0).cp(value, 0, 1))


class TestTemplate:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        _template.cache_clear()

    def test_one_structure_shares_one_template(self):
        a, b = vqc(6, seed=1), vqc(6, seed=2)
        text_a, text_b = to_qasm(a), to_qasm(b)
        info = _template.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert text_a != text_b
        assert from_qasm(text_a) == a and from_qasm(text_b) == b

    def test_relabelled_circuit_gets_its_own_template(self):
        circuit = qsvm(5, seed=3)
        relabelled = circuit.remap_qubits({q: (q + 1) % 5 for q in range(5)})
        to_qasm(circuit)
        text = to_qasm(relabelled)
        assert _template.cache_info().currsize == 2
        assert from_qasm(text) == relabelled

    def test_circuit_without_parameters_is_its_template(self):
        circuit = ghz(5)
        pieces = _template(5, tuple((g.name, g.qubits) for g in circuit))
        assert pieces == (to_qasm(circuit),)


class TestReader:
    def test_simple_parse(self):
        c = from_qasm(
            """
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            creg c[2];
            h q[0];
            cx q[0],q[1];
            measure q[0] -> c[0];
            """
        )
        assert c.num_qubits == 2
        assert len(c) == 2
        assert c[1].name == "cx"
        assert c[1].control_qubits == (0,)

    def test_comments_stripped(self):
        c = from_qasm("qreg q[1]; // comment\nh q[0]; // another")
        assert len(c) == 1

    def test_parameter_expressions(self):
        c = from_qasm("qreg q[1]; rz(pi/4) q[0]; rz(-pi) q[0]; rz(3*pi/2) q[0];")
        assert c[0].params[0] == pytest.approx(math.pi / 4)
        assert c[1].params[0] == pytest.approx(-math.pi)
        assert c[2].params[0] == pytest.approx(3 * math.pi / 2)

    def test_alias_cu1(self):
        c = from_qasm("qreg q[2]; cu1(0.5) q[0],q[1];")
        assert c[0].name == "cp"

    def test_barrier_ignored(self):
        c = from_qasm("qreg q[2]; h q[0]; barrier q[0],q[1]; h q[1];")
        assert len(c) == 2

    def test_missing_qreg_raises(self):
        with pytest.raises(QasmError, match="no quantum register"):
            from_qasm("h q[0];")

    def test_unknown_gate_raises(self):
        with pytest.raises(QasmError, match="unsupported gate"):
            from_qasm("qreg q[1]; magic q[0];")

    def test_wrong_arity_raises(self):
        with pytest.raises(QasmError, match="expects"):
            from_qasm("qreg q[2]; cx q[0];")

    def test_bad_parameter_raises(self):
        with pytest.raises(QasmError):
            from_qasm("qreg q[1]; rz(import) q[0];")

    def test_custom_gate_definition_rejected(self):
        with pytest.raises(QasmError, match="unsupported QASM construct"):
            from_qasm("qreg q[1]; gate foo a { h a; } foo q[0];")


class TestRoundTrip:
    @pytest.mark.parametrize("family", sorted(CIRCUIT_FAMILIES))
    def test_roundtrip_preserves_semantics(self, family):
        num_qubits = 6 if family != "hhl" else 5
        circuit = CIRCUIT_FAMILIES[family](num_qubits)
        parsed = from_qasm(to_qasm(circuit))
        assert parsed.num_qubits == circuit.num_qubits
        assert len(parsed) == len(circuit)
        original = simulate_reference(circuit)
        reparsed = simulate_reference(parsed)
        assert original.allclose(reparsed)

    def test_roundtrip_gate_identity(self):
        c = Circuit(3).h(0).cx(0, 1).ccx(0, 1, 2).swap(1, 2).rz(0.25, 0).cp(0.5, 2, 0)
        parsed = from_qasm(to_qasm(c))
        assert parsed == c
