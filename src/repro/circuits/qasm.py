"""Minimal OpenQASM 2.0 reader / writer.

The MQT-Bench and NWQBench suites distribute circuits as OpenQASM 2.0
files.  This module implements the subset of OpenQASM 2.0 required to
round-trip all circuits produced by :mod:`repro.circuits.library`:

* a single quantum register (``qreg q[n];``),
* classical registers and ``measure``/``barrier`` statements (ignored on
  read, since state-vector simulation does not collapse the state),
* the standard-library gates listed in :data:`repro.circuits.gates.GATE_SPECS`,
* constant-folded parameter expressions built from ``pi``, numbers and the
  operators ``+ - * /`` and unary minus.

The writer emits targets/controls in the conventional OpenQASM ordering
(controls first), undoing the internal ``(targets..., controls...)``
ordering used by :class:`~repro.circuits.gates.Gate`.
"""

from __future__ import annotations

import ast
import math
import re
from functools import lru_cache
from itertools import chain
from typing import Iterable

from .circuit import Circuit
from .gates import GATE_SPECS, Gate, _NAME_QUBITS, _PARAMS

__all__ = ["to_qasm", "from_qasm", "QasmError"]


class QasmError(ValueError):
    """Raised when a QASM document cannot be parsed, or a circuit cannot be
    written as one."""


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

#: The ``±pi/2^k`` values the writer spells symbolically, keyed by their
#: ``repr``: ``repr`` is exact for floats, so only a value *equal* to one
#: of them is written as its symbol and every other one round-trips bits.
_PI_SYMBOLS = {
    repr(sign * math.pi / mult): sign_text + ("pi" if mult == 1 else f"pi/{mult}")
    for mult in (1, 2, 4, 8, 16)
    for sign, sign_text in ((1, ""), (-1, "-"))
}
#: What ``repr`` writes for the values QASM has no spelling for.
_NON_FINITE = frozenset({"nan", "inf", "-inf"})
#: Where a template is cut for a parameter (no gate name or qubit holds it).
_SLOT = "{}"


@lru_cache(maxsize=64)
def _template(
    num_qubits: int, sequence: tuple[tuple[str, tuple[int, ...]], ...]
) -> tuple[str, ...]:
    """The angle-free text of every circuit of one ``(name, qubits)``
    *sequence*: the header, each gate's name (``p`` spelled ``u1``) and
    its qubits with the controls first (the internal order is
    ``(targets..., controls...)``), cut at each parameter's slot — keyed by
    structure, so a sweep of new angles reuses one."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    for name, qubits in sequence:
        spec = GATE_SPECS[name]
        if spec.num_controls:
            qubits = qubits[-spec.num_controls:] + qubits[: -spec.num_controls]
        head = "u1" if name == "p" else name
        if spec.num_params:
            head += "(" + ",".join([_SLOT] * spec.num_params) + ")"
        lines.append(head + " " + ",".join([f"q[{q}]" for q in qubits]) + ";")
    return tuple(("\n".join(lines) + "\n").split(_SLOT))


def to_qasm(circuit: Circuit) -> str:
    """Serialise *circuit* to an OpenQASM 2.0 string.

    The text is its structure's template (built once per structure) with
    the angles filled in: a value equal to ``±pi/2^k`` (``k <= 4``) as that
    symbol, every other one as its ``repr``, so :func:`from_qasm` reads back
    the same bits.  Raises :class:`QasmError` on a non-finite angle, which
    the reader could not rebuild.
    """
    gates = circuit.gates
    pieces = _template(circuit.num_qubits, tuple(map(_NAME_QUBITS, gates)))
    angles = list(map(repr, map(float, chain.from_iterable(map(_PARAMS, gates)))))
    if not _NON_FINITE.isdisjoint(angles):
        raise QasmError(f"circuit {circuit.name!r} has a non-finite parameter")
    text = [""] * (2 * len(angles) + 1)
    text[0::2] = pieces
    text[1::2] = map(_PI_SYMBOLS.get, angles, angles)
    return "".join(text)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_STATEMENT_RE = re.compile(r"([^;]*);")
_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_CREG_RE = re.compile(r"creg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_GATE_RE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s*(.*)$")
_QUBIT_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]")

_ALIASES = {"u1": "p", "cu1": "cp", "cnot": "cx", "toffoli": "ccx", "id": "id", "u": "u3"}


def _eval_param(expr: str) -> float:
    """Constant-fold a QASM parameter expression (numbers, pi, + - * /)."""
    expr = expr.strip().replace("pi", repr(math.pi))
    try:
        node = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise QasmError(f"cannot parse parameter expression {expr!r}") from exc

    def ev(n):
        if isinstance(n, ast.Expression):
            return ev(n.body)
        if isinstance(n, ast.Constant) and isinstance(n.value, (int, float)):
            return float(n.value)
        if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            left, right = ev(n.left), ev(n.right)
            if isinstance(n.op, ast.Add):
                return left + right
            if isinstance(n.op, ast.Sub):
                return left - right
            if isinstance(n.op, ast.Mult):
                return left * right
            return left / right
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
            value = ev(n.operand)
            return -value if isinstance(n.op, ast.USub) else value
        raise QasmError(f"unsupported expression node in {expr!r}")

    return ev(node)


def from_qasm(text: str, name: str = "qasm_circuit") -> Circuit:
    """Parse an OpenQASM 2.0 document into a :class:`Circuit`."""
    # Strip comments.
    text = re.sub(r"//[^\n]*", "", text)
    statements = [s.strip() for s in _STATEMENT_RE.findall(text) if s.strip()]

    num_qubits = None
    qreg_name = "q"
    circuit: Circuit | None = None
    pending: list[tuple[str, list[float], list[int]]] = []

    for stmt in statements:
        low = stmt.lower()
        if low.startswith("openqasm") or low.startswith("include"):
            continue
        if low.startswith("qreg"):
            m = _QREG_RE.search(stmt)
            if not m:
                raise QasmError(f"malformed qreg statement: {stmt!r}")
            if num_qubits is not None:
                raise QasmError("multiple quantum registers are not supported")
            qreg_name, num_qubits = m.group(1), int(m.group(2))
            circuit = Circuit(num_qubits, name=name)
            for gname, params, qubits in pending:
                _append_gate(circuit, gname, params, qubits)
            pending.clear()
            continue
        if low.startswith("creg") or low.startswith("measure") or low.startswith("barrier"):
            continue
        if low.startswith("gate ") or low.startswith("if"):
            raise QasmError(f"unsupported QASM construct: {stmt.split()[0]!r}")

        m = _GATE_RE.match(stmt)
        if not m:
            raise QasmError(f"cannot parse statement: {stmt!r}")
        gate_name = m.group(1).lower()
        params = [_eval_param(p) for p in m.group(2).split(",")] if m.group(2) else []
        qubit_tokens = _QUBIT_RE.findall(m.group(3))
        if not qubit_tokens:
            raise QasmError(f"statement has no qubit operands: {stmt!r}")
        qubits = [int(idx) for reg, idx in qubit_tokens]

        if circuit is None:
            pending.append((gate_name, params, qubits))
        else:
            _append_gate(circuit, gate_name, params, qubits)

    if circuit is None:
        raise QasmError("no quantum register declared")
    return circuit


def _append_gate(circuit: Circuit, name: str, params: Iterable[float], qubits: list[int]) -> None:
    name = _ALIASES.get(name, name)
    if name not in GATE_SPECS:
        raise QasmError(f"unsupported gate {name!r}")
    spec = GATE_SPECS[name]
    if len(qubits) != spec.num_qubits:
        raise QasmError(
            f"gate {name!r} expects {spec.num_qubits} qubits, got {len(qubits)}"
        )
    # QASM lists controls first; internal order is (targets..., controls...).
    nc = spec.num_controls
    if nc:
        controls, targets = qubits[:nc], qubits[nc:]
        ordered = tuple(targets + controls)
    else:
        ordered = tuple(qubits)
    circuit.append(Gate(name, ordered, tuple(params)))
