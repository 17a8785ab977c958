"""Circuit intermediate representation.

A :class:`Circuit` is an ordered sequence of :class:`~repro.circuits.gates.Gate`
objects over ``num_qubits`` logical qubits.  The staging and kernelization
algorithms treat the circuit as a gate sequence with a dependency relation
``E`` given by *adjacent gate pairs on the same qubit* (the paper's Section
IV notation), so this module also provides dependency-graph construction and
topological-equivalence checks used by the kernelizer's correctness tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import networkx as nx
import numpy as np

from .gates import Gate, cache_patterns, make_gate

__all__ = ["Circuit", "CircuitStats"]


@lru_cache(maxsize=4096)
def _gate_header(name: str, qubits: tuple[int, ...]) -> bytes:
    """The bytes :meth:`Circuit.structural_key` hashes per gate ahead of its
    pattern: separator, name, little-endian int32 qubits."""
    return b"|" + name.encode() + np.asarray(qubits, dtype=np.int32).tobytes()


@dataclass
class CircuitStats:
    """Summary statistics for a circuit."""

    num_qubits: int
    num_gates: int
    num_two_qubit_gates: int
    num_multi_qubit_gates: int
    depth: int

    def as_dict(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "num_gates": self.num_gates,
            "num_two_qubit_gates": self.num_two_qubit_gates,
            "num_multi_qubit_gates": self.num_multi_qubit_gates,
            "depth": self.depth,
        }


class Circuit:
    """An ordered quantum circuit over ``num_qubits`` logical qubits.

    The class exposes a small builder API (``circuit.h(0)``,
    ``circuit.cx(0, 1)``, ...) used by the circuit library generators, plus
    the structural queries needed by the Atlas partitioning algorithms.
    """

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = (), name: str = "circuit"):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: list[Gate] = []
        for g in gates:
            self.append(g)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    @property
    def gates(self) -> list[Gate]:
        return self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Circuit(self.num_qubits, self._gates[idx], name=self.name)
        return self._gates[idx]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Circuit {self.name!r}: {self.num_qubits} qubits, {len(self)} gates>"

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Append *gate* after validating its qubit indices."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"gate {gate} uses qubit {q} outside range [0, {self.num_qubits})"
                )
        self._gates.append(gate)
        return self

    def add(self, name: str, qubits: Iterable[int], params: Iterable[float] = ()) -> "Circuit":
        return self.append(make_gate(name, qubits, params))

    # Single-qubit conveniences -----------------------------------------------
    def h(self, q: int) -> "Circuit":
        return self.add("h", [q])

    def x(self, q: int) -> "Circuit":
        return self.add("x", [q])

    def y(self, q: int) -> "Circuit":
        return self.add("y", [q])

    def z(self, q: int) -> "Circuit":
        return self.add("z", [q])

    def s(self, q: int) -> "Circuit":
        return self.add("s", [q])

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", [q])

    def t(self, q: int) -> "Circuit":
        return self.add("t", [q])

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", [q])

    def sx(self, q: int) -> "Circuit":
        return self.add("sx", [q])

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", [q], [theta])

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", [q], [theta])

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add("rz", [q], [theta])

    def p(self, theta: float, q: int) -> "Circuit":
        return self.add("p", [q], [theta])

    def u3(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.add("u3", [q], [theta, phi, lam])

    # Multi-qubit conveniences -------------------------------------------------
    # Note: Gate stores (targets..., controls...), so cx(control, target)
    # becomes Gate("cx", (target, control)).
    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", [target, control])

    def cy(self, control: int, target: int) -> "Circuit":
        return self.add("cy", [target, control])

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add("cz", [target, control])

    def ch(self, control: int, target: int) -> "Circuit":
        return self.add("ch", [target, control])

    def cp(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("cp", [target, control], [theta])

    def crx(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("crx", [target, control], [theta])

    def cry(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("cry", [target, control], [theta])

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add("crz", [target, control], [theta])

    def swap(self, q0: int, q1: int) -> "Circuit":
        return self.add("swap", [q0, q1])

    def rzz(self, theta: float, q0: int, q1: int) -> "Circuit":
        return self.add("rzz", [q0, q1], [theta])

    def rxx(self, theta: float, q0: int, q1: int) -> "Circuit":
        return self.add("rxx", [q0, q1], [theta])

    def ryy(self, theta: float, q0: int, q1: int) -> "Circuit":
        return self.add("ryy", [q0, q1], [theta])

    def ccx(self, c0: int, c1: int, target: int) -> "Circuit":
        return self.add("ccx", [target, c0, c1])

    def cswap(self, control: int, q0: int, q1: int) -> "Circuit":
        return self.add("cswap", [q0, q1, control])

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def qubits_used(self) -> set[int]:
        """Set of qubits touched by at least one gate."""
        used: set[int] = set()
        for g in self._gates:
            used.update(g.qubits)
        return used

    def depth(self) -> int:
        """Circuit depth (longest chain of dependent gates)."""
        frontier = [0] * self.num_qubits
        for g in self._gates:
            level = 1 + max(frontier[q] for q in g.qubits)
            for q in g.qubits:
                frontier[q] = level
        return max(frontier) if self._gates else 0

    def stats(self) -> CircuitStats:
        two = sum(1 for g in self._gates if g.num_qubits == 2)
        multi = sum(1 for g in self._gates if g.num_qubits >= 2)
        return CircuitStats(
            num_qubits=self.num_qubits,
            num_gates=len(self._gates),
            num_two_qubit_gates=two,
            num_multi_qubit_gates=multi,
            depth=self.depth(),
        )

    def structural_key(self) -> str:
        """Hex fingerprint of the circuit's *partitioning-relevant* structure.

        Two circuits share a structural key exactly when the staging and
        kernelization algorithms would make identical decisions for them:
        same qubit count, same gate sequence (names and qubit tuples), and —
        for parameterized gates — the same matrix *sparsity pattern*.  Gate
        angles are deliberately excluded: ``rx(0.3)`` and ``rx(0.7)`` hash
        identically (a VQC/QSVM parameter sweep is one structure), while
        ``rx(pi)`` hashes differently because its matrix collapses to an
        anti-diagonal, which changes insularity (Definition 2) and therefore
        staging.  The sparsity pattern also determines the per-axis
        diagonal/anti-diagonal classification the offload runtime segments
        stages by, so plans and stage schedules cached under this key can be
        replayed for any circuit that shares it.
        """
        cache_patterns(self._gates)
        parts = [self.num_qubits.to_bytes(4, "little")]
        for g in self._gates:
            parts.append(_gate_header(g.name, g.qubits))
            if g.params:
                # The boolean non-zero pattern of the unitary: invariant
                # across generic angles, distinct for structure-changing
                # special angles (0, pi, ...).  Cached on the gate.
                parts.append(g.pattern()[0])
        # One update of the joined bytes: the digest of a stream does not
        # depend on how it is chunked, and SharedPlanStore persists it.
        return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()

    def canonical_relabeling(self) -> dict[int, int]:
        """Mapping of each logical qubit to its *first-use order* position.

        Qubits are numbered by the order in which the gate sequence first
        touches them; qubits no gate touches keep their relative order after
        all used ones.  Two circuits that differ only by a qubit relabeling
        map onto the same canonical labels, which is what makes
        :meth:`canonical_structural_key` relabel-invariant.
        """
        mapping: dict[int, int] = {}
        for g in self._gates:
            for q in g.qubits:
                if q not in mapping:
                    mapping[q] = len(mapping)
        for q in range(self.num_qubits):
            if q not in mapping:
                mapping[q] = len(mapping)
        return mapping

    def canonical_structural_key(self) -> tuple[str, dict[int, int]]:
        """Qubit-relabel-invariant structural fingerprint.

        Returns ``(key, mapping)`` where *mapping* is this circuit's
        :meth:`canonical_relabeling` and *key* is the
        :meth:`structural_key` of the circuit rewritten into canonical
        labels.  Circuits submitted by different users that are the same
        computation on permuted qubits share one canonical key — the
        cross-tenant plan cache (:mod:`repro.service.persistence`) keys on
        it, and uses *mapping* to relabel the shared plan back into each
        submitter's labels.
        """
        mapping = self.canonical_relabeling()
        if all(q == p for q, p in mapping.items()):
            return self.structural_key(), mapping
        return self.remap_qubits(mapping).structural_key(), mapping

    def content_key(self) -> str:
        """Hex fingerprint of the *full* circuit content, parameters included.

        Unlike :meth:`structural_key` (which deliberately ignores rotation
        angles so a parameter sweep is one structure), two circuits share a
        content key exactly when they run the same gates with the same
        parameters on the same qubits — the dedup condition for identical
        batch submissions (:meth:`repro.service.SimulationService.submit_many`).
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(self.num_qubits.to_bytes(4, "little"))
        for g in self._gates:
            h.update(b"|")
            h.update(g.name.encode())
            h.update(np.asarray(g.qubits, dtype=np.int32).tobytes())
            if g.params:
                h.update(np.asarray(g.params, dtype=np.float64).tobytes())
        return h.hexdigest()

    def dependency_edges(self) -> list[tuple[int, int]]:
        """Adjacent-gate dependency pairs ``E`` (paper Section IV).

        Returns edges ``(i, j)`` with ``i < j`` such that gate ``j`` is the
        *next* gate acting on some qubit also acted on by gate ``i``.
        """
        last_on_qubit: dict[int, int] = {}
        edges: set[tuple[int, int]] = set()
        for j, g in enumerate(self._gates):
            for q in g.qubits:
                i = last_on_qubit.get(q)
                if i is not None:
                    edges.add((i, j))
                last_on_qubit[q] = j
        return sorted(edges)

    def dependency_graph(self) -> nx.DiGraph:
        """Gate dependency DAG with node indices 0..len-1."""
        dag = nx.DiGraph()
        dag.add_nodes_from(range(len(self._gates)))
        dag.add_edges_from(self.dependency_edges())
        return dag

    def is_topologically_equivalent(self, order: Sequence[int]) -> bool:
        """Check whether the gate index permutation *order* respects dependencies.

        Two sequences are topologically equivalent when every pair of gates
        sharing a qubit appears in the same relative order.
        """
        if sorted(order) != list(range(len(self._gates))):
            return False
        position = {gate_idx: pos for pos, gate_idx in enumerate(order)}
        for i, j in self.dependency_edges():
            if position[i] > position[j]:
                return False
        return True

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, list(self._gates), name=self.name)

    def remap_qubits(self, mapping: dict[int, int], num_qubits: int | None = None) -> "Circuit":
        """Return a circuit with logical qubits renamed through *mapping*."""
        n = num_qubits if num_qubits is not None else self.num_qubits
        out = Circuit(n, name=self.name)
        for g in self._gates:
            out.append(g.remap(mapping))
        return out

    def inverse(self) -> "Circuit":
        """Return the inverse circuit (dagger of every gate, reverse order).

        Only gates whose inverse exists in the gate vocabulary are supported;
        parameterised rotations invert by negating their angle.
        """
        inv_const = {
            "id": "id", "x": "x", "y": "y", "z": "z", "h": "h",
            "s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t",
            "cx": "cx", "cy": "cy", "cz": "cz", "ch": "ch",
            "swap": "swap", "ccx": "ccx", "ccz": "ccz", "cswap": "cswap",
        }
        neg_param = {"rx", "ry", "rz", "p", "u1", "cp", "cu1", "crx", "cry",
                     "crz", "rzz", "rxx", "ryy"}
        out = Circuit(self.num_qubits, name=self.name + "_inv")
        for g in reversed(self._gates):
            if g.name in inv_const:
                out.append(Gate(inv_const[g.name], g.qubits))
            elif g.name in neg_param:
                out.append(Gate(g.name, g.qubits, tuple(-p for p in g.params)))
            elif g.name in ("u3", "u"):
                theta, phi, lam = g.params
                out.append(Gate("u3", g.qubits, (-theta, -lam, -phi)))
            elif g.name == "sx":
                out.append(Gate("u3", g.qubits, (-np.pi / 2, np.pi / 2, -np.pi / 2)))
            else:
                raise ValueError(f"cannot invert gate {g.name!r}")
        return out

    def compose(self, other: "Circuit") -> "Circuit":
        """Concatenate *other* after this circuit (qubit counts must match)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit counts differ")
        out = self.copy()
        for g in other:
            out.append(g)
        return out

    def subcircuit(self, gate_indices: Sequence[int]) -> "Circuit":
        """Circuit with only the gates at *gate_indices* (in the given order)."""
        out = Circuit(self.num_qubits, name=self.name)
        for i in gate_indices:
            out.append(self._gates[i])
        return out
