"""Figures 9 and 12 — circuit staging: ILP (Atlas) vs SnuQS-style greedy.

The paper sweeps the number of local qubits for 31-qubit (Figure 9) and
42-qubit (Figure 12) circuits and reports the geometric-mean number of
stages over the 11 benchmark families.  Two claims must hold:

* the ILP staging never needs more stages than the greedy heuristic
  (Theorem 1 — it is provably minimal), and
* the ILP stage count is monotonically non-increasing as L grows, whereas
  the greedy heuristic can get *worse* with more local qubits (the paper
  points out the SnuQS regression from L=23 to L=24).
"""

import pytest

from repro.analysis import figure9_staging, format_table


def _run(benchmark, num_qubits, local_range, families):
    rows = benchmark.pedantic(
        figure9_staging,
        kwargs=dict(
            num_qubits=num_qubits,
            local_qubit_range=local_range,
            families=families,
            ilp_time_limit=60.0,
        ),
        iterations=1,
        rounds=1,
    )
    print()
    print(format_table(
        rows,
        title=f"Figure {'9' if num_qubits < 40 else '12'} — geomean #stages at "
        f"{num_qubits} qubits",
    ))
    for row in rows:
        assert row["atlas_geomean_stages"] <= row["snuqs_geomean_stages"] + 1e-9
    atlas_series = [row["atlas_geomean_stages"] for row in rows]
    assert all(a >= b - 1e-9 for a, b in zip(atlas_series, atlas_series[1:]))
    return rows


def test_fig9_staging_31_qubits(benchmark, paper_scale, families):
    if paper_scale:
        num_qubits, local_range = 31, list(range(15, 32, 2))
    else:
        num_qubits, local_range = 16, [8, 10, 12, 14, 16]
    # The quadratic-size families make the ILP large at the smallest L; the
    # reduced-scale run keeps the structurally diverse subset from conftest.
    _run(benchmark, num_qubits, local_range, families)


def test_fig12_staging_42_qubits(benchmark, paper_scale):
    if not paper_scale:
        pytest.skip("42-qubit staging sweep only runs with REPRO_PAPER_SCALE=1")
    _run(benchmark, 42, list(range(18, 43, 3)),
         ("ae", "dj", "ghz", "graphstate", "ising", "qft", "qpeexact", "qsvm",
          "su2random", "vqc", "wstate"))
