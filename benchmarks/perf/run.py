#!/usr/bin/env python3
"""The repo benchmark: one workload per invocation, result JSON last.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"report": …}`` object with the host record, sample counts and raw
(uncalibrated) numbers.  Other modes::

    run.py --probe-check                  the probe's own spread on this host
    run.py --repeat N --out A.json        N runs of every workload, collected
    run.py --compare A.json B.json        B against A, per workload x metric

See README.md for what "calibrated seconds" are and how to read the output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: name, unit, better, bound (relative worsening that counts as a regression).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("circuits_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]
WORKLOAD_NAMES = (
    "cold-plan-16q", "incore-exec-20q", "shard-stream-20q", "service-burst-12q",
)
#: Set-ups per run: the measuring process's own plus this many children.
SETUP_CHILDREN = 2


def _require_program() -> None:
    """Exit non-zero, printing no result, when the checkout has no
    ``src/repro``: the benchmark measures this repository's program, never
    one that happens to be installed elsewhere."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program to measure under {ROOT / 'src'}")


def _import_benchmark_modules():
    """Put the program and the benchmark on the path and pin the BLAS
    threads before NumPy loads; returns the ``probes`` module."""
    _require_program()
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import probes

    if "numpy" not in sys.modules:
        probes.pin_threads()
    return probes


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------


def _job_p50(rounds, attr: str) -> float:
    """Median over *rounds* of each round's median job time.

    Every round holds the same job list, so this is the median job; unlike
    the median of the pooled jobs it does not sit on the edge between two
    clusters of job sizes, where the extreme jobs of each cluster decide it.
    """
    return statistics.median(
        statistics.median(getattr(record, attr) for record in rnd.records)
        for rnd in rounds
    )


@dataclass
class Round:
    """One pass over the workload's job list, as measured."""

    traced: bool
    start: float = 0.0
    end: float = 0.0
    #: Host slowdown over the round (probes before, between, after batches).
    factor: float = 1.0
    #: Summed batch seconds as measured.
    raw_s: float = 0.0
    records: list = field(default_factory=list)

    @property
    def calibrated_s(self) -> float:
        return self.raw_s / self.factor


class Run:
    """State of one ``--workload`` invocation."""

    def __init__(self, args):
        self.args = args
        self.trace = bool(args.trace)
        self.work_dir = Path(args.work_dir) / f"run-{os.getpid()}"
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- set-up ---------------------------------------------------------

    def child_setups(self) -> list[float]:
        """Calibrated set-up seconds of the ``--setup-only`` children."""
        args = self.args
        out: list[float] = []
        if self.trace or args.toy or args.setup_only:
            return out
        for _ in range(SETUP_CHILDREN):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--setup-only",
                "--workload", args.workload, "--seed", str(args.seed),
                "--work-dir", args.work_dir,
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            if done.returncode != 0:
                raise RuntimeError(f"set-up child failed:\n{done.stderr[-2000:]}")
            out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        return out

    def setup(self) -> None:
        """Process start → ready to measure, calibrated step by step.

        The workload's set-up yields after each step; every step is
        divided by the slowdown its two bracketing probes show for the
        kind of work it did.  The probes themselves are not counted.
        """
        clock = time.perf_counter
        start = clock()
        probes = _import_benchmark_modules()
        self.probes = probes
        import oracle
        import workloads

        self.oracle = oracle
        self.tracer = None
        if self.trace:
            import layers

            self.layers = layers
            self.tracer = layers.build_tracer()
        workload_class = workloads.WORKLOADS[self.args.workload]
        imported = clock()
        self.probe = probes.Probe(workload_class.memory_share, quick=self.args.toy)
        before = self.probe.sample()
        # Nothing could be timed before NumPy was there: the imports take
        # the slowdown of the first sample after them.
        self.raw_setup_s = imported - start
        self.setup_s = self.raw_setup_s / self.probe.factor(
            [before], probes.INTERPRETER_SHARE
        )
        step_start = clock()
        if self.trace:
            self.tracer.install()
        try:
            self.work_dir.mkdir(parents=True, exist_ok=True)
            self.workload = workload_class(self.args.seed, self.args.toy, self.work_dir)
            for share in self.workload.setup():
                step_s = clock() - step_start
                after = self.probe.sample()
                self.raw_setup_s += step_s
                self.setup_s += step_s / self.probe.factor([before, after], share)
                before = after
                step_start = clock()
        finally:
            if self.trace:
                self.tracer.uninstall()
        # Spans of the set-up are calibrated by its overall slowdown.
        self.setup_window = (start, step_start, self.raw_setup_s / self.setup_s)

    # -- measuring ------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Whole rounds until *seconds* have passed (one round when toy)."""
        import numpy as np

        clock = time.perf_counter
        self.rounds: list[Round] = []
        self.samples = []
        self.kept = {}  # structure -> its first job's record
        self.later = None
        # One seed-chosen job of the second round is also oracle-checked.
        per_round = self.workload.jobs_per_round
        later_index = per_round + int(
            np.random.default_rng(self.args.seed).integers(per_round)
        )
        job_index = 0
        cpu_start = time.process_time()
        deadline = clock() + seconds
        while True:
            rnd = Round(traced=self.trace and len(self.rounds) % 2 == 0)
            gc.collect()
            samples = [self.probe.sample()]
            rnd.start = clock()
            if rnd.traced:
                self.tracer.install()
            try:
                for batch in self.workload.round():
                    start = clock()
                    records = batch()
                    rnd.raw_s += clock() - start
                    samples.append(self.probe.sample())
                    self.failures.extend(self.workload.check_batch(records))
                    for record in records:
                        self.check_record(record)
                        if record.structure not in self.kept and record.result:
                            self.kept[record.structure] = record
                        elif job_index == later_index and record.result:
                            self.later = record
                        elif record.result:
                            # Drop the state so RSS does not grow with run length.
                            record.result.state = None
                        job_index += 1
                    rnd.records.extend(records)
            finally:
                if rnd.traced:
                    self.tracer.uninstall()
            rnd.end = clock()
            # One slowdown per round, from the probes before, between and
            # after its batches: steadier than a bracket per batch.
            rnd.factor = self.probe.factor(samples)
            for record in rnd.records:
                record.calibrated = record.seconds / rnd.factor
            self.samples.extend(samples)
            self.rounds.append(rnd)
            if self.args.toy or clock() >= deadline:
                break
        self.cpu_s = time.process_time() - cpu_start
        # Job and round statistics come from rounds nothing was wrapped in.
        self.plain_rounds = [r for r in self.rounds if not r.traced] or self.rounds
        self.jobs_run = job_index

    def check_record(self, record) -> None:
        """Cheap per-job checks: completed, finite, unit norm."""
        import numpy as np

        self.attempted += 1
        problem = record.error
        if not problem:
            data = record.result.state.data
            norm = float(np.linalg.norm(data))
            if not np.all(np.isfinite(data)):
                problem = "non-finite amplitudes"
            elif abs(norm - 1.0) > 1e-9:
                problem = f"norm {norm!r}"
        if problem:
            self.failed += 1
            self.failures.append(f"{record.structure}: {problem}")

    # -- verification ---------------------------------------------------

    def verify(self) -> None:
        """Oracle checks on the kept states, after measuring."""
        self.oracle.self_test()
        checked = list(self.kept.values()) + ([self.later] if self.later else [])
        for record in checked:
            circuit, state = record.circuit, record.result.state.data
            if not self.oracle.check_state(circuit.num_qubits, circuit.gates, state):
                self.failed += 1
                self.failures.append(f"{record.structure}: state differs from the oracle")
        self.failures.extend(self.workload.verify())

    # -- metrics --------------------------------------------------------

    def end_to_end(self, child_setups: list[float]) -> dict:
        round_s = statistics.median(r.calibrated_s for r in self.rounds)
        return {
            "setup_s": statistics.median(child_setups + [self.setup_s]),
            "job_p50_s": _job_p50(self.rounds, "calibrated"),
            "circuits_per_s": self.workload.jobs_per_round / round_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, extras: dict) -> dict:
        layers = self.layers
        traced = [r for r in self.rounds if r.traced]
        plain = self.plain_rounds
        jobs_cal = sorted(rec.calibrated for r in plain for rec in r.records)
        mean = statistics.fmean
        metrics = dict.fromkeys((row[0] for row in layers.PER_LAYER), 0.0)
        state = 1 << self.workload.size(self.workload.state_qubits)
        metrics.update(
            layers.layer_metrics(
                self.tracer, traced, self.setup_window, self.probe.copy_seconds(state)
            )
        )
        metrics.update(
            layers.stat_metrics(
                self.workload.session_stats([rec for r in traced for rec in r.records])
            )
        )
        metrics.update(extras)
        metrics.update(
            {
                "bench.probe.pyloop.s": mean(s.pyloop for s in self.samples),
                "bench.probe.l2.s": mean(s.l2 for s in self.samples),
                "bench.probe.copy.s": mean(s.copy for s in self.samples),
                "bench.probe.sweep.s": mean(s.sweep for s in self.samples),
                "bench.speed_factor": mean(r.factor for r in self.rounds),
                "bench.raw.job_p50_s": _job_p50(plain, "seconds"),
                "bench.raw.setup_s": self.raw_setup_s,
                "bench.job_p90_s": jobs_cal[int(0.9 * len(jobs_cal))],
                "bench.cpu_s_per_circuit": self.cpu_s / self.jobs_run,
                "bench.trace_overhead_ratio": (
                    statistics.median(r.calibrated_s for r in traced)
                    / statistics.median(r.calibrated_s for r in plain)
                ),
                "bench.rounds": float(len(self.rounds)),
                "bench.jobs": float(self.jobs_run),
            }
        )
        return metrics

    # -- driver ---------------------------------------------------------

    def execute(self) -> int:
        args = self.args
        clock = time.perf_counter
        #: Wall seconds of the run's phases (how long a run takes, and why).
        self.wall = {}

        def phase(name, fn, *fn_args):
            start = clock()
            out = fn(*fn_args)
            self.wall[name] = clock() - start
            return out

        child_setups = phase("child_setups", self.child_setups)
        self.workload = None
        try:
            phase("setup", self.setup)
            if args.setup_only:
                print(json.dumps({"setup_s": self.setup_s, "raw_setup_s": self.raw_setup_s}))
                return 0
            extras_s = args.seconds * self.workload.extras_share if self.trace else 0.0
            phase("measure", self.measure, args.seconds - extras_s)
            if self.trace:
                extras = phase(
                    "extras", self.workload.traced_extras, 0.0 if args.toy else extras_s
                )
            phase("verify", self.verify)
            if self.trace:
                metrics, rows = self.per_layer(extras), self.layers.PER_LAYER
            else:
                metrics, rows = self.end_to_end(child_setups), END_TO_END
            report = self.report(child_setups)
            if self.trace:
                trace_path = self.work_dir.parent / (
                    f"trace-{args.workload}-seed{args.seed}.json"
                )
                trace_path.write_text(json.dumps(self.tracer.chrome_trace()))
                report["chrome_trace"] = str(trace_path)
        finally:
            if self.workload is not None:
                self.workload.close()
            shutil.rmtree(self.work_dir, ignore_errors=True)
        units = {row[0]: row[1] for row in rows}
        print(json.dumps({"report": report}))
        print(
            json.dumps(
                {
                    "correct": not self.failures,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()
                    },
                }
            )
        )
        return 0

    def report(self, child_setups: list[float]) -> dict:
        plain = self.plain_rounds
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": int(self.trace),
            "toy": self.args.toy,
            "host": self.probes.host_record(),
            "service_dirs": "inside the checkout, journal fsync off",
            "rounds": len(self.rounds),
            "job_samples": sum(len(r.records) for r in plain),
            "wall_s": {name: round(seconds, 3) for name, seconds in self.wall.items()},
            "raw": {
                "job_p50_s": _job_p50(plain, "seconds"),
                "round_s": statistics.median(r.raw_s for r in plain),
                "setup_s": self.raw_setup_s,
            },
            "setup_s_samples": child_setups + [self.setup_s],
            "speed_factor": statistics.fmean(r.factor for r in self.rounds),
            "probe_cpu_s": statistics.median(s.pyloop + s.l2 for s in self.samples),
            "probe_mem_s": statistics.median(s.copy + s.sweep for s in self.samples),
            # Thread-parallel speedup cannot show on fewer cores than workers.
            "unresolved": (
                ["runtime.parallel.speedup_vs_offload"] if (os.cpu_count() or 1) < 2 else []
            ),
            "failures": self.failures[:20],
        }


# ---------------------------------------------------------------------------
# --repeat and --compare
# ---------------------------------------------------------------------------


def repeat(count: int, out: str, seconds: int, first_seed: int, work_dir: str) -> int:
    """Run every workload *count* times (fresh process, new seed each) and
    collect the end-to-end metrics plus the raw job median into *out*."""
    runs = []
    for i in range(count):
        for workload in WORKLOAD_NAMES:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(first_seed + i), "--seconds", str(seconds),
                "--trace", "0", "--work-dir", work_dir,
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values["bench.raw.job_p50_s"] = report["raw"]["job_p50_s"]
            runs.append(
                {
                    "workload": workload, "seed": first_seed + i,
                    "correct": result["correct"], "failed": result["failed"],
                    "metrics": values, "report": report,
                }
            )
            print(f"{workload} seed {first_seed + i}: {values}", file=sys.stderr)
            # after every run, so an interrupted set keeps what it measured
            Path(out).write_text(json.dumps({"runs": runs}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


def _side(runs, workload, metric):
    values = [r["metrics"][metric] for r in runs if r["workload"] == workload]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return values, q2, (q3 - q1) / q2, (q1, q3)


def _cell(median: float, quartiles) -> str:
    return f"{median:.5g} [{quartiles[0]:.5g},{quartiles[1]:.5g}]"


def compare(path_a: str, path_b: str) -> int:
    """B against A.  Non-zero exit on any regression or unresolved cell."""
    runs_a = json.loads(Path(path_a).read_text())["runs"]
    runs_b = json.loads(Path(path_b).read_text())["runs"]
    rows = END_TO_END + [("bench.raw.job_p50_s", "s", "lower", None)]
    bad = 0
    print(
        f"{'workload':18s} {'metric':20s} {'A median [q1,q3]':>32s} "
        f"{'B median [q1,q3]':>32s} {'B vs A':>8s} {'bound':>6s}  verdict"
    )
    for workload in WORKLOAD_NAMES:
        for metric, _unit, better, bound in rows:
            a, med_a, spread_a, q_a = _side(runs_a, workload, metric)
            b, med_b, spread_b, q_b = _side(runs_b, workload, metric)
            sign = 1.0 if better == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a  # > 0: B is worse
            b_all_better = all(sign * (y - x) < 0 for x in a for y in b)
            b_all_worse = all(sign * (y - x) > 0 for x in a for y in b)
            if bound is None:
                verdict = "info (uncalibrated)"
            elif max(spread_a, spread_b) > bound and not (b_all_better or b_all_worse):
                verdict = "UNRESOLVED (spread > bound)"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            bad += verdict.isupper()
            print(
                f"{workload:18s} {metric:20s} {_cell(med_a, q_a):>32s} "
                f"{_cell(med_b, q_b):>32s} {worse:+8.1%} "
                f"{'' if bound is None else format(bound, '.0%'):>6s}  {verdict}"
            )
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="<= 10 qubits, one round")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--work-dir", default=str(HERE / ".work"),
        help="scratch directory (service journal/store, traces)",
    )
    parser.add_argument("--probe-check", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--out", default=str(HERE / ".work" / "runs.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.repeat:
        return repeat(args.repeat, args.out, int(args.seconds), args.seed, args.work_dir)
    if args.probe_check:
        probes = _import_benchmark_modules()
        print(json.dumps(probes.probe_check(), indent=1))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    _require_program()  # before any set-up child is started
    return Run(args).execute()


if __name__ == "__main__":
    sys.exit(main())
