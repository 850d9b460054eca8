"""Campaign benchmark of corrsounder.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload route_desk --seed 1 --seconds 20 --trace 0

The workload's ``corrsounder`` command runs again and again, each time in a
fresh ``python -m corrsounder.cli`` process and one at a time, until
``--seconds`` have passed (at least once).  The seed goes to the command as
its ``--seed``.  Each child is measured from outside: wall time by this
process's clock, CPU time, minor page faults and peak RSS from the rusage
``wait4`` returns for that child.  Every run's outputs are checked, and all
runs of one benchmark invocation (same seed) must give identical bundle
digests.

``--trace 0`` prints the end-to-end metrics, normalised per acquisition so
that the run length does not change them, plus ``setup_s``: the median wall
time of fresh processes that only do the workload's set-up calls.
``--trace 1`` runs the command once untraced, then under ``trace_child.py``
until ``--seconds`` have passed, and prints per-layer metrics per command.

The child environment is this process's, with only ``PYTHONPATH`` pointed at
the checkout's ``src``: allocator and thread-count variables are never set,
because the allocator's page-fault churn is part of what is measured.

The last line of standard output is the result object; the line before it
records the environment, the error rate and every child run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, command, compare, digest, observe  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "acq_per_s": "1/s",
    "user_ms_per_acq": "ms",
    "sys_ms_per_acq": "ms",
    "minflt_per_acq": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer statistics per command run: (span name, stat, unit).
LAYER_STATS = [
    ("correlator.correlate_fast", "calls", "calls/cmd"),
    ("correlator.correlate_fast", "self_s", "s/cmd"),
    ("correlator.correlate_fast", "samples_in", "samples/cmd"),
    ("correlator.correlate_fast", "peak_alloc_mb", "MB"),
    ("channel.apply_channel", "calls", "calls/cmd"),
    ("channel.apply_channel", "self_s", "s/cmd"),
    ("channel.apply_channel", "bytes_out", "B_computed/cmd"),
    ("channel.apply_channel", "peak_alloc_mb", "MB"),
    ("channel.synthesize_channel", "self_s", "s/cmd"),
    ("waveform.upsample_chips", "calls", "calls/cmd"),
    ("waveform.upsample_chips", "self_s", "s/cmd"),
    ("waveform.upsample_chips", "bytes_out", "B_computed/cmd"),
    ("pn.generate_msequence", "calls", "calls/cmd"),
    ("pn.generate_msequence", "self_s", "s/cmd"),
    ("pdp.system_pulse_energy_bins", "self_s", "s/cmd"),
    ("pdp.pdp_from_iq", "self_s", "s/cmd"),
    ("pdp.threshold_pdp", "calls", "calls/cmd"),
    ("pdp.threshold_pdp", "self_s", "s/cmd"),
    ("pdp.average_pdps", "calls", "calls/cmd"),
    ("pdp.average_pdps", "self_s", "s/cmd"),
    ("pdp.write_pdp_csv", "calls", "calls/cmd"),
    ("pdp.write_pdp_csv", "self_s", "s/cmd"),
    ("pdp.write_pdp_csv", "bytes_out", "B/cmd"),
    ("correlator.write_cir_csv", "self_s", "s/cmd"),
    ("sweep.run_sweep", "calls", "calls/cmd"),
    ("sweep.run_sweep", "self_s", "s/cmd"),
    ("scenario_io.load_scenario", "self_s", "s/cmd"),
    ("scenario_io.run_campaign", "self_s", "s/cmd"),
    ("cli.main", "self_s", "s/cmd"),
]
DERIVED_UNITS = {
    "pdp.signal_present_ratio": "ratio",
    "pdp.floor_binding_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s/cmd",
}
PER_LAYER_UNITS = {f"{n}.{s}": u for n, s, u in LAYER_STATS} | DERIVED_UNITS

_ALLOCATOR_VAR = re.compile(r"MALLOC_.*|.*_NUM_THREADS")


@dataclass
class Child:
    """One finished child process, measured from outside."""

    kind: str
    wall_s: float
    user_s: float
    sys_s: float
    minflt: int
    maxrss_mb: float
    returncode: int
    acq: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def spawn(kind: str, argv: list[str], env: dict, log_path: Path) -> tuple[Child, str]:
    """Run one child to completion (killed after CHILD_TIMEOUT_S)."""
    timed_out = False
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not timed_out and time.perf_counter() - start > CHILD_TIMEOUT_S:
                    timed_out = True
                    proc.kill()
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(
        kind=kind,
        wall_s=wall,
        user_s=usage.ru_utime,
        sys_s=usage.ru_stime,
        minflt=usage.ru_minflt,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
    )
    if timed_out:
        child.problems.append(f"killed after {CHILD_TIMEOUT_S:g} s")
    elif proc.returncode != 0:
        child.problems.append(f"exit code {proc.returncode}")
    return child, log_path.read_text(errors="replace")


class Bench:
    """One benchmark invocation: a workload, a seed and a scratch directory."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = json.loads((HERE / "reference.json").read_text())[workload.name]
        self.env = child_env(root)
        self.children: list[Child] = []

    def setup(self) -> Child:
        argv = [sys.executable, str(HERE / "setup_child.py"),
                self.workload.scenario, self.workload.preset]
        child, _ = spawn("setup", argv, self.env, self.work / "setup.log")
        self.children.append(child)
        return child

    def command(self, spans: Path | None = None) -> Child:
        n = len(self.children)
        out_dir = self.work / f"out{n}"
        cli_args = command(self.workload, self.seed, out_dir)
        if spans is None:
            argv = [sys.executable, "-m", "corrsounder.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans), *cli_args]
        kind = "command" if spans is None else "traced"
        child, stdout = spawn(kind, argv, self.env, self.work / f"out{n}.log")
        if child.ok:
            try:
                obs = observe(self.workload, out_dir, stdout)
                child.digest = digest(out_dir)
            except (OSError, KeyError, ValueError) as exc:
                child.problems.append(f"unreadable output: {exc!r}")
            else:
                child.acq = obs.acq
                child.problems += obs.problems + compare(obs.values, self.reference)
                first = next((c.digest for c in self.children if c.digest), child.digest)
                if child.digest != first:
                    child.problems.append("bundle digest differs from an earlier run with this seed")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.children.append(child)
        return child

    def repeat(self, seconds: float, spans_dir: Path | None = None) -> list[Child]:
        """Run the command at least once, and again while another run would
        end less than half a run after ``seconds``."""
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start + runs[-1].wall_s / 2 < seconds:
            spans = None if spans_dir is None else spans_dir / f"spans{len(runs)}.json"
            runs.append(self.command(spans))
        return runs


def child_env(root: Path) -> dict:
    """This process's environment with PYTHONPATH at the checkout's src."""
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    changed = [
        k for k in set(env) | set(os.environ)
        if _ALLOCATOR_VAR.fullmatch(k) and env.get(k) != os.environ.get(k)
    ]
    if changed:
        raise RuntimeError(f"benchmark must not override {sorted(changed)}")
    return env


def environment() -> dict:
    page = os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_free_mb": os.sysconf("SC_AVPHYS_PAGES") * page / 2**20,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * page / 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "inherited_allocator_env": {
            k: v for k, v in os.environ.items() if _ALLOCATOR_VAR.fullmatch(k)
        },
    }


def end_to_end(setups: list[Child], runs: list[Child]) -> dict[str, float]:
    runs = [r for r in runs if r.ok]
    values = {}
    if runs:
        values = {
            "acq_per_s": statistics.median(r.acq / r.wall_s for r in runs),
            "user_ms_per_acq": statistics.median(1e3 * r.user_s / r.acq for r in runs),
            "sys_ms_per_acq": statistics.median(1e3 * r.sys_s / r.acq for r in runs),
            "minflt_per_acq": statistics.median(r.minflt / r.acq for r in runs),
            "peak_rss_mb": statistics.median(r.maxrss_mb for r in runs),
        }
    if any(s.ok for s in setups):
        values["setup_s"] = statistics.median(s.wall_s for s in setups if s.ok)
    return values


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(untraced: Child, traced: list[Child], spans_dir: Path) -> dict[str, float]:
    ok = [(i, c) for i, c in enumerate(traced) if c.ok]
    if not ok or not untraced.ok:
        return {}
    totals: dict[str, float] = defaultdict(float)
    peaks: dict[str, float] = defaultdict(float)
    for i, _ in ok:
        spans = json.loads((spans_dir / f"spans{i}.json").read_text())
        for (name, _, _, _, extras), own in zip(spans, self_times(spans)):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own
            for key, value in extras.items():
                if key == "peak_alloc_b":
                    peaks[name] = max(peaks[name], value / 2**20)
                else:
                    totals[f"{name}.{key}"] += value
    per_cmd = {k: v / len(ok) for k, v in totals.items()}
    values = {}
    for name, stat, _ in LAYER_STATS:
        key = f"{name}.{stat}"
        values[key] = peaks[name] if stat == "peak_alloc_mb" else per_cmd.get(key, 0.0)
    thresholds = per_cmd["pdp.threshold_pdp.calls"]
    values["pdp.signal_present_ratio"] = per_cmd["pdp.threshold_pdp.signal_present"] / thresholds
    values["pdp.floor_binding_ratio"] = per_cmd["pdp.threshold_pdp.floor_binding"] / thresholds
    traced_wall = statistics.median(c.wall_s for _, c in ok)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / untraced.wall_s
    return values


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> int:
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, root, work)
        if trace:
            untraced = bench.command()
            spans_dir = work / "spans"
            spans_dir.mkdir()
            values = per_layer(untraced, bench.repeat(seconds, spans_dir), spans_dir)
            units = PER_LAYER_UNITS
        else:
            setups = [bench.setup() for _ in range(SETUP_REPEATS)]
            values = end_to_end(setups, bench.repeat(seconds))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    children = bench.children
    failed = sum(not c.ok for c in children)
    print(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "error_rate": failed / len(children),
        "children": [vars(c) for c in children],
    }))
    correct = failed == 0 and set(values) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "corrsounder" / "__init__.py").is_file():
        print("perfbench: src/corrsounder not found; run from the root of a "
              "corrsounder checkout", file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
