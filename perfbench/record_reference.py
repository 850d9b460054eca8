"""Record the reference values the benchmark checks outputs against.

Run from the root of a corrsounder checkout whose outputs are known good:

    python3 perfbench/record_reference.py --seeds 1 2 3 4 5 6 7 8

Each workload's command runs once per seed.  For every checked value the
reference is the median over the seeds, and the tolerance is twice the
spread (max - min) seen across them, at least ``MIN_TOL_DB``; a count that
does not vary must match exactly.  The result goes to ``reference.json``
beside this script.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

from run import HERE, child_env, spawn
from workloads import WORKLOADS, command, observe

MIN_TOL_DB = 0.5


def record(seeds: list[int], root: Path) -> dict:
    env = child_env(root)
    work = root / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    reference = {"seeds": seeds}
    try:
        for w in WORKLOADS.values():
            seen: dict[str, list[float]] = {}
            for seed in seeds:
                out_dir = work / f"{w.name}-{seed}"
                argv = [sys.executable, "-m", "corrsounder.cli", *command(w, seed, out_dir)]
                child, stdout = spawn("command", argv, env, work / "log.txt")
                obs = observe(w, out_dir, stdout) if child.ok else None
                if obs is None or obs.problems or None in obs.values.values():
                    raise SystemExit(f"{w.name} seed {seed}: {child.problems or obs}")
                for key, value in obs.values.items():
                    seen.setdefault(key, []).append(value)
                shutil.rmtree(out_dir)
                print(f"{w.name} seed {seed}: {child.wall_s:.1f} s", file=sys.stderr)
            reference[w.name] = {
                key: {
                    "value": statistics.median(v),
                    "tol": 0.0 if key == "pdp_rows" else max(MIN_TOL_DB, 2 * (max(v) - min(v))),
                }
                for key, v in seen.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 9)))
    args = parser.parse_args()
    reference = record(args.seeds, Path.cwd())
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
