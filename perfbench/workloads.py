"""Workload table and output checks of the campaign benchmark.

An acquisition ("acq") is one ``apply_channel`` + correlate capture.  The
workloads are chosen so that different layers dominate:

* ``route_desk`` runs many small desk captures (the acceptance-10 route);
  ``correlate_fast`` and ``apply_channel`` take almost all of the time.
* ``cluster_pdps_desk`` averages two captures per PDP and writes every PDP
  to disk, so averaging and the bundle write show beside the capture.
* ``full_simulate`` is one flagship-preset capture with its 65.5 M-sample
  record; it bypasses the desk composition path and stresses memory.

The checks compare each run's outputs with values recorded at a known-good
commit (``reference.json``, written by ``record_reference.py``) within a
tolerance no tighter than the spread seen across seeds, so a statistically
equivalent change to the noise stream passes and a wrong answer fails.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    preset: str
    args: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "route_desk", "corner_route", "desk",
            ("campaign", "--scenario", "corner_route", "--kind", "route",
             "--preset", "desk", "--step-deg", "15", "--sweeps", "1"),
        ),
        Workload(
            "cluster_pdps_desk", "corner_clusters", "desk",
            ("campaign", "--scenario", "corner_clusters", "--kind", "cluster",
             "--preset", "desk", "--step-deg", "30", "--averages", "2",
             "--save-pdps", "--sweeps", "1"),
        ),
        Workload(
            "full_simulate", "corner_route", "full",
            ("simulate", "--scenario", "corner_route", "--rx-index", "5",
             "--preset", "full"),
        ),
    )
}


def command(w: Workload, seed: int, out_dir: Path) -> list[str]:
    """Arguments of the ``corrsounder`` command for one run of ``w``."""
    return [*w.args, "--seed", str(seed), "--out", str(out_dir)]


@dataclass
class Observation:
    """What one run produced: acquisitions done, checked values, problems."""

    acq: int = 0
    values: dict[str, float | None] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def digest(out_dir: Path) -> str:
    """SHA-256 over the relative path and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _observe_campaign(w: Workload, out_dir: Path) -> Observation:
    obs = Observation()
    doc = json.loads((out_dir / "bundle.json").read_text())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    locations = doc["locations"]
    spokes = sum(len(loc["spectrum"]) for loc in locations)
    obs.acq = spokes * manifest["sweeps"] * manifest["averages"]
    omni = [loc["omni_dbm"] for loc in locations]
    obs.values = {f"omni_dbm.{loc['id']}": loc["omni_dbm"] for loc in locations}
    if any(p is None for p in omni):
        obs.problems.append("a location has no omni power")
    elif w.name == "route_desk":
        # acceptance-10 structure: stops 5-11 monotone, NLOS spread > LOS spread
        boundary = omni[4:11]
        if not all(a >= b for a, b in zip(boundary, boundary[1:])):
            obs.problems.append(f"stops 5-11 not monotone: {boundary}")
        std = doc["power_std_db"]
        if not std.get("nlos", 0.0) > std.get("los", float("inf")):
            obs.problems.append(f"NLOS std not above LOS std: {std}")
    if "--save-pdps" in w.args:
        written = len(list((out_dir / "pdps").glob("*.csv")))
        expected = spokes * manifest["sweeps"]
        if written != expected:
            obs.problems.append(f"{written} PDP files written, expected {expected}")
    return obs


_SIMULATE_LINE = re.compile(r"peak (\S+) dBm, floor \S+ dBm, total (\S+) dBm")


def _observe_simulate(out_dir: Path, stdout: str) -> Observation:
    obs = Observation(acq=1)
    match = _SIMULATE_LINE.search(stdout)
    if match is None:
        obs.problems.append("no PDP summary line in the output")
        return obs
    total = match.group(2)
    rows = sum(
        1 for line in (out_dir / "pdp.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ) - 1  # header
    obs.values = {
        "peak_dbm": float(match.group(1)),
        "total_dbm": None if total == "none" else float(total),
        "pdp_rows": float(rows),
    }
    return obs


def observe(w: Workload, out_dir: Path, stdout: str) -> Observation:
    """Read a successful run's outputs and check their structure."""
    if w.args[0] == "simulate":
        return _observe_simulate(out_dir, stdout)
    return _observe_campaign(w, out_dir)


def compare(values: dict[str, float | None], reference: dict) -> list[str]:
    """Problems where observed values leave the recorded value +- tolerance."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in reference:
            problems.append(f"{key}: no recorded value")
            continue
        got = values.get(key)
        want, tol = reference[key]["value"], reference[key]["tol"]
        if got is None or abs(got - want) > tol:
            problems.append(f"{key}: {got} outside {want:.3f} +- {tol:.3f}")
    return problems
