"""The paper's measurement procedure on the flagship preset, and a ledger of
the abstract's claims against the twin.

Runs the ``full`` preset's route and cluster campaigns at 15 degree steps,
5 sweeps of 20 averaged captures each, seed 1 (about 100 s on 2 cores),
into a temporary directory that is removed afterwards, so no bundle gains a
file.  Exits 1 unless route stops 5-11 fall monotonically across the LOS to
NLOS transition and the route's NLOS power spread exceeds its LOS one, as
acceptance 10 asks of the desk route.  Prints one ledger line per claim of
the abstract with the twin's value beside the paper's.

Usage: PYTHONPATH=src python tests/paper_procedure.py
"""

from __future__ import annotations

import math
import sys
import tempfile

import numpy as np

from corrsounder.channel import AntennaPattern, MultipathChannel, PathComponent, RxLocation, ScenarioConfig
from corrsounder.cli import shipped_scenario_path
from corrsounder.correlator import get_preset
from corrsounder.scenario_io import CampaignSpec, run_campaign
from corrsounder.sweep import Capture, LinkBudget, max_measurable_path_loss

PROCEDURE = dict(preset="full", step_deg=15.0, sweeps=5, averages=20, seed=1)


def campaign(kind: str, scenario: str, out_dir: str):
    spec = CampaignSpec(str(shipped_scenario_path(scenario)), kind, out_dir, **PROCEDURE)
    return run_campaign(spec)


def two_path_dip_db(chips: int) -> float:
    """Power midway between two equal noiseless paths ``chips`` apart, in
    dB under the weaker peak, through a full-preset capture (16 bins per
    chip)."""
    full = get_preset("full")
    iso = AntennaPattern.isotropic()
    sc = ScenarioConfig(
        name="two-path", tx_pattern=iso, rx_pattern=iso, noise_psd_dbm_hz=-math.inf,
        rx_locations=(RxLocation("R", (10.0, 0.0, 4.0)),),
    )
    bins = (320, 320 + 16 * chips)
    paths = tuple(
        PathComponent(
            delay_s=b / 16 / full.config.tx_chip_rate, gain=1.0, phase_rad=0.0,
            aod_az_deg=0.0, aod_el_deg=0.0, aoa_az_deg=180.0, aoa_el_deg=0.0,
        )
        for b in bins
    )
    capture = Capture(sc, 0, full, MultipathChannel(paths=paths, carrier_hz=73.5e9))
    _, trace = capture.acquire(iso, np.random.default_rng(0))
    power = trace.real**2 + trace.imag**2
    weaker = min(power[b - 8 : b + 8].max() for b in bins)
    return 10.0 * math.log10(power[sum(bins) // 2] / weaker)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        route = campaign("route", "corner_route", f"{tmp}/route")
        cluster = campaign("cluster", "corner_clusters", f"{tmp}/cluster")

    omni = [loc.omni_dbm for loc in route.locations]
    boundary = omni[4:11]  # stop 5, the last LOS one, through the canyon's stop 11
    print("route omni dBm:", [None if p is None else round(p, 2) for p in omni])
    failures = []
    if None in boundary or any(a < b for a, b in zip(boundary, boundary[1:])):
        failures.append(f"route stops 5-11 are not monotone: {boundary}")
    else:
        steps = [a - b for a, b in zip(boundary, boundary[1:])]
        print(f"route stops 5-11 monotone, smallest step {min(steps):.2f} dB")
    los_std, nlos_std = route.power_std_db["los"], route.power_std_db["nlos"]
    print(f"route power std LOS/NLOS {los_std:.2f}/{nlos_std:.2f} dB")
    if not nlos_std > los_std:
        failures.append(f"route NLOS std {nlos_std:.2f} dB is not above LOS std {los_std:.2f} dB")

    los = [loc.omni_dbm for loc in route.locations if loc.label == "los"]
    nlos = [loc.omni_dbm for loc in route.locations if loc.label == "nlos" and loc.omni_dbm is not None]
    budget = max_measurable_path_loss(LinkBudget.full_preset_budget())
    ledger = [
        ("LOS to NLOS omni power drop", "25 dB",
         f"{los[-1] - min(nlos):.1f} dB (last LOS stop to the weakest NLOS stop)"),
        ("cluster power std LOS/NLOS", "2.2/4.3 dB",
         f"{cluster.power_std_db['los-cluster']:.2f}/{cluster.power_std_db['nlos-cluster']:.2f} dB"),
        ("max measurable path loss", "185 dB",
         f"{budget:.2f} dB by the link budget; end-to-end detection limit not measured"),
        ("multipath resolution", "2 ns",
         f"two equal paths dip {two_path_dip_db(1):.1f} dB between them at 2 ns "
         f"and {two_path_dip_db(2):.1f} dB at 4 ns"),
    ]
    for claim, paper, twin in ledger:
        print(f"ledger: {claim}: paper {paper}, twin {twin}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
