"""Do only a workload's set-up calls, in a fresh process.

Usage: setup_child.py SCENARIO_NAME PRESET_NAME

The benchmark times this process from outside, interpreter start-up
included, so work moved into set-up shows as ``setup_s``.
"""

import sys
from pathlib import Path

import corrsounder
from corrsounder import get_preset, load_scenario
from corrsounder.pdp import system_pulse_energy_bins


def main(scenario: str, preset_name: str) -> None:
    load_scenario(Path(corrsounder.__file__).parent / "scenarios" / f"{scenario}.yaml")
    preset = get_preset(preset_name)
    preset.transmit_waveform()
    system_pulse_energy_bins(preset)


if __name__ == "__main__":
    main(*sys.argv[1:])
