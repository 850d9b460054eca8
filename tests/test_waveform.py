import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from corrsounder.errors import ConfigError, SimulationError
from corrsounder.pn import generate_msequence, preset
from corrsounder.waveform import (
    _kaiser_i0,
    design_lowpass_taps,
    read_waveform,
    upsample_chips,
    write_waveform,
)


@pytest.fixture(scope="module")
def seq3():
    return generate_msequence(preset(3))


@pytest.fixture(scope="module")
def seq11():
    return generate_msequence(preset(11))


class TestUpsample:
    def test_small_zero_order_hold(self, seq3):
        w = upsample_chips(seq3, 1e6, 2, periods=1)
        assert len(w) == 14
        assert w.sample_rate == 2e6
        expected = np.repeat(seq3.chips, 2)
        assert np.array_equal(w.samples.real, expected)
        assert np.all(w.samples.imag == 0)

    def test_dac_rates(self, seq11):
        w = upsample_chips(seq11, 500e6, 4)
        assert w.sample_rate == 2e9
        assert w.period_samples == 8188

    def test_periods_tile(self, seq3):
        one = upsample_chips(seq3, 1e6, 4, periods=1)
        three = upsample_chips(seq3, 1e6, 4, periods=3)
        assert np.array_equal(three.samples, np.tile(one.samples, 3))
        assert three.period_samples == one.period_samples

    def test_energy_per_period(self, seq11):
        w = upsample_chips(seq11, 500e6, 4, periods=2)
        per_period = np.abs(w.samples[: w.period_samples]) ** 2
        assert per_period.sum() == pytest.approx(2047 * 4)

    def test_aliasing_guard(self, seq3):
        with pytest.raises(ConfigError, match="aliasing"):
            upsample_chips(seq3, 1e6, 1)

    def test_periods_guard(self, seq3):
        with pytest.raises(ConfigError):
            upsample_chips(seq3, 1e6, 2, periods=0)


class TestDesignLowpassTaps:
    def test_unity_dc_gain(self):
        taps = design_lowpass_taps(600e3, 4e6)
        assert taps.size % 2 == 1
        assert taps.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "cutoff, fs",
        [(1e6, 8e6), (31250.0, 8e6), (31250.0, 125e3)],
        ids=["1MHz-at-8MSps", "desk-at-8MSps", "desk-at-output-rate"],
    )
    def test_twice_cutoff_attenuated(self, cutoff, fs):
        # the last case puts 2x cutoff exactly at Nyquist (the correlator's
        # output-rate design)
        taps = design_lowpass_taps(cutoff, fs)
        response = np.sum(taps * np.exp(-2j * np.pi * 2 * cutoff * np.arange(taps.size) / fs))
        assert 20 * np.log10(np.abs(response)) <= -40.0

    def test_cutoff_range(self):
        with pytest.raises(ConfigError):
            design_lowpass_taps(0.0, 4e6)
        with pytest.raises(ConfigError):
            design_lowpass_taps(2e6, 4e6)

    @pytest.mark.parametrize(
        "cutoff, fs",
        [(31250.0, 8e6), (125e3, 2e9), (125e3, 1e6), (1e6, 8e6), (31250.0, 125e3)],
        ids=["desk-at-8MSps", "full-at-2GSps", "full-at-1MSps", "1MHz-at-8MSps", "desk-at-output-rate"],
    )
    def test_bit_identical_to_scipy_signal(self, cutoff, fs):
        from scipy.signal import firwin, kaiserord

        nyq = fs / 2.0
        numtaps, beta = kaiserord(45.0, min(cutoff / 4.0, 2.0 * (nyq - cutoff) * 0.98) / nyq)
        numtaps += (numtaps + 1) % 2
        reference = firwin(numtaps, cutoff, window=("kaiser", beta), fs=fs)
        assert np.array_equal(design_lowpass_taps(cutoff, fs), reference / reference.sum())

    def test_kaiser_i0_bit_identical_to_scipy_special(self):
        from scipy.special import i0

        beta = 0.5842 * (45.0 - 21) ** 0.4 + 0.07886 * (45.0 - 21)
        x = np.linspace(0.0, beta, 100_001)
        assert np.array_equal(_kaiser_i0(x), i0(x))
        assert _kaiser_i0(beta) == i0(beta)

    def test_scipy_signal_stays_off_the_import_path(self):
        # A fresh interpreter: this test session has imported scipy.signal itself.
        code = (
            "import sys, corrsounder.cli\n"
            "from corrsounder.waveform import design_lowpass_taps\n"
            "design_lowpass_taps(31250.0, 8e6)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "[]"


class TestRuntimeWithoutScipy:
    def test_no_scipy_module_loaded(self):
        # A fresh interpreter in which every scipy import fails: the CLI, a
        # desk sweep and the full preset's correlator must run on numpy alone,
        # and the noise floor's median must not load numpy.ma.
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import corrsounder.cli\n"
            "from corrsounder.cli import shipped_scenario_path\n"
            "from corrsounder.correlator import correlate_fast, desk_preset, full_preset\n"
            "from corrsounder.scenario_io import load_scenario\n"
            "from corrsounder.sweep import check_location, run_sweep\n"
            "sc = load_scenario(shipped_scenario_path('corner_route'))\n"
            "desk = desk_preset()\n"
            "pdps = []\n"
            "spokes = run_sweep(sc, 0, step_deg=90.0, sweeps=1, seed=0, preset=desk,\n"
            "                   channel=check_location(sc, 0, desk), pdp_sink=pdps.append)\n"
            "full = full_preset()\n"
            "cir = correlate_fast(full.transmit_waveform(periods=1), full.config, full.chip_sequence())\n"
            "print(len(spokes), len(pdps), len(cir))\n"
            "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.split("\n")[:3] == ["4 4 32752", "[]", "False"]


class TestBinaryExport:
    def test_round_trip(self, tmp_path, seq3):
        w = upsample_chips(seq3, 1e6, 4, periods=2)
        path = tmp_path / "wave.bin"
        write_waveform(w, path)
        back = read_waveform(path)
        assert np.array_equal(back.samples, w.samples)
        assert back.sample_rate == w.sample_rate
        assert back.chip_rate == w.chip_rate
        assert back.period_samples == w.period_samples == len(w) // 2

    def test_other_version_refused(self, tmp_path):
        # version 1 carried a trigger_index header key; its files are refused
        blob = json.dumps({"chip_rate": 1e6, "count": 1, "period_samples": 1,
                           "sample_rate": 4e6, "trigger_index": 0}).encode()
        path = tmp_path / "old.bin"
        path.write_bytes(b"CSWF" + struct.pack("<II", 1, len(blob)) + blob + bytes(16))
        with pytest.raises(SimulationError, match="unsupported waveform version 1"):
            read_waveform(path)
