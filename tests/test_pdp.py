import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsounder.correlator import (
    COMPRESSED_SAMPLES_PER_CHIP,
    DilatedCir,
    correlate_fast,
    desk_preset,
)
from corrsounder.errors import AnalysisError, ConfigError
from corrsounder.pdp import (
    system_pulse_energy_bins,
    PowerDelayProfile,
    average_pdps,
    pdp_from_iq,
    threshold_in_place,
    threshold_pdp,
    write_pdp_csv,
)


def make_cir(i, q, sample_rate=125e3, gamma=128.0):
    i = np.asarray(i, dtype=float)
    return DilatedCir(
        i_channel=i,
        q_channel=np.asarray(q, dtype=float),
        compressed_bandwidth=7812.5,
        slide_factor=gamma,
        dilated_period=i.size / sample_rate,
        sample_rate=sample_rate,
    )


def make_pdp(power_mw, step_s=1e-6, **fields):
    power = np.asarray(power_mw, dtype=float)
    return PowerDelayProfile(
        power_mw=power, excess_delay_s=np.arange(power.size) * step_s, **fields
    )


class TestDelayAxisCheck:
    @pytest.mark.parametrize("jitter, uniform", [(1e-11, True), (1e-7, False)])
    def test_step_tolerance_is_relative_1e_9(self, jitter, uniform):
        delay = np.arange(6) * 8e-9
        delay[3] += jitter * 8e-9
        assert np.allclose(np.diff(delay), 8e-9, rtol=1e-9, atol=1e-18) == uniform
        if uniform:
            PowerDelayProfile(power_mw=np.ones(6), excess_delay_s=delay)
        else:
            with pytest.raises(ConfigError, match="uniform"):
                PowerDelayProfile(power_mw=np.ones(6), excess_delay_s=delay)

    @pytest.mark.parametrize(
        "delay",
        [[0.0, 1e-6, 3e-6, 4e-6], [0.0, np.nan, 2e-6, 3e-6], [np.nan, 1e-6, 2e-6, 3e-6]],
        ids=["non-uniform", "nan-inside", "nan-first"],
    )
    def test_bad_axis_rejected(self, delay):
        with pytest.raises(ConfigError, match="uniform"):
            PowerDelayProfile(power_mw=np.ones(4), excess_delay_s=np.array(delay))


class TestPdpFromIq:
    def test_power_is_i2_plus_q2(self):
        pdp = pdp_from_iq(make_cir([1.0, 0.0], [0.0, 1.0]))
        assert np.array_equal(pdp.power_mw, [1.0, 1.0])

    def test_zero_cir(self):
        pdp = pdp_from_iq(make_cir(np.zeros(8), np.zeros(8)))
        assert not pdp.power_mw.any()

    def test_delay_axis_dedilated(self):
        cir = make_cir(np.zeros(16), np.zeros(16), sample_rate=125e3, gamma=128.0)
        pdp = pdp_from_iq(cir)
        compressed_step = 1 / 125e3
        step = pdp.excess_delay_s[1] - pdp.excess_delay_s[0]
        assert step == pytest.approx(compressed_step / 128.0, rel=1e-12)

    def test_metadata_carried(self):
        pdp = pdp_from_iq(make_cir([1.0], [0.0]), angle=45.0, location="R01")
        assert pdp.metadata == {"angle": 45.0, "location": "R01"}


class TestAveraging:
    def test_mean_of_identical_is_identity(self):
        pdps = [make_pdp([1.0, 2.0, 3.0]) for _ in range(20)]
        out = average_pdps(pdps)
        assert np.array_equal(out.power_mw, [1.0, 2.0, 3.0])

    def test_two_profile_mean(self):
        out = average_pdps([make_pdp([2.0]), make_pdp([4.0])])
        assert np.array_equal(out.power_mw, [3.0])

    def test_axis_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            average_pdps([make_pdp([1.0, 2.0]), make_pdp([1.0, 2.0], step_s=2e-6)])

    def test_noise_floor_std_improves_6p5_db(self):
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(40):
            noise = rng.exponential(1.0, size=(20, 512))
            single_std = noise[0].std()
            averaged_std = average_pdps(
                [make_pdp(row) for row in noise]
            ).power_mw.std()
            ratios.append(10 * math.log10(single_std / averaged_std))
        assert np.mean(ratios) == pytest.approx(6.5, abs=1.0)

    def test_mean_floor_level_unchanged(self):
        rng = np.random.default_rng(4)
        noise = rng.exponential(1.0, size=(20, 2048))
        averaged = average_pdps([make_pdp(row) for row in noise])
        single_mean_db = 10 * math.log10(noise[0].mean())
        avg_mean_db = 10 * math.log10(averaged.power_mw.mean())
        assert abs(avg_mean_db - single_mean_db) <= 0.2


def floor_of(pdp) -> float:
    """The noise floor threshold_pdp estimates for a profile without one."""
    return threshold_pdp(pdp).noise_floor_dbm


class TestNoiseFloor:
    def test_synthetic_floor_recovered(self):
        rng = np.random.default_rng(7)
        floor_mw = 1e-10  # -100 dBm
        noise = rng.exponential(floor_mw, size=(20, 1000))
        pdp = average_pdps([make_pdp(row) for row in noise])
        pdp = replace(pdp, power_mw=pdp.power_mw.copy())
        pdp.power_mw[5] = 1e-6  # single early peak
        assert floor_of(pdp) == pytest.approx(-100.0, abs=0.5)

    def test_doubling_noise_adds_3db(self):
        rng = np.random.default_rng(8)
        base = rng.exponential(1e-9, size=5000)
        a = floor_of(make_pdp(base))
        b = floor_of(make_pdp(2 * base))
        assert b - a == pytest.approx(3.01, abs=0.01)

    def test_zero_noise_gives_minus_inf(self):
        pdp = make_pdp(np.zeros(200))
        assert floor_of(pdp) == -math.inf

    def test_needs_enough_samples(self):
        with pytest.raises(AnalysisError):
            floor_of(make_pdp(np.ones(50)))

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(100, 700),
        seed=st.integers(0, 2**32 - 1),
        special=st.sampled_from([None, 0.0, math.inf, math.nan]),
        ties=st.booleans(),
    )
    def test_bit_identical_to_np_median(self, size, seed, special, ties):
        rng = np.random.default_rng(seed)
        power = rng.exponential(1e-9, size=size)
        if ties:
            power = np.round(power, 10)
        if special is not None:
            power[rng.integers(size, size=2)] = special
        tail = power[-(size // 10) :]
        floor = floor_of(make_pdp(power))
        median = float(np.median(tail))
        expected = -math.inf if median <= 0.0 else 10.0 * math.log10(median)
        assert np.float64(floor).tobytes() == np.float64(expected).tobytes() or (
            math.isnan(floor) and math.isnan(expected)
        )


class TestThreshold:
    def make(self, peak_dbm, floor_dbm):
        power = np.full(100, 10 ** (floor_dbm / 10.0))
        power[10] = 10 ** (peak_dbm / 10.0)
        return make_pdp(power, noise_floor_dbm=floor_dbm)

    def test_peak_rule_binds(self):
        out = threshold_pdp(self.make(-60.0, -90.0))
        assert out.threshold_dbm == pytest.approx(-80.0)

    def test_snr_rule_binds(self):
        out = threshold_pdp(self.make(-60.0, -70.0))
        assert out.threshold_dbm == pytest.approx(-65.0)

    def test_all_below_threshold_is_signal_absent(self):
        power = np.full(100, 1e-9)
        pdp = make_pdp(power, noise_floor_dbm=-60.0)  # floor + 5 above all bins
        out = threshold_pdp(pdp)
        assert out.total_power_dbm is None
        assert not out.power_mw.any()

    @given(
        peak=st.floats(min_value=-120.0, max_value=0.0),
        gap=st.floats(min_value=0.1, max_value=60.0),
    )
    @settings(max_examples=200, deadline=None)
    @example(peak=-2.431279846547955e-16, gap=5.0)  # (peak - 5) + 5 rounds above peak
    def test_rule_is_max_of_both_criteria(self, peak, gap):
        floor = peak - gap
        out = threshold_pdp(self.make(peak, floor))
        assert out.threshold_dbm == pytest.approx(max(peak - 20.0, floor + 5.0), abs=1e-9)
        if floor + 5.0 <= peak:  # peak clears the SNR criterion and survives
            assert out.power_mw.max() > 0
        else:  # too close to the floor: the whole profile is signal-absent
            assert out.total_power_dbm is None

    @pytest.mark.parametrize("short", [50, 99])
    def test_short_profile_needs_a_floor(self, short):
        # threshold_pdp and the in-place core refuse to estimate a floor
        # below 100 bins
        pdp = make_pdp(np.ones(short))
        for threshold in (threshold_pdp, lambda p: threshold_in_place(p.power_mw.copy(), 1.0)):
            with pytest.raises(AnalysisError, match=">= 100 samples"):
                threshold(pdp)

    @pytest.mark.parametrize("case", ["noise", "all-zero", "nan-bin", "floor-given", "short-floor-given"])
    def test_core_is_threshold_pdp(self, case):
        # the in-place core on a copy of the power gives threshold_pdp's
        # profile bit for bit, and zeroes what np.where(power >= level) drops
        rng = np.random.default_rng(3)
        power = rng.exponential(1e-9, size=300)
        power[20] = 1e-6
        fields = {"pulse_bins": 2.5}
        if case == "all-zero":
            power[:] = 0.0
        elif case == "nan-bin":
            power[40] = math.nan
        elif case == "floor-given":  # 20 dB under the tail median: not re-estimated
            fields["noise_floor_dbm"] = floor_of(make_pdp(power)) - 20.0
        elif case == "short-floor-given":  # too short for an estimate, not needed
            power, fields["noise_floor_dbm"] = power[:50], -95.0
        pdp = make_pdp(power, **fields)
        out = threshold_pdp(pdp)
        core_power = power.copy()
        floor, threshold, total = threshold_in_place(core_power, 2.5, fields.get("noise_floor_dbm"))
        assert np.array_equal(core_power, out.power_mw)
        # repr: bit for bit, and a NaN threshold equals itself
        assert repr((floor, threshold, total)) == repr(
            (out.noise_floor_dbm, out.threshold_dbm, out.total_power_dbm)
        )
        assert np.array_equal(out.power_mw, np.where(power >= 10.0 ** (threshold / 10.0), power, 0.0))
        assert np.array_equal(pdp.power_mw, power, equal_nan=True)  # the input is left alone
        if case == "all-zero":
            assert floor == -math.inf and total is None
        elif case == "nan-bin":  # a NaN peak leaves no bin standing
            assert out.power_mw[40] == 0.0 and total is None
        elif case.endswith("floor-given"):
            assert floor == fields["noise_floor_dbm"]
            assert threshold == max(out.peak_power_dbm - 20.0, floor + 5.0)
            assert total is not None
        else:
            assert total is not None and out.power_mw[20] == 1e-6

    def test_total_power_calibrated_to_path_power(self):
        # end-to-end: a unit path through the correlator integrates back to
        # its peak power once divided by the measured pulse footprint
        preset = desk_preset()
        wave = preset.transmit_waveform(periods=128)
        cir = correlate_fast(wave, preset.config, preset.chip_sequence())
        pdp = pdp_from_iq(cir, system_pulse_energy_bins(preset))
        out = threshold_pdp(pdp)
        assert out.total_power_dbm == pytest.approx(out.peak_power_dbm, abs=0.05)


class TestPdpExport:
    def test_csv_round_trip(self, tmp_path):
        pdp = make_pdp(
            [1e-9, 5e-7, 0.0],
            noise_floor_dbm=-95.0,
            threshold_dbm=-80.0,
            total_power_dbm=-63.0,
            metadata={"angle": 30.0, "location": "R01", "sweep": 2},
        )
        path = tmp_path / "pdp.csv"
        write_pdp_csv(pdp, path)
        meta = {}
        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if row and row[0].startswith("# "):
                    key, value = row[0][2:].split("=", 1)
                    meta[key] = value
                elif row and row[0] != "excess_delay_ns":
                    rows.append(row)
        assert float(meta["noise_floor_dbm"]) == -95.0
        assert meta["location"] == "R01"
        assert len(rows) == 3
        assert float(rows[0][0]) == 0.0
        assert float(rows[1][1]) == pytest.approx(10 * math.log10(5e-7), abs=1e-6)
        assert float(rows[2][1]) == -math.inf
