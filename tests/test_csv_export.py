"""Byte-for-byte oracle for the block-wise PDP and CIR CSV writers.

The reference formatters below are the row-by-row writers the block-wise
ones replaced: one f-string and one write per row.  Every case writes the
same profile with both and compares the bytes.
"""

import math

import numpy as np
import pytest

from corrsounder.cli import shipped_scenario_path
from corrsounder.correlator import (
    CSV_BLOCK_ROWS,
    DilatedCir,
    correlate_fast,
    desk_preset,
    full_preset,
    make_cir,
    write_cir_csv,
)
from corrsounder.pdp import PowerDelayProfile, pdp_from_iq, threshold_pdp, write_pdp_csv
from corrsounder.scenario_io import load_scenario
from corrsounder.sweep import Capture, check_location, run_sweep


def _dbm(power_mw: float) -> float:
    return -math.inf if power_mw <= 0.0 else 10.0 * math.log10(power_mw)


def reference_pdp_csv(pdp, path) -> None:
    def fmt(value) -> str:
        return "" if value is None else f"{value:.10g}"

    with open(path, "w", newline="") as fh:
        fh.write(f"# noise_floor_dbm={fmt(pdp.noise_floor_dbm)}\n")
        fh.write(f"# threshold_dbm={fmt(pdp.threshold_dbm)}\n")
        fh.write(f"# total_power_dbm={fmt(pdp.total_power_dbm)}\n")
        for key in ("angle", "location", "sweep"):
            if key in pdp.metadata:
                fh.write(f"# {key}={pdp.metadata[key]}\n")
        fh.write("excess_delay_ns,power_dBm\n")
        for delay, power in zip(pdp.excess_delay_s, pdp.power_mw):
            fh.write(f"{delay * 1e9:.10g},{_dbm(power):.10g}\n")


def reference_cir_csv(cir, path, cfg) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# slide_factor={cir.slide_factor:.10g}\n")
        fh.write(f"# compressed_bandwidth_hz={cir.compressed_bandwidth:.10g}\n")
        fh.write(f"# dilated_period_s={cir.dilated_period:.10g}\n")
        fh.write(f"# sample_rate_hz={cir.sample_rate:.10g}\n")
        fh.write(f"# tx_chip_rate_hz={cfg.tx_chip_rate:.10g}\n")
        fh.write(f"# rx_chip_rate_hz={cfg.rx_chip_rate:.10g}\n")
        fh.write(f"# code_length={cfg.code_length}\n")
        fh.write(f"# lpf_cutoff_hz={cfg.lpf_cutoff:.10g}\n")
        fh.write("compressed_time_s,i,q\n")
        for t, i, q in zip(cir.compressed_time, cir.i_channel, cir.q_channel):
            fh.write(f"{t:.10g},{i:.10g},{q:.10g}\n")


def assert_same_pdp_bytes(pdp, tmp_path):
    write_pdp_csv(pdp, tmp_path / "new.csv")
    reference_pdp_csv(pdp, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_same_cir_bytes(cir, cfg, tmp_path):
    write_cir_csv(cir, tmp_path / "new.csv", cfg)
    reference_cir_csv(cir, tmp_path / "ref.csv", cfg)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def axis_pdp(power, step_s=1e-9 / 16, **fields) -> PowerDelayProfile:
    power = np.asarray(power, dtype=float)
    return PowerDelayProfile(power_mw=power, excess_delay_s=np.arange(power.size) * step_s, **fields)


@pytest.fixture(scope="module")
def full():
    return full_preset()


@pytest.fixture(scope="module")
def full_cir(full):
    sc = load_scenario(shipped_scenario_path("corner_route"))
    channel = check_location(sc, 3, full)
    strongest = max(channel.paths, key=lambda p: p.gain)
    _, trace = Capture(sc, 3, full, channel).acquire(
        sc.rx_pattern.pointed(strongest.aoa_az_deg, sc.rx_elevation_deg), np.random.default_rng(3)
    )
    return make_cir(trace, full.config)


class TestPdpCsvOracle:
    def test_desk_sweep_pdps(self, tmp_path):
        sc = load_scenario(shipped_scenario_path("corner_clusters"))
        desk = desk_preset()
        pdps = []
        run_sweep(
            sc, 0, step_deg=90.0, sweeps=2, seed=5, preset=desk,
            channel=check_location(sc, 0, desk), pdp_sink=pdps.append,
        )
        assert len(pdps) == 8 and all(len(p) <= CSV_BLOCK_ROWS for p in pdps)
        # the first write formats the shared delay column, the others reuse it
        for pdp in pdps:
            assert_same_pdp_bytes(pdp, tmp_path)

    def test_full_preset_pdp_spans_several_blocks(self, full_cir, tmp_path):
        pdp = threshold_pdp(pdp_from_iq(full_cir, location="R04", angle=2.5))
        assert len(pdp) == 32_752 > 15 * CSV_BLOCK_ROWS
        assert pdp.total_power_dbm is not None
        assert_same_pdp_bytes(pdp, tmp_path)

    @pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS])
    def test_block_boundaries(self, rows, tmp_path):
        power = np.random.default_rng(rows).exponential(size=rows)
        power[::3] = 0.0
        assert_same_pdp_bytes(axis_pdp(power, noise_floor_dbm=-90.0), tmp_path)

    def test_back_to_back_on_one_axis(self, tmp_path):
        # the second file reuses the first one's cached delay blocks, so a
        # splice that changed a cached block would show in its bytes
        axis = np.arange(3 * CSV_BLOCK_ROWS) * (1e-9 / 16)
        first = np.zeros(axis.size)
        first[[CSV_BLOCK_ROWS + 5, 2 * CSV_BLOCK_ROWS + 1, axis.size - 1]] = [0.5, 1e-3, 2.0]
        second = np.zeros(axis.size)
        second[[CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS - 1, axis.size - 2]] = [3.0, 7e-5, 0.25]
        for power in (first, second):
            assert_same_pdp_bytes(PowerDelayProfile(power_mw=power, excess_delay_s=axis), tmp_path)

    def test_special_bins(self, tmp_path):
        power = [0.0, -0.0, math.nan, math.inf, 5e-324, -1.0, 1e-300, 1.0, 2.5e7]
        pdp = axis_pdp(
            power,
            noise_floor_dbm=-math.inf,
            threshold_dbm=math.nan,
            total_power_dbm=math.inf,
            metadata={"angle": 7.5, "location": "R02", "sweep": 0},
        )
        assert_same_pdp_bytes(pdp, tmp_path)
        # a NaN bin is not a zeroed bin: it prints as nan, not -inf
        rows = (tmp_path / "new.csv").read_text().splitlines()[-len(power):]
        assert [r.split(",")[1] for r in rows[:5]] == ["-inf", "-inf", "nan", "inf", "-3233.062153"]

    def test_none_fields_and_no_metadata(self, tmp_path):
        pdp = axis_pdp(np.linspace(0.0, 1.0, 300))
        assert pdp.noise_floor_dbm is pdp.threshold_dbm is pdp.total_power_dbm is None
        assert_same_pdp_bytes(pdp, tmp_path)
        assert (tmp_path / "new.csv").read_text().startswith(
            "# noise_floor_dbm=\n# threshold_dbm=\n# total_power_dbm=\nexcess_delay_ns,power_dBm\n"
        )


class TestCirCsvOracle:
    def test_desk(self, tmp_path):
        desk = desk_preset()
        cir = correlate_fast(desk.transmit_waveform(periods=1), desk.config, desk.chip_sequence())
        assert_same_cir_bytes(cir, desk.config, tmp_path)

    def test_full_preset(self, full, full_cir, tmp_path):
        assert len(full_cir) == 32_752
        assert_same_cir_bytes(full_cir, full.config, tmp_path)

    def test_special_values(self, tmp_path):
        i = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5e-300, 1.0])
        cir = DilatedCir(
            i_channel=i,
            q_channel=i[::-1].copy(),
            compressed_bandwidth=7812.5,
            slide_factor=128.0,
            dilated_period=i.size / 125e3,
            sample_rate=125e3,
        )
        assert_same_cir_bytes(cir, desk_preset().config, tmp_path)
