import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from corrsounder.correlator import (
    COMPRESSED_SAMPLES_PER_CHIP,
    CorrelatorConfig,
    correlate_fast,
    correlate_literal,
    desk_preset,
    dilated_period,
    fast_kernel,
    full_preset,
    get_preset,
    processing_gain,
    rx_chip_rate_from_divider,
    slide_factor,
    write_cir_csv,
    _lpf_spectrum,
    _polyphase_plan,
    _template_plan,
)
from corrsounder.errors import ConfigError, SimulationError
from corrsounder.pdp import system_pulse_energy_bins
from corrsounder.pn import generate_msequence, preset
from corrsounder.waveform import upsample_chips


@pytest.fixture(scope="module")
def desk():
    return desk_preset()


@pytest.fixture(scope="module")
def desk_wave(desk):
    return desk.transmit_waveform(periods=128)


@pytest.fixture(scope="module")
def desk_chips(desk):
    return desk.chip_sequence()


class TestTimingMath:
    def test_slide_factor_flagship(self):
        cfg = full_preset().config
        assert slide_factor(cfg) == 8000.0

    def test_slide_factor_simple(self):
        cfg = CorrelatorConfig(1e6, 0.5e6, 127, lpf_cutoff=2e6)
        assert slide_factor(cfg) == 2.0

    def test_slide_factor_desk(self, desk):
        assert slide_factor(desk.config) == 128.0

    def test_dilated_period_flagship(self):
        assert math.isclose(dilated_period(full_preset().config), 32.752e-3, rel_tol=1e-12)

    def test_dilated_period_desk(self, desk):
        assert math.isclose(dilated_period(desk.config), 16.256e-3, rel_tol=1e-12)

    def test_dilated_period_linear_in_code_length(self, desk):
        doubled = replace(desk.config, code_length=254)
        assert dilated_period(doubled) == pytest.approx(2 * dilated_period(desk.config))

    def test_processing_gain_values(self):
        assert processing_gain(8000.0) == pytest.approx(39.03, abs=0.01)
        assert processing_gain(128.0) == pytest.approx(21.07, abs=0.01)
        assert processing_gain(10.0) == pytest.approx(10.0, abs=1e-12)

    def test_processing_gain_needs_gain(self):
        with pytest.raises(ConfigError):
            processing_gain(1.0)

    def test_rx_rate_from_divider(self):
        assert rx_chip_rate_from_divider(1999.75e6, 4) == 499.9375e6
        assert rx_chip_rate_from_divider(2000e6, 4) == 500e6
        assert rx_chip_rate_from_divider(7.7e6, 1) == 7.7e6
        with pytest.raises(ConfigError):
            rx_chip_rate_from_divider(1e6, 0)

    def test_period_slide_and_rate_consistent(self, desk):
        cfg = desk.config
        assert dilated_period(cfg) == pytest.approx(
            cfg.code_length * slide_factor(cfg) / cfg.tx_chip_rate, rel=1e-12
        )


class TestConfigValidation:
    def test_rx_must_be_slower(self):
        with pytest.raises(ConfigError):
            CorrelatorConfig(1e6, 1e6, 127)

    def test_lpf_floor(self):
        with pytest.raises(ConfigError, match="lpf_cutoff"):
            CorrelatorConfig(1e6, 1e6 * 127 / 128, 127, lpf_cutoff=1e4)

    def test_default_lpf_is_4x_offset(self):
        cfg = CorrelatorConfig(1e6, 1e6 * 127 / 128, 127)
        assert cfg.lpf_cutoff == 4 * cfg.rate_offset


class TestLiteralMixer:
    def test_identity_peak_at_zero_delay(self, desk, desk_wave, desk_chips):
        cir = correlate_literal(desk_wave, desk.config, desk_chips)
        assert len(cir) == 127 * COMPRESSED_SAMPLES_PER_CHIP
        power = cir.i_channel**2 + cir.q_channel**2
        assert power.argmax() == 0
        assert power.max() == pytest.approx(1.0, abs=0.15)

    def test_delay_dilation_mapping(self, desk, desk_wave, desk_chips):
        delayed = replace(desk_wave, samples=np.roll(desk_wave.samples, 20 * 8))
        cir = correlate_literal(delayed, desk.config, desk_chips)
        power = np.abs(cir.cir) ** 2
        assert power.argmax() == 20 * COMPRESSED_SAMPLES_PER_CHIP

    def test_two_path_separation(self, desk, desk_wave, desk_chips):
        from scipy.signal import find_peaks

        s = np.roll(desk_wave.samples, 30 * 8) + 0.8 * np.roll(desk_wave.samples, 35 * 8)
        cir = correlate_literal(replace(desk_wave, samples=s), desk.config, desk_chips)
        power = np.abs(cir.cir) ** 2
        maxima, _ = find_peaks(power, distance=COMPRESSED_SAMPLES_PER_CHIP // 2)
        top = sorted(maxima[np.argsort(power[maxima])[-2:]])
        assert abs(top[1] - top[0] - 5 * COMPRESSED_SAMPLES_PER_CHIP) <= 1

    def test_record_too_short(self, desk, desk_chips):
        short = desk.transmit_waveform(periods=10)
        with pytest.raises(SimulationError, match="dilated period"):
            correlate_literal(short, desk.config, desk_chips)

    def test_code_length_mismatch(self, desk, desk_wave):
        other = full_preset().chip_sequence()
        with pytest.raises(ConfigError, match="code length"):
            correlate_literal(desk_wave, desk.config, other)


class TestFastEquivalent:
    def test_exact_match_on_identity(self, desk, desk_wave, desk_chips):
        lit = correlate_literal(desk_wave, desk.config, desk_chips)
        fast = correlate_fast(desk_wave, desk.config, desk_chips)
        assert np.abs(lit.cir - fast.cir).max() < 1e-10

    def test_exact_match_on_multipath(self, desk, desk_wave, desk_chips):
        rng = np.random.default_rng(5)
        s = np.zeros_like(desk_wave.samples)
        for _ in range(4):
            s += rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random()) * np.roll(
                desk_wave.samples, rng.integers(0, 100 * 8)
            )
        lit = correlate_literal(replace(desk_wave, samples=s), desk.config, desk_chips)
        fast = correlate_fast(replace(desk_wave, samples=s), desk.config, desk_chips)
        assert np.abs(lit.cir - fast.cir).max() < 1e-10

    @pytest.mark.parametrize(
        "order, gamma, spc, phases",
        [(3, 8, 8, 16), (7, 255, 16, 8)],
        ids=["order3-gamma8-spc8", "order7-gamma255-spc16"],
    )
    def test_exact_match_on_other_grid_periodic_configs(self, order, gamma, spc, phases):
        # the polyphase kernel on configs other than desk: its phase count
        # R = P2 / gcd(P2, step), that it computes only the d // step kept
        # bins, and the 1e-10 bound against the oracle
        chips = generate_msequence(preset(order))
        cfg = CorrelatorConfig(1e6, 1e6 * (gamma - 1) / gamma, len(chips))
        wave = upsample_chips(chips, cfg.tx_chip_rate, spc, gamma)
        spectra, gather = _polyphase_plan(cfg, wave.sample_rate, chips)
        kept = len(chips) * COMPRESSED_SAMPLES_PER_CHIP  # d // step
        # stored as (M, g, R)
        assert spectra.shape[2] == phases
        assert spectra.shape[0] * spectra.shape[1] == len(chips) * spc
        assert spectra.shape[0] * spectra.shape[2] == kept
        assert np.array_equal(np.sort(gather), np.arange(kept))
        rng = np.random.default_rng(order)
        s = np.zeros_like(wave.samples)
        for _ in range(3):
            s += rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random()) * np.roll(
                wave.samples, rng.integers(0, len(chips) * spc)
            )
        lit = correlate_literal(replace(wave, samples=s), cfg, chips)
        fast = correlate_fast(replace(wave, samples=s), cfg, chips)
        one = correlate_fast(replace(wave, samples=s[: len(chips) * spc]), cfg, chips)
        assert np.abs(lit.cir - fast.cir).max() < 1e-10
        assert np.abs(lit.cir - one.cir).max() < 1e-10

    def test_fast_accepts_single_code_period(self, desk, desk_chips):
        one = desk.transmit_waveform(periods=1)
        cir = correlate_fast(one, desk.config, desk_chips)
        assert np.argmax(np.abs(cir.cir)) == 0

    def test_fast_rejects_shorter_than_code_period(self, desk, desk_chips):
        one = desk.transmit_waveform(periods=1)
        stub = replace(one, samples=one.samples[:500], period_samples=500)
        with pytest.raises(SimulationError, match="code period"):
            correlate_fast(stub, desk.config, desk_chips)

    def test_full_preset_template_branch_delay_mapping(self):
        # rx code has no grid-exact period at 2 GS/s, exercising the folded
        # template branch; 10-chip delay lands on bin 160
        preset = full_preset()
        assert _polyphase_plan(preset.config, preset.sample_rate, preset.chip_sequence()) is None
        wave = preset.transmit_waveform(periods=2)
        delayed = replace(wave, samples=np.roll(wave.samples, 10 * 4))
        cir = correlate_fast(delayed, preset.config, preset.chip_sequence())
        assert len(cir) == 2047 * COMPRESSED_SAMPLES_PER_CHIP
        assert abs(np.argmax(np.abs(cir.cir)) - 10 * COMPRESSED_SAMPLES_PER_CHIP) <= 1

    def test_full_preset_reaches_msequence_floor(self):
        # with slide factor >> code length the mixer cross terms fall outside
        # the low-pass band and the noiseless floor obeys the m-sequence bound
        preset = full_preset()
        wave = preset.transmit_waveform(periods=2)
        cir = correlate_fast(wave, preset.config, preset.chip_sequence())
        envelope = np.abs(cir.cir)
        ratio_db = 20 * np.log10(envelope.max() / np.median(envelope))
        assert ratio_db >= 20 * math.log10(2047) - 3

    def test_desk_floor_is_self_noise_limited(self, desk, desk_wave, desk_chips):
        # at slide factor = code length + 1 the mixer self-noise sits inside
        # the compressed band; both receiver paths show the same ~17 dB floor
        lit = correlate_literal(desk_wave, desk.config, desk_chips)
        envelope = np.abs(lit.cir)
        ratio_db = 20 * np.log10(envelope.max() / np.median(envelope))
        assert 14.0 <= ratio_db <= 25.0

    def test_noise_only_input_detects_nothing_in_either_path(self, desk, desk_wave, desk_chips):
        # statistical agreement: with 20 averaged acquisitions of pure noise,
        # neither receiver keeps any sample above the floor + 5 dB threshold
        from corrsounder.pdp import average_pdps, pdp_from_iq, threshold_pdp

        rng = np.random.default_rng(17)
        for correlate in (correlate_literal, correlate_fast):
            acquisitions = []
            for _ in range(20):
                noise = (rng.standard_normal(len(desk_wave)) +
                         1j * rng.standard_normal(len(desk_wave))) / np.sqrt(2)
                cir = correlate(replace(desk_wave, samples=noise), desk.config, desk_chips)
                acquisitions.append(pdp_from_iq(cir))
            out = threshold_pdp(average_pdps(acquisitions))
            assert out.total_power_dbm is None


#: Configs without a grid-exact slow-code period, which take the template
#: branch: name -> (config, code, samples per chip).  The proxy is order 7,
#: slide factor 500, 4 samples per chip and the low-pass at twice the rate
#: offset, so its dilated record is only 254,000 samples.  At 8 and 16
#: samples per chip it has u = 2 and u = 1 compressed bins per sample: an
#: even box, and no box.
_PROXY = CorrelatorConfig(1e6, 1e6 * 499 / 500, 127, lpf_cutoff=2e6 / 500)
_TEMPLATE_CONFIGS = {
    "full": (full_preset().config, preset(11), 4),
    "proxy": (_PROXY, preset(7), 4),
    "proxy-8spc": (_PROXY, preset(7), 8),
    "proxy-16spc": (_PROXY, preset(7), 16),
}


@pytest.fixture(scope="module", params=sorted(_TEMPLATE_CONFIGS))
def template_config(request):
    cfg, spec, spc = _TEMPLATE_CONFIGS[request.param]
    return request.param, cfg, generate_msequence(spec), spc


def _tiled_template(cfg, fs, chips, period):
    """The template branch as the tile product the plan replaced: the folded
    period's spectrum tiled onto the compressed grid times the response."""
    spc = round(fs / cfg.tx_chip_rate)
    m = COMPRESSED_SAMPLES_PER_CHIP * cfg.code_length
    up = m // period.size
    template = np.repeat(chips.chips.astype(np.float64), spc)
    lpf = _lpf_spectrum(cfg, cfg.compressed_sample_rate, m)
    response = np.tile(np.conj(np.fft.fft(template)), up) * lpf
    box = np.zeros(m)
    box[:up] = 1.0 / up
    response *= np.fft.fft(np.roll(box, -(up // 2))) * (up / period.size)
    reps = response.size // period.size
    return np.fft.ifft(np.tile(np.fft.fft(period), reps) * response)


class TestTemplatePlan:
    def test_stored_in_the_polyphase_layout(self, template_config):
        name, cfg, chips, spc = template_config
        fs = cfg.tx_chip_rate * spc
        assert _polyphase_plan(cfg, fs, chips) is None
        spectra, gather = _template_plan(cfg, fs, chips)
        # (M, g, R) = (P, 1, u), u compressed bins per code-period sample
        assert spectra.shape == {
            "full": (8188, 1, 4),
            "proxy": (508, 1, 4),
            "proxy-8spc": (1016, 1, 2),
            "proxy-16spc": (2032, 1, 1),
        }[name]
        assert gather == slice(None)

    @pytest.mark.parametrize("delay_chips", [0, 10, 37])
    def test_matches_the_tiled_template_product(self, template_config, delay_chips):
        _, cfg, chips, spc = template_config
        fs = cfg.tx_chip_rate * spc
        compress = fast_kernel(cfg, fs, chips).compress
        wave = upsample_chips(chips, cfg.tx_chip_rate, spc, 1)
        period = np.roll(wave.samples, delay_chips * spc)
        reference = _tiled_template(cfg, fs, chips, period)
        assert np.abs(compress(period) - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("delay_chips", [0, 10, 37])
    def test_error_against_the_oracle_on_the_proxy(self, delay_chips):
        # the template branch's stated bound: within -17 dB of the literal
        # peak over the whole trace (measured -19.3, -17.3 and -17.6 dB).
        # Peak bins are not compared: the chip-edge model puts them up to 2
        # bins after the oracle's
        cfg, spec, spc = _TEMPLATE_CONFIGS["proxy"]
        chips = generate_msequence(spec)
        wave = upsample_chips(chips, cfg.tx_chip_rate, spc, round(slide_factor(cfg)))
        rx = replace(wave, samples=np.roll(wave.samples, delay_chips * spc))
        lit = correlate_literal(rx, cfg, chips).cir
        fast = correlate_fast(rx, cfg, chips).cir
        assert 20 * np.log10(np.abs(lit - fast).max() / np.abs(lit).max()) <= -17.0


class TestCompressLinearity:
    @pytest.mark.parametrize("name", ["desk", "full"])
    def test_weighted_sum_of_inputs(self, name):
        # compress(a x + b y) = a compress(x) + b compress(y), with x a
        # delayed probe period and y white noise: a capture's signal and
        # noise responses add, on both kernel branches
        sounder = get_preset(name)
        kernel = fast_kernel(sounder.config, sounder.sample_rate, sounder.chip_sequence())
        p, compress = kernel.period, kernel.compress
        x = np.roll(sounder.transmit_waveform().samples, 10 * sounder.samples_per_chip)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        a, b = 0.7 - 1.9j, -2.3 + 0.4j
        both = compress(a * x + b * y)
        separate = a * compress(x) + b * compress(y)
        assert np.abs(both - separate).max() <= 1e-13 * np.abs(both).max()


class TestPulseCalibration:
    def test_single_path_total_equals_peak(self, desk):
        bins = system_pulse_energy_bins(desk)
        assert bins > 1.0
        # the footprint is defined so that integrating a unit path's pulse
        # and dividing by it returns the peak power; checked in test_pdp

    def test_full_preset_footprint_near_triangle(self):
        # clean correlation: footprint close to the analytic triangular value
        bins = system_pulse_energy_bins(full_preset())
        triangle = 1 + 2 * sum((1 - j / 16) ** 2 for j in range(1, 16))
        assert bins == pytest.approx(triangle, rel=0.15)


class TestPresets:
    def test_get_preset(self):
        assert get_preset("desk").name == "desk"
        assert get_preset("full").name == "full"
        with pytest.raises(ConfigError):
            get_preset("bench")

    def test_full_preset_parameters(self):
        preset = full_preset()
        assert preset.config.code_length == 2047
        assert preset.config.tx_chip_rate == 500e6
        assert preset.config.rx_chip_rate == 499.9375e6
        assert preset.sample_rate == 2e9
        assert preset.samples_per_chip == 4

    def test_desk_waveform_is_one_dilated_period(self, desk, desk_wave):
        assert len(desk_wave) == round(dilated_period(desk.config) * desk.sample_rate)

    def test_default_waveform_is_one_code_period(self, desk):
        # the dilated record (130,048 samples on desk, 65.5 M on full) only
        # when asked for
        assert len(desk.transmit_waveform()) == 127 * desk.samples_per_chip


class TestCirExport:
    def test_csv_round_numbers(self, tmp_path, desk, desk_wave, desk_chips):
        cir = correlate_fast(desk_wave, desk.config, desk_chips)
        path = tmp_path / "cir.csv"
        write_cir_csv(cir, path, desk.config)
        meta = {}
        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if row and row[0].startswith("# "):
                    key, value = row[0][2:].split("=", 1)
                    meta[key] = value
                elif row and row[0] != "compressed_time_s":
                    rows.append([float(v) for v in row])
        assert float(meta["slide_factor"]) == 128.0
        assert float(meta["compressed_bandwidth_hz"]) == 7812.5
        assert len(rows) == len(cir)
        assert rows[1][0] == pytest.approx(1 / cir.sample_rate)
