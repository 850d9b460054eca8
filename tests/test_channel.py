import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c as C
from scipy.special import fresnel

from corrsounder.channel import (
    AntennaPattern,
    MultipathChannel,
    PathComponent,
    Reflector,
    RxLocation,
    SPEED_OF_LIGHT,
    ScenarioConfig,
    Wall,
    _azimuth_deg,
    apply_channel,
    fresnel_parameter,
    fspl,
    knife_edge_loss_db,
    pattern_gain,
    synthesize_channel,
)
from corrsounder.errors import ConfigError, SimulationError
from corrsounder.pn import generate_msequence, preset
from corrsounder.waveform import upsample_chips


class TestFspl:
    def test_reference_distance_at_carrier(self):
        assert fspl(1.0, 73.5e9) == pytest.approx(69.8, abs=0.05)

    def test_20db_per_decade(self):
        assert fspl(10.0, 73.5e9) - fspl(1.0, 73.5e9) == pytest.approx(20.0, abs=1e-9)

    def test_frequency_doubling(self):
        assert fspl(1.0, 2 * 73.5e9) - fspl(1.0, 73.5e9) == pytest.approx(6.02, abs=0.005)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            fspl(0.0, 1e9)
        with pytest.raises(ConfigError):
            fspl(1.0, -1.0)

    @pytest.mark.parametrize("d, f", [(math.nan, 1e9), (1.0, math.nan), (math.inf, 1e9), (1.0, math.inf)])
    def test_rejects_non_finite(self, d, f):
        with pytest.raises(ConfigError, match="finite positive"):
            fspl(d, f)

    @pytest.mark.parametrize("f", [1.5e307, 5e-324], ids=["overflow", "underflow"])
    def test_rejects_out_of_float_range(self, f):
        # 4 pi d f / c must be a positive finite float for its log
        with pytest.raises(ConfigError, match="out of float range"):
            fspl(1.0, f)

    @pytest.mark.parametrize("d, f", [(1.0, 1e6), (1e-4, 73.5e9), (20.0, 1e-300)])
    def test_rejects_a_negative_loss(self, d, f):
        # 4 pi d f / c < 1 would make the loss a gain
        with pytest.raises(ConfigError, match="would be negative"):
            fspl(d, f)

    def test_speed_of_light_is_scipy_value(self):
        assert SPEED_OF_LIGHT == C


class TestPatternGain:
    def test_boresight(self):
        assert pattern_gain(AntennaPattern.tx_horn(), 0.0, 0.0) == 27.0

    def test_half_hpbw_is_exactly_minus_3db(self):
        p = AntennaPattern.tx_horn()
        assert pattern_gain(p, 3.5, 0.0) == pytest.approx(24.0, abs=1e-12)
        assert pattern_gain(p, 0.0, 3.5) == pytest.approx(24.0, abs=1e-12)

    def test_sidelobe_floor(self):
        assert pattern_gain(AntennaPattern.tx_horn(), 90.0, 0.0) == pytest.approx(-3.0)

    def test_azimuth_wraparound(self):
        p = AntennaPattern.rx_horn().pointed(359.0, 0.0)
        assert pattern_gain(p, 1.0, 0.0) == pytest.approx(
            pattern_gain(p, 357.0, 0.0), abs=1e-12
        )

    @pytest.mark.parametrize(
        "az, wrapped", [(-1e-20, 0.0), (-0.0, 0.0), (360.0, 0.0), (-90.0, 270.0), (719.5, 359.5)]
    )
    def test_pointing_wraps_into_one_turn(self, az, wrapped):
        # a tiny negative azimuth rounds to 360.0 under % alone
        got = AntennaPattern.rx_horn().pointed(az, 0.0).pointing_az_deg
        assert got == wrapped and 0.0 <= got < 360.0

    def test_bearing_just_below_east_is_zero(self):
        # atan2 of a tiny negative y is a tiny negative angle
        assert _azimuth_deg((0.0, 0.0), (1.0, -1e-300)) == 0.0
        assert _azimuth_deg((0.0, 0.0), (0.0, -1.0)) == 270.0

    def test_monotone_rolloff_to_floor(self):
        p = AntennaPattern.rx_horn()
        gains = [pattern_gain(p, az, 0.0) for az in np.linspace(0, 180, 361)]
        assert all(b <= a + 1e-12 for a, b in zip(gains, gains[1:]))
        assert gains[-1] == pytest.approx(20.0 - 30.0)

    @pytest.mark.parametrize("hpbw", [1e-300, 5e-324])
    def test_tiny_hpbw_rolls_off_to_the_floor(self, hpbw):
        # squares of offsets this many HPBW wide would overflow
        p = AntennaPattern(20.0, hpbw, hpbw)
        assert pattern_gain(p, 0.0, 0.0) == 20.0
        assert pattern_gain(p, 180.0, 0.0) == -10.0
        assert pattern_gain(p, 0.0, -90.0) == -10.0

    def test_hpbw_validation(self):
        with pytest.raises(ConfigError):
            AntennaPattern(10.0, 0.0, 7.0)

    @pytest.mark.parametrize("floor", [-1e-9, -1000.0, math.nan])
    def test_floor_above_boresight_rejected(self, floor):
        # a negative floor put sidelobes above boresight: +inf dBm summaries
        with pytest.raises(ConfigError, match="floor_db"):
            AntennaPattern(1000.0, 7.0, 7.0, floor_db=floor)


class TestKnifeEdge:
    def test_against_exact_fresnel_integral(self):
        # oracle: |F(nu)|^2 = 0.5 * [(0.5 - C)^2 + (0.5 - S)^2]
        for nu in (0.5, 1.0, 2.4, 5.0):
            s, c = fresnel(nu)
            exact = -10 * math.log10(0.5 * ((0.5 - c) ** 2 + (0.5 - s) ** 2))
            assert knife_edge_loss_db(nu) == pytest.approx(exact, abs=0.5)

    def test_deep_shadow_value(self):
        # nu = 2.4 evaluates near 20.5 dB (both by the standard approximation
        # and the exact Fresnel integral, 20.6 dB)
        assert 19.0 <= knife_edge_loss_db(2.4) <= 23.0

    def test_grazing_is_6db(self):
        assert knife_edge_loss_db(0.0) == pytest.approx(6.0, abs=0.1)

    def test_clear_path_no_loss(self):
        assert knife_edge_loss_db(-1.0) == 0.0

    def test_far_edge_loss_is_finite(self):
        # the parameter is capped at 1e150, where its square would overflow
        assert knife_edge_loss_db(1e200) == knife_edge_loss_db(1e150) == pytest.approx(3012.92, abs=0.01)

    def test_fresnel_parameter_geometry(self):
        # edge 1 m off a 200 m line at its midpoint
        lam = C / 73.5e9
        nu = fresnel_parameter((0, 0), (200, 0), (100, 1.0), lam)
        expected = 1.0 * math.sqrt(2 * 200 / (lam * 100 * 100))
        assert nu == pytest.approx(expected, rel=1e-6)


def flat_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="test",
        tx_position_m=(0.0, 0.0, 4.0),
        rx_locations=(RxLocation("RX0", (30.0, 0.0, 4.0)),),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestSynthesizeChannel:
    def test_unobstructed_direct_path(self):
        ch = synthesize_channel(flat_scenario(), 0)
        assert len(ch) == 1
        path = ch.paths[0]
        assert path.kind == "direct"
        assert path.delay_s == pytest.approx(30.0 / C, rel=1e-12)
        assert path.delay_s * 1e9 == pytest.approx(100.07, abs=0.01)
        assert path.gain_db == pytest.approx(-fspl(30.0, 73.5e9), abs=1e-9)
        assert path.aod_az_deg == pytest.approx(0.0)
        assert path.aoa_az_deg == pytest.approx(180.0)

    def test_deep_shadow_diffraction_loss(self):
        # geometry tuned so the Fresnel parameter is 2.4: perpendicular
        # offset h = 2.4 / sqrt(2 * 200 / (lam * 100 * 100))
        lam = C / 73.5e9
        h = 2.4 / math.sqrt(2 * 200 / (lam * 100 * 100))
        # screen covers the sight line from below, its top edge h above it
        sc = flat_scenario(
            rx_locations=(RxLocation("RX0", (200.0, 0.0, 4.0), label="nlos"),),
            walls=(Wall((100.0, h), (100.0, -50.0)),),
            wedges=((100.0, h),),
        )
        ch = synthesize_channel(sc, 0)
        assert [p.kind for p in ch.paths] == ["diffraction"]
        extra = -ch.paths[0].gain_db - fspl(
            math.hypot(200.0, 0.0) + 2 * (math.hypot(100.0, h) - 100.0), 73.5e9
        )
        assert extra == pytest.approx(knife_edge_loss_db(2.4), abs=0.2)

    def test_reflector_composition_rule(self):
        # mirror geometry: TX (0,0), RX (40,0) hidden by nothing, reflector
        # plane at y = 10 -> path length sqrt(40^2 + 20^2)
        sc = flat_scenario(
            rx_locations=(RxLocation("RX0", (40.0, 0.0, 4.0)),),
            reflectors=(Reflector((0.0, 10.0), (40.0, 10.0), loss_db=6.0),),
        )
        ch = synthesize_channel(sc, 0)
        kinds = {p.kind for p in ch.paths}
        assert kinds == {"direct", "reflection"}
        bounce = next(p for p in ch.paths if p.kind == "reflection")
        length = math.hypot(40.0, 20.0)
        assert bounce.gain_db == pytest.approx(-(fspl(length, 73.5e9) + 6.0), abs=1e-9)
        assert bounce.delay_s == pytest.approx(length / C, rel=1e-12)

    def test_blocked_without_paths_warns_empty(self, caplog):
        sc = flat_scenario(walls=(Wall((15.0, -100.0), (15.0, 100.0)),))
        with caplog.at_level("WARNING"):
            ch = synthesize_channel(sc, 0)
        assert len(ch) == 0
        assert "no propagation path" in caplog.text

    def test_deterministic(self):
        sc = flat_scenario(
            rx_locations=(RxLocation("RX0", (40.0, 3.0, 1.5)),),
            reflectors=(Reflector((0.0, 10.0), (40.0, 10.0), loss_db=4.0),),
        )
        a = synthesize_channel(sc, 0)
        b = synthesize_channel(sc, 0)
        assert a.paths == b.paths

    def test_rx_index_checked(self):
        with pytest.raises(ConfigError):
            synthesize_channel(flat_scenario(), 5)


def unit_path(delay=0.0, gain=1.0, phase=0.0, **kw):
    angles = dict(aod_az_deg=0.0, aod_el_deg=0.0, aoa_az_deg=180.0, aoa_el_deg=0.0)
    angles.update(kw)
    return PathComponent(delay_s=delay, gain=gain, phase_rad=phase, **angles)


@pytest.fixture(scope="module")
def probe():
    return upsample_chips(generate_msequence(preset(7)), 250e6, 8)


ISO = AntennaPattern.isotropic()


class TestApplyChannel:
    def test_identity_channel(self, probe):
        ch = MultipathChannel(paths=(unit_path(),), carrier_hz=73.5e9)
        out = apply_channel(probe, ch, ISO, ISO)
        assert np.allclose(out.samples, probe.samples)

    def test_delay_maps_to_samples(self, probe):
        # 100 ns at 2 GS/s -> 200 samples
        ch = MultipathChannel(paths=(unit_path(delay=100e-9),), carrier_hz=73.5e9)
        out = apply_channel(probe, ch, ISO, ISO)
        assert np.allclose(out.samples, np.roll(probe.samples, 200) * np.exp(0j))

    def test_destructive_pair_cancels(self, probe):
        ch = MultipathChannel(
            paths=(unit_path(phase=0.0), unit_path(phase=math.pi)), carrier_hz=73.5e9
        )
        out = apply_channel(probe, ch, ISO, ISO)
        assert np.abs(out.samples).max() < 1e-12

    def test_linear_in_input_and_additive_over_paths(self, probe):
        p1 = unit_path(delay=20e-9, gain=0.5, phase=0.3)
        p2 = unit_path(delay=60e-9, gain=0.25, phase=2.0)
        both = MultipathChannel(paths=(p1, p2), carrier_hz=73.5e9)
        only1 = MultipathChannel(paths=(p1,), carrier_hz=73.5e9)
        only2 = MultipathChannel(paths=(p2,), carrier_hz=73.5e9)
        out = apply_channel(probe, both, ISO, ISO).samples
        parts = (
            apply_channel(probe, only1, ISO, ISO).samples
            + apply_channel(probe, only2, ISO, ISO).samples
        )
        assert np.allclose(out, parts)
        scaled_in = replace(probe, samples=probe.samples * (2.0 - 1.0j))
        assert np.allclose(
            apply_channel(scaled_in, both, ISO, ISO).samples, out * (2.0 - 1.0j)
        )

    def test_energy_scaling_with_gains(self, probe):
        ch = MultipathChannel(paths=(unit_path(gain=0.1),), carrier_hz=73.5e9)
        tx = AntennaPattern(13.0, 10.0, 10.0)
        rx = AntennaPattern(7.0, 20.0, 20.0).pointed(180.0, 0.0)
        out = apply_channel(probe, ch, tx, rx)
        in_energy = np.sum(np.abs(probe.samples) ** 2)
        out_energy = np.sum(np.abs(out.samples) ** 2)
        expected = (0.1 * 10 ** ((13.0 + 7.0) / 20.0)) ** 2
        assert out_energy / in_energy == pytest.approx(expected, rel=1e-9)

    def test_delay_beyond_period_is_ambiguous(self, probe):
        period_s = probe.period_samples / probe.sample_rate
        ch = MultipathChannel(paths=(unit_path(delay=period_s),), carrier_hz=73.5e9)
        with pytest.raises(SimulationError, match="alias"):
            apply_channel(probe, ch, ISO, ISO)

    def test_noise_deterministic_given_seed(self, probe):
        ch = MultipathChannel(paths=(unit_path(),), carrier_hz=73.5e9)
        a = apply_channel(probe, ch, ISO, ISO, noise_psd_dbm_hz=-150.0, rng=42)
        b = apply_channel(probe, ch, ISO, ISO, noise_psd_dbm_hz=-150.0, rng=42)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_power_matches_psd(self, probe):
        ch = MultipathChannel(paths=(), carrier_hz=73.5e9)
        psd = -150.0
        out = apply_channel(probe, ch, ISO, ISO, noise_psd_dbm_hz=psd, rng=1)
        measured = np.mean(np.abs(out.samples) ** 2)
        expected = 10 ** (psd / 10) * probe.sample_rate
        assert measured == pytest.approx(expected, rel=0.05)


class TestScenarioValidation:
    def test_rx_must_differ_from_tx(self):
        with pytest.raises(ConfigError):
            flat_scenario(rx_locations=(RxLocation("RX0", (0.0, 0.0, 4.0)),))

    def test_labels_checked(self):
        with pytest.raises(ConfigError):
            RxLocation("RX0", (1.0, 0.0, 1.5), label="shadowed")

    def test_effective_noise_psd(self):
        sc = flat_scenario()
        assert sc.effective_noise_psd_dbm_hz == -169.0
