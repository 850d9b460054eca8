import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsounder.channel import (
    AntennaPattern,
    MultipathChannel,
    PathComponent,
    Reflector,
    RxLocation,
    ScenarioConfig,
    Wall,
    apply_channel,
    fspl,
    synthesize_channel,
)
from corrsounder import sweep as sweep_module
from corrsounder.cli import main as cli_main, shipped_scenario_path
from corrsounder.correlator import (
    correlate_fast,
    correlate_literal,
    desk_preset,
    get_preset,
    processing_gain,
    slide_factor,
    write_cir_csv,
)
from corrsounder.pdp import (
    PowerDelayProfile,
    average_pdps,
    pdp_from_iq,
    system_pulse_energy_bins,
    threshold_pdp,
    write_pdp_csv,
)
from corrsounder.scenario_io import load_scenario
from corrsounder.errors import AnalysisError, ConfigError, SimulationError
from corrsounder.sweep import (
    ABSENT_POWER_DBM,
    MAX_AZIMUTH_SPOKES,
    MAX_LOCATION_CAPTURES,
    Capture,
    LinkBudget,
    _check_delays,
    angular_spectrum,
    averaging_gain_db,
    check_location,
    check_sweep_options,
    ci_fit,
    eirp,
    fading_rate,
    local_power_std,
    max_measurable_path_loss,
    noise_floor_dbm,
    omni_power,
    path_loss,
    run_sweep,
)
from paper_procedure import two_path_dip_db


def sweep(sc: ScenarioConfig, rx_index: int, preset, **options) -> list[tuple[float, float | None]]:
    """run_sweep on the location's checked channel, as a campaign runs it."""
    return run_sweep(
        sc, rx_index, preset=preset, channel=check_location(sc, rx_index, preset), **options
    )


class TestOmniPower:
    def test_single_angle(self):
        assert omni_power([(0.0, -70.0), (90.0, None)]) == pytest.approx(-70.0)

    def test_two_equal_angles_gain_3db(self):
        out = omni_power([(0.0, -70.0), (90.0, -70.0)])
        assert out == pytest.approx(-66.99, abs=0.005)

    def test_no_signal_anywhere(self):
        assert omni_power([(0.0, None), (90.0, None)]) is None

    def test_permutation_invariant(self):
        a = omni_power([(0.0, -70.0), (90.0, -75.0), (180.0, -80.0)])
        b = omni_power([(180.0, -80.0), (0.0, -70.0), (90.0, -75.0)])
        assert a == b

    def test_monotone_in_added_angles(self):
        base = omni_power([(0.0, -70.0)])
        more = omni_power([(0.0, -70.0), (90.0, -90.0)])
        assert more > base


class TestPathLossAndBudget:
    def test_isotropic_reference(self):
        assert path_loss(-40.0, 14.6, 27.0, 20.0) == pytest.approx(101.6)

    def test_zero_gain_identity(self):
        assert path_loss(14.6, 14.6, 0.0, 0.0) == 0.0

    def test_eirp_is_exact(self):
        assert eirp(14.6, 27.0) == 41.6

    def test_flagship_budget_reproduces_max_path_loss(self):
        budget = LinkBudget.full_preset_budget()
        assert max_measurable_path_loss(budget) == pytest.approx(185.0, abs=3.0)

    def test_trivial_budget(self):
        budget = LinkBudget(
            tx_power_dbm=10.0, tx_gain_dbi=0.0, rx_gain_dbi=0.0,
            processing_gain_db=0.0, averaging_gain_db=0.0,
            noise_floor_dbm=-100.0, snr_threshold_db=0.0,
        )
        assert max_measurable_path_loss(budget) == 110.0

    def test_tx_power_linearity(self):
        a = LinkBudget.full_preset_budget()
        b = LinkBudget(
            tx_power_dbm=a.tx_power_dbm + 10.0, tx_gain_dbi=a.tx_gain_dbi,
            rx_gain_dbi=a.rx_gain_dbi, processing_gain_db=a.processing_gain_db,
            averaging_gain_db=a.averaging_gain_db, noise_floor_dbm=a.noise_floor_dbm,
            snr_threshold_db=a.snr_threshold_db,
        )
        assert max_measurable_path_loss(b) - max_measurable_path_loss(a) == pytest.approx(10.0)

    def test_noise_floor_helper(self):
        assert noise_floor_dbm(62.5e3, 5.0) == pytest.approx(-121.04, abs=0.01)

    def test_averaging_gain(self):
        assert averaging_gain_db(20) == pytest.approx(6.5, abs=0.01)

    def test_budget_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            LinkBudget(14.6, 27.0, 27.0, math.inf, 6.5, -76.0)

    def test_budget_rejects_overflowing_sum(self):
        # finite terms whose sum is inf, or inf - inf = NaN, are refused
        with pytest.raises(ConfigError, match="overflow"):
            LinkBudget(1e308, 1e308, 27.0, 39.0, 6.5, -76.0)
        with pytest.raises(ConfigError, match="overflow"):
            LinkBudget(1e308, 1e308, 27.0, 39.0, 6.5, 1e308, snr_threshold_db=1e308)

    def test_averaging_gain_of_any_count(self):
        assert averaging_gain_db(10**400) == 2000.0


class TestCiFit:
    def synth(self, n, sigma=0.0, count=40, seed=0, f=73.5e9):
        rng = np.random.default_rng(seed)
        d = 10 ** rng.uniform(1.0, 2.0, count)
        pl = fspl(1.0, f) + 10.0 * n * np.log10(d) + rng.normal(0.0, sigma, count)
        return list(zip(d, pl))

    @pytest.mark.parametrize("n", [2.0, 2.53, 3.61])
    def test_noiseless_round_trip(self, n):
        fit = ci_fit(self.synth(n), 73.5e9)
        assert fit.ple == pytest.approx(n, abs=1e-9)
        assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)

    def test_free_space_points(self):
        points = [(d, fspl(d, 73.5e9)) for d in (5.0, 20.0, 80.0)]
        fit = ci_fit(points, 73.5e9)
        assert fit.ple == pytest.approx(2.0, abs=1e-9)
        assert fit.sigma_db == pytest.approx(0.0, abs=1e-9)

    def test_shadowed_monte_carlo(self):
        fit = ci_fit(self.synth(3.61, sigma=4.3, count=200, seed=11), 73.5e9)
        assert fit.ple == pytest.approx(3.61, abs=0.1)
        assert fit.sigma_db == pytest.approx(4.3, abs=0.5)

    @given(st.floats(min_value=1.5, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_exponent(self, n):
        fit = ci_fit(self.synth(n, seed=3), 73.5e9)
        assert fit.ple == pytest.approx(n, abs=1e-9)
        assert fit.sigma_db <= 1e-9

    def test_needs_two_points(self):
        with pytest.raises(AnalysisError):
            ci_fit([(10.0, 100.0)], 73.5e9)

    def test_equal_distances_ill_conditioned(self):
        with pytest.raises(AnalysisError, match="ill-conditioned"):
            ci_fit([(10.0, 100.0), (10.0, 101.0)], 73.5e9)

    def test_distances_beyond_reference(self):
        with pytest.raises(AnalysisError):
            ci_fit([(0.5, 60.0), (10.0, 100.0)], 73.5e9)


class TestLocalPowerStd:
    def test_identical_powers(self):
        assert local_power_std([-70.0, -70.0, -70.0]) == 0.0

    def test_two_point_sample_std(self):
        assert local_power_std([-70.0, -72.0]) == pytest.approx(1.414, abs=0.001)

    def test_needs_two(self):
        with pytest.raises(AnalysisError):
            local_power_std([-70.0])


class TestFadingRate:
    def test_paper_style_arithmetic(self):
        rate_m, rate_s = fading_rate([(0.0, -40.0), (20.0, -65.0)], 35.0)
        assert rate_m == 1.25
        assert rate_s == 43.75

    def test_rate_times_speed_exact(self):
        rate_m, rate_s = fading_rate([(0.0, -40.0), (10.0, -50.0)], 7.0)
        assert rate_s == rate_m * 7.0

    def test_flat_route(self):
        assert fading_rate([(0.0, -40.0), (5.0, -40.0), (10.0, -40.0)], 35.0) == (0.0, 0.0)

    def test_longest_decreasing_run_selected(self):
        route = [(0.0, -40.0), (5.0, -42.0), (10.0, -41.0), (15.0, -45.0), (20.0, -50.0), (25.0, -52.0)]
        rate_m, _ = fading_rate(route, 1.0)
        # run from 10 m to 25 m: 11 dB over 15 m
        assert rate_m == pytest.approx(11.0 / 15.0)

    def test_equal_length_runs_larger_drop_wins(self):
        # two two-step runs: 0-10 m drops 4 dB, 15-25 m drops 9 dB
        route = [(0.0, -40.0), (5.0, -42.0), (10.0, -44.0), (15.0, -30.0), (20.0, -35.0), (25.0, -39.0)]
        rate_m, _ = fading_rate(route, 1.0)
        assert rate_m == pytest.approx(9.0 / 10.0)

    def test_equal_length_and_drop_first_run_wins(self):
        # two one-step runs of 6 dB: 0-5 m, then 10-20 m (over twice the distance)
        route = [(0.0, -40.0), (5.0, -46.0), (10.0, -30.0), (20.0, -36.0)]
        rate_m, _ = fading_rate(route, 1.0)
        assert rate_m == pytest.approx(6.0 / 5.0)

    def test_positions_must_increase(self):
        with pytest.raises(AnalysisError):
            fading_rate([(0.0, -40.0), (0.0, -41.0)], 1.0)

    def test_overflowing_rate_refused(self):
        # 10 dB/m times 1.7e308 m/s is inf dB/s
        with pytest.raises(AnalysisError, match="not finite"):
            fading_rate([(2.0, -40.0), (3.0, -50.0)], 1.7e308)


class TestAngularSpectrum:
    def test_sentinel_for_absent(self):
        table = angular_spectrum([(0.0, -70.0), (90.0, None)])
        assert table == [(0.0, -70.0), (90.0, ABSENT_POWER_DBM)]

    def test_all_absent(self):
        table = angular_spectrum([(0.0, None), (180.0, None)])
        assert all(power == ABSENT_POWER_DBM for _, power in table)


def boresight_scenario(**overrides) -> ScenarioConfig:
    # single direct path, TX and RX at the same height so both antennas sit
    # on boresight, arrival azimuth on the sweep grid
    defaults = dict(
        name="boresight",
        tx_position_m=(0.0, 0.0, 5.0),
        tx_pointing_deg=(0.0, 0.0),
        rx_locations=(RxLocation("RX0", (30.0, 0.0, 5.0)),),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture(scope="module")
def desk():
    return desk_preset()


class TestRunSweep:
    def test_single_boresight_path_dominates_one_angle(self, desk):
        spokes = sweep(boresight_scenario(), 0, step_deg=90.0, sweeps=1, seed=0, preset=desk)
        table = sorted(angular_spectrum(spokes), key=lambda t: t[1], reverse=True)
        assert len(spokes) == 4
        assert table[0][0] == 180.0  # beam at the arrival azimuth
        assert table[0][1] - table[1][1] >= 25.0

    def test_record_counts_at_paper_procedure(self, desk):
        pdps = []
        spokes = sweep(
            boresight_scenario(), 0, step_deg=15.0, sweeps=5, seed=0, preset=desk,
            pdp_sink=pdps.append,
        )
        assert len(spokes) == 24
        assert len(pdps) == 24 * 5
        # each spoke reports the strongest of its five sweeps
        for ai, (azimuth, best) in enumerate(spokes):
            own = pdps[5 * ai : 5 * ai + 5]
            assert all(p.metadata["angle"] == azimuth for p in own)
            totals = [p.total_power_dbm for p in own if p.total_power_dbm is not None]
            assert best == (max(totals) if totals else None)

    def test_deterministic_given_seed(self, desk):
        a = sweep(boresight_scenario(), 0, step_deg=90.0, sweeps=1, seed=9, preset=desk)
        b = sweep(boresight_scenario(), 0, step_deg=90.0, sweeps=1, seed=9, preset=desk)
        assert omni_power(a) == omni_power(b)

    def test_omni_close_to_best_directional(self, desk):
        # adjacent beams at one full HPBW only leak 12 dB down, so the omni
        # sum sits a documented ~0.6 dB above the best single beam
        spokes = sweep(boresight_scenario(), 0, step_deg=15.0, sweeps=1, seed=1, preset=desk)
        best = max(power for _, power in spokes if power is not None)
        assert omni_power(spokes) - best == pytest.approx(0.6, abs=0.35)

    def test_path_loss_recovers_fspl(self, desk):
        sc = boresight_scenario()
        spokes = sweep(sc, 0, step_deg=15.0, sweeps=1, seed=2, preset=desk)
        pl = path_loss(
            omni_power(spokes), sc.tx_power_dbm,
            sc.tx_pattern.boresight_gain_dbi, sc.rx_pattern.boresight_gain_dbi,
        )
        assert pl == pytest.approx(fspl(30.0, sc.carrier_hz), abs=1.0)

    def test_argmax_invariant_under_gain_scaling(self, desk):
        sc = boresight_scenario()
        louder = boresight_scenario(tx_power_dbm=sc.tx_power_dbm + 10.0)
        a = angular_spectrum(sweep(sc, 0, step_deg=90.0, sweeps=1, seed=4, preset=desk))
        b = angular_spectrum(sweep(louder, 0, step_deg=90.0, sweeps=1, seed=4, preset=desk))
        assert max(a, key=lambda t: t[1])[0] == max(b, key=lambda t: t[1])[0]

    def test_invalid_step_rejected(self, desk):
        with pytest.raises(ConfigError, match="must divide 360"):
            sweep(boresight_scenario(), 0, step_deg=50.0, sweeps=1, seed=0, preset=desk)

    def test_subnormal_step_rejected(self):
        # 360 / 5e-324 overflows to infinity
        with pytest.raises(ConfigError, match="must divide 360"):
            check_sweep_options(5e-324, sweeps=1, averages=1)

    def test_capture_count_capped(self):
        # the paper's five sweeps of 20 averages pass on the finest grid
        check_sweep_options(360.0 / MAX_AZIMUTH_SPOKES, sweeps=5, averages=20)
        assert MAX_LOCATION_CAPTURES == MAX_AZIMUTH_SPOKES * 100
        for sweeps, averages in ((6, 20), (10**30, 1), (1, 10**9)):
            with pytest.raises(ConfigError, match=f"more than {MAX_LOCATION_CAPTURES} captures"):
                check_sweep_options(0.1 if sweeps == 6 else 90.0, sweeps=sweeps, averages=averages)

    def test_spoke_count_capped(self):
        check_sweep_options(360.0 / MAX_AZIMUTH_SPOKES, sweeps=1, averages=1)  # 0.1 degree
        for step in (0.09, 1e-7):
            with pytest.raises(ConfigError, match=f"more than {MAX_AZIMUTH_SPOKES}"):
                check_sweep_options(step, sweeps=1, averages=1)

    @pytest.mark.parametrize("step", [0.0, -90.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    def test_step_outside_full_turn_rejected(self, desk, step):
        with pytest.raises(ConfigError, match=r"azimuth step must be in \(0, 360\]"):
            sweep(boresight_scenario(), 0, step_deg=step, sweeps=1, seed=0, preset=desk)

    def test_processing_gain_constant_available(self):
        assert processing_gain(128.0) == pytest.approx(21.07, abs=0.01)


class TestStreamedPdps:
    def test_memory_does_not_grow_with_spokes_or_sweeps(self, desk):
        # each PDP goes to the sink and is dropped: 180 spokes x 5 sweeps
        # must hold and peak at what 4 spokes x 1 sweep do, within 1 MB
        sc = load_scenario(shipped_scenario_path("corner_route"))
        channel = check_location(sc, 3, desk)

        def traced(step_deg, sweeps):
            seen = []

            def sink(pdp):
                seen.append((pdp.metadata["angle"], pdp.metadata["sweep"]))

            tracemalloc.start()
            try:
                spokes = run_sweep(sc, 3, step_deg, sweeps, 0, desk, channel=channel, pdp_sink=sink)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return spokes, seen, held, peak

        traced(90.0, 1)  # warm the per-preset caches
        _, _, base_held, base_peak = traced(90.0, 1)
        spokes, seen, held, peak = traced(2.0, 5)
        assert len(spokes) == 180
        assert seen == [(azimuth, s) for azimuth, _ in spokes for s in range(5)]
        assert held - base_held <= 1e6
        assert peak - base_peak <= 1e6


def silent_location() -> tuple[ScenarioConfig, MultipathChannel]:
    """A location with no path and no noise: every capture is all zeros."""
    iso = AntennaPattern.isotropic()
    sc = ScenarioConfig(
        name="silent", tx_pattern=iso, rx_pattern=iso, noise_psd_dbm_hz=-math.inf,
        rx_locations=(RxLocation("R", (10.0, 0.0, 4.0)),),
    )
    return sc, MultipathChannel(paths=(), carrier_hz=73.5e9)


class TestSweepWithoutSink:
    """Without a pdp_sink a sweep keeps only each acquisition's total: the
    same spokes, bit for bit, and no PDP built."""

    @pytest.mark.parametrize(
        "preset_name, rx_index, step_deg, sweeps, averages",
        [("desk", 5, 90.0, 2, 2), ("full", 5, 360.0, 1, 1), ("desk", None, 90.0, 2, 2)],
        ids=["desk-averaged", "full-template-branch", "desk-silent"],
    )
    def test_same_spokes_and_no_pdp_built(
        self, monkeypatch, preset_name, rx_index, step_deg, sweeps, averages
    ):
        preset = get_preset(preset_name)
        if rx_index is None:
            (sc, channel), rx_index = silent_location(), 0
        else:
            sc = load_scenario(shipped_scenario_path("corner_route"))
            channel = check_location(sc, rx_index, preset)
        built = []

        def counted(*args, **kwargs):
            built.append(kwargs["metadata"])
            return PowerDelayProfile(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "PowerDelayProfile", counted)
        options = dict(step_deg=step_deg, sweeps=sweeps, seed=11, preset=preset,
                       averages=averages, channel=channel)
        bare = run_sweep(sc, rx_index, **options)
        assert built == []
        pdps = []
        kept = run_sweep(sc, rx_index, pdp_sink=pdps.append, **options)
        assert [pdp.metadata for pdp in pdps] == built
        assert len(built) == len(kept) * sweeps
        assert repr(bare) == repr(kept)  # repr round-trips every float exactly
        # each spoke's best total, summed here from its PDPs' surviving bins
        pulse_bins = system_pulse_energy_bins(preset)
        for ai, (_, best) in enumerate(bare):
            totals = [
                10.0 * math.log10(float(pdp.power_mw.sum()) / pulse_bins)
                for pdp in pdps[ai * sweeps : (ai + 1) * sweeps]
                if pdp.power_mw.any()
            ]
            assert repr(best) == repr(max(totals) if totals else None)


def noise_only_capture(preset) -> tuple[ScenarioConfig, Capture]:
    """A silent isotropic location whose captures hold receiver noise only."""
    iso = AntennaPattern.isotropic()
    sc = ScenarioConfig(
        name="silent", tx_pattern=iso, rx_pattern=iso, noise_psd_dbm_hz=-100.0,
        noise_figure_db=0.0, rx_locations=(RxLocation("R", (10.0, 0.0, 4.0)),),
    )
    return sc, Capture(sc, 0, preset, MultipathChannel(paths=(), carrier_hz=73.5e9))


def assert_same_mean_power(acquisitions, salt: int) -> None:
    """The mean correlator output power of two noise-only acquisitions
    agrees within four standard errors of the difference over 100 draws
    each; the per-draw spread keeps that bound far below the 3 dB or more a
    mis-referred noise level would show."""
    draws = 100
    stats = []
    for acquire in acquisitions:
        powers = [
            np.mean(np.abs(acquire(np.random.default_rng((k, salt)))) ** 2) for k in range(draws)
        ]
        stats.append((np.mean(powers), np.std(powers, ddof=1) / math.sqrt(draws)))
    (first, se_first), (second, se_second) = stats
    tolerance = 4.0 * math.hypot(se_first, se_second)
    assert tolerance < 0.1 * second
    assert abs(first - second) <= tolerance


class TestFoldedNoise:
    def test_one_period_noise_matches_folded_full_record(self, desk):
        # a capture's noise, drawn on one code period at PSD - 10 log10(slide
        # factor), must give the same mean correlator power as noise drawn on
        # the whole dilated record and folded by correlate_fast
        sc, capture = noise_only_capture(desk)
        iso, silent = sc.rx_pattern, MultipathChannel(paths=(), carrier_hz=73.5e9)
        full_record = desk.transmit_waveform(periods=round(slide_factor(desk.config)))
        assert_same_mean_power((
            lambda rng: capture.acquire(iso, rng)[1],
            lambda rng: correlate_fast(
                apply_channel(full_record, silent, iso, iso, -100.0, rng),
                desk.config, desk.chip_sequence(),
            ).cir,
        ), salt=1)


def folded_psd(sc: ScenarioConfig, preset) -> float:
    """The receiver PSD a one-period capture draws its noise at."""
    return sc.effective_noise_psd_dbm_hz - 10.0 * math.log10(round(slide_factor(preset.config)))


class TestBranchDomainNoise:
    @pytest.mark.parametrize("preset_name", ["desk", "full"])
    def test_matches_the_time_domain_draw(self, preset_name):
        # a capture draws its noise as the kernel's (M, g) branch spectra;
        # the mean correlator power must match that of the same PSD drawn on
        # the one-period record (apply_channel at the folded PSD) and run
        # through correlate_fast
        preset = get_preset(preset_name)
        sc, capture = noise_only_capture(preset)
        iso, silent = sc.rx_pattern, MultipathChannel(paths=(), carrier_hz=73.5e9)
        assert_same_mean_power((
            lambda rng: capture.acquire(iso, rng)[1],
            lambda rng: correlate_fast(
                apply_channel(capture.wave, silent, iso, iso, folded_psd(sc, preset), rng),
                preset.config, preset.chip_sequence(),
            ).cir,
        ), salt=2)


class TestSweepMatchesPublicStages:
    """A sweep runs each location's captures through its Capture object, set
    up once, in the kernel's branch-spectrum domain.  Every thresholded PDP
    must still be what the public stages (correlate_fast, pdp_from_iq,
    average_pdps, threshold_pdp) give on each capture's own record, rebuilt
    from its branch spectra; without noise, that record is apply_channel's."""

    @pytest.mark.parametrize(
        "preset_name, rx_index, step_deg, sweeps, averages",
        [("desk", 5, 90.0, 2, 2), ("full", 5, 360.0, 1, 1)],
        ids=["desk-averaged", "full-template-branch"],
    )
    def test_thresholded_pdps(self, preset_name, rx_index, step_deg, sweeps, averages):
        seed = 11
        preset = get_preset(preset_name)
        sc = load_scenario(shipped_scenario_path("corner_route"))
        pdps = []
        spokes = sweep(
            sc, rx_index, preset, step_deg=step_deg, sweeps=sweeps, seed=seed,
            averages=averages, pdp_sink=pdps.append,
        )

        channel = synthesize_channel(sc, rx_index)
        assert len(channel) == 2
        rx_loc = sc.rx_locations[rx_index]
        capture = Capture(sc, rx_index, preset, channel)
        chips = preset.chip_sequence()
        pulse_bins = system_pulse_energy_bins(preset)
        assert len(spokes) == round(360.0 / step_deg)
        assert len(pdps) == len(spokes) * sweeps
        for ai, (azimuth, _) in enumerate(spokes):
            rx = sc.rx_pattern.pointed(azimuth, sc.rx_elevation_deg)
            for s in range(sweeps):
                got = pdps[ai * sweeps + s]
                captures = []
                for a in range(averages):
                    branches = capture.acquire(rx, np.random.default_rng((seed, rx_index, ai, s, a)))[0]
                    received = replace(capture.wave, samples=capture.kernel.inverse(branches))
                    captures.append(pdp_from_iq(
                        correlate_fast(received, preset.config, chips), pulse_bins,
                        angle=azimuth, location=rx_loc.ident, sweep=s,
                    ))
                want = threshold_pdp(captures[0] if averages == 1 else average_pdps(captures))
                peak = want.power_mw.max()
                assert peak > 0.0
                assert np.array_equal(got.excess_delay_s, want.excess_delay_s)
                assert np.abs(got.power_mw - want.power_mw).max() <= 1e-13 * peak
                assert got.noise_floor_dbm == pytest.approx(want.noise_floor_dbm, abs=1e-9)
                assert got.threshold_dbm == pytest.approx(want.threshold_dbm, abs=1e-9)
                assert got.total_power_dbm == pytest.approx(want.total_power_dbm, abs=1e-9)
                assert got.metadata == want.metadata

    @pytest.mark.parametrize("preset_name", ["desk", "full"])
    def test_single_capture(self, preset_name):
        # simulate's fast path: one capture's trace is correlate_fast's on
        # the record rebuilt from its branch spectra; without noise that
        # record is apply_channel's and the trace is correlate_fast's on it
        preset = get_preset(preset_name)
        chips = preset.chip_sequence()
        sc = load_scenario(shipped_scenario_path("corner_route"))
        channel = check_location(sc, 3, preset)
        rx = sc.rx_pattern.pointed(200.0, sc.rx_elevation_deg)
        capture = Capture(sc, 3, preset, channel)
        branches, trace = capture.acquire(rx, np.random.default_rng(7))
        received = replace(capture.wave, samples=capture.kernel.inverse(branches))
        want = correlate_fast(received, preset.config, chips).cir
        assert np.abs(trace - want).max() <= 1e-13 * np.abs(want).max()

        quiet = Capture(replace(sc, noise_psd_dbm_hz=-math.inf), 3, preset, channel)
        branches, trace = quiet.acquire(rx, np.random.default_rng(7))
        received = apply_channel(
            quiet.wave, channel, sc.tx_pattern.pointed(*sc.tx_pointing_for(sc.rx_locations[3])), rx
        )
        record = quiet.kernel.inverse(branches)
        assert np.abs(record - received.samples).max() <= 1e-13 * np.abs(received.samples).max()
        want = correlate_fast(received, preset.config, chips).cir
        assert np.abs(trace - want).max() <= 1e-13 * np.abs(want).max()

    def test_simulate_writes_the_public_stages_bytes(self, desk, tmp_path):
        # simulate's one capture, seeded with default_rng(seed), gives the
        # CIR and PDP files of the stage-by-stage chain on its rebuilt record
        out = tmp_path / "sim"
        assert cli_main([
            "simulate", "--scenario", "corner_route", "--rx-index", "5", "--seed", "1", "--out", str(out),
        ]) == 0
        sc = load_scenario(shipped_scenario_path("corner_route"))
        channel = synthesize_channel(sc, 5)
        rx_loc = sc.rx_locations[5]
        azimuth = max(channel.paths, key=lambda p: p.gain).aoa_az_deg
        capture = Capture(sc, 5, desk, channel)
        branches = capture.acquire(
            sc.rx_pattern.pointed(azimuth, sc.rx_elevation_deg), np.random.default_rng(1)
        )[0]
        received = replace(capture.wave, samples=capture.kernel.inverse(branches))
        cir = correlate_fast(received, desk.config, desk.chip_sequence())
        pdp = threshold_pdp(pdp_from_iq(
            cir, system_pulse_energy_bins(desk), location=rx_loc.ident, angle=azimuth
        ))
        write_cir_csv(cir, tmp_path / "cir.csv", desk.config)
        write_pdp_csv(pdp, tmp_path / "pdp.csv")
        for name in ("cir.csv", "pdp.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_simulate_literal_writes_the_public_stages_bytes(self, desk, tmp_path):
        # simulate --literal runs the oracle on the location's Capture: its
        # probe tiled over the dilated record, apply_channel at the full PSD
        # seeded with default_rng(seed), correlate_literal and the Capture's
        # threshold; the files must be the stage-by-stage chain's
        out = tmp_path / "sim"
        assert cli_main([
            "simulate", "--scenario", "corner_route", "--rx-index", "5", "--seed", "1",
            "--literal", "--out", str(out),
        ]) == 0
        sc = load_scenario(shipped_scenario_path("corner_route"))
        channel = synthesize_channel(sc, 5)
        rx_loc = sc.rx_locations[5]
        azimuth = max(channel.paths, key=lambda p: p.gain).aoa_az_deg
        probe = desk.transmit_waveform(periods=round(slide_factor(desk.config)))
        probe = replace(probe, samples=probe.samples * math.sqrt(10.0 ** (sc.tx_power_dbm / 10.0)))
        received = apply_channel(
            probe, channel, sc.tx_pattern.pointed(*sc.tx_pointing_for(rx_loc)),
            sc.rx_pattern.pointed(azimuth, sc.rx_elevation_deg), sc.effective_noise_psd_dbm_hz,
            np.random.default_rng(1),
        )
        cir = correlate_literal(received, desk.config, desk.chip_sequence())
        pdp = threshold_pdp(pdp_from_iq(
            cir, system_pulse_energy_bins(desk), location=rx_loc.ident, angle=azimuth
        ))
        write_cir_csv(cir, tmp_path / "cir.csv", desk.config)
        write_pdp_csv(pdp, tmp_path / "pdp.csv")
        for name in ("cir.csv", "pdp.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


class TestNoiseWindowGuard:
    # the noise floor is read from the trailing tenth of the delay axis: from
    # bin 1829 of 2032 on desk (114.3 us), from bin 29477 of 32752 on full
    # (3.685 us); bins are 1/16 chip apart
    WINDOW_S = {"desk": 1829 / 16 * 1e-6, "full": 29477 / 16 * 2e-9}

    @staticmethod
    def check(preset, delay_s):
        # the rule check_location applies to every location's paths
        _check_delays(preset, (
            PathComponent(100e-9, 1e-4, 0.0, 0.0, 0.0, 180.0, 0.0),
            PathComponent(delay_s, 1e-5, 0.0, 0.0, 0.0, 0.0, 0.0, kind="reflection"),
        ))

    @pytest.mark.parametrize("name", ["desk", "full"])
    def test_path_reaching_the_window_rejected(self, name):
        preset = get_preset(name)
        chip_s = 1.0 / preset.config.tx_chip_rate
        edge_s = self.WINDOW_S[name] - chip_s
        self.check(preset, edge_s - 0.01 * chip_s)
        for delay_s in (edge_s + 0.01 * chip_s, self.WINDOW_S[name]):
            with pytest.raises(SimulationError, match=r"reflection path at .* noise-floor window"):
                self.check(preset, delay_s)

    @pytest.mark.parametrize("scenario", ["corner_route", "corner_clusters"])
    def test_shipped_scenarios_clear_of_the_window(self, scenario):
        sc = load_scenario(shipped_scenario_path(scenario))
        full = get_preset("full")
        for k in range(len(sc.rx_locations)):
            channel = check_location(sc, k, full)
            assert all(p.delay_s < 0.5e-6 for p in channel.paths)


def angular_lobes(table, margin_db):
    """Circular local maxima poking above the median by at least margin."""
    powers = np.array([p for _, p in table])
    n = len(powers)
    floor = np.median(powers) + margin_db
    return [
        i
        for i in range(n)
        if powers[i] > floor
        and powers[i] > powers[(i - 1) % n]
        and powers[i] >= powers[(i + 1) % n]
    ]


class TestTwoLobeStructure:
    def test_corner_diffraction_plus_reflector(self, desk):
        # direct ray blocked by a shallow screen; a rear reflector feeds a
        # second arrival 30 degrees away from the diffracted one (wide
        # transmit beam so both departure directions are illuminated)
        sc = ScenarioConfig(
            name="two-lobe",
            tx_position_m=(0.0, 0.0, 5.0),
            tx_pattern=AntennaPattern(10.0, 90.0, 30.0),
            rx_locations=(RxLocation("R", (40.0, 0.0, 5.0), label="nlos"),),
            walls=(Wall((20.0, 0.3), (20.0, -6.0)),),
            wedges=((20.0, 0.3),),
            reflectors=(Reflector((0.0, -12.0), (40.0, -12.0), loss_db=10.0),),
        )
        table = angular_spectrum(sweep(sc, 0, step_deg=15.0, sweeps=1, seed=0, preset=desk))
        lobes = angular_lobes(table, margin_db=6.0)
        assert len(lobes) == 2
        azs = [table[i][0] for i in lobes]
        separation = abs(azs[0] - azs[1])
        assert min(separation, 360 - separation) >= 30.0

    def test_shipped_route_canyon_mouth(self, desk):
        # first stop in the canyon: strong reflection off the east building
        # plus a weaker lobe diffracting around the corner, roughly opposite
        sc = load_scenario(shipped_scenario_path("corner_route"))
        table = angular_spectrum(sweep(sc, 5, step_deg=15.0, sweeps=1, seed=0, preset=desk))
        lobes = angular_lobes(table, margin_db=2.0)
        assert len(lobes) == 2
        azs = sorted(table[i][0] for i in lobes)
        separation = abs(azs[0] - azs[1])
        assert min(separation, 360 - separation) >= 90.0


class TestResolution:
    def test_paths_two_chips_apart_resolve(self):
        # measured through the full preset's template branch: midway between
        # two equal noiseless paths 2 chips (4 ns) apart the power lies
        # 30.6 dB under the weaker peak (69.5 dB at 3 chips, 0.1 dB at 1,
        # where they merge); the bound keeps 10 dB of margin.  Re-state it
        # when the template branch's lag against the literal mixer is removed.
        assert two_path_dip_db(2) <= -20.0
