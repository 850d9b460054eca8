"""Azimuth sweeps over synthetic channels and the measurement analysis ops.

``run_sweep`` reproduces the measurement procedure: the receive horn steps
around the azimuth circle in HPBW increments, several identical sweeps are
recorded per location, and each acquisition runs through the correlator and
PDP pipeline.  Analysis operations then reduce each spoke's best directional
power to omnidirectional power, path loss, close-in-reference fits,
local-area statistics and fading rates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    AntennaPattern,
    MultipathChannel,
    PathComponent,
    ScenarioConfig,
    add_noise,
    fspl,
    noise_sigma,
    path_coefficients,
    path_terms,
    superpose,
    synthesize_channel,
)
from .correlator import (
    COMPRESSED_SAMPLES_PER_CHIP,
    SounderPreset,
    fast_kernel,
    processing_gain,
    slide_factor,
)
from .errors import AnalysisError, ConfigError, SimulationError
from .pdp import (
    PowerDelayProfile,
    delay_axis,
    noise_window_start,
    system_pulse_energy_bins,
    threshold_in_place,
)

__all__ = [
    "CiFit",
    "LinkBudget",
    "ABSENT_POWER_DBM",
    "MAX_AZIMUTH_SPOKES",
    "MAX_LOCATION_CAPTURES",
    "check_sweep_options",
    "check_location",
    "Capture",
    "run_sweep",
    "omni_power",
    "path_loss",
    "eirp",
    "ci_fit",
    "local_power_std",
    "fading_rate",
    "max_measurable_path_loss",
    "averaging_gain_db",
    "noise_floor_dbm",
    "angular_spectrum",
]

#: Sentinel emitted for sweep angles with no detectable signal.
ABSENT_POWER_DBM = -250.0

#: Most azimuth spokes a sweep may have: a step finer than 0.1 degree is
#: rejected rather than scheduling millions of acquisitions per location.
MAX_AZIMUTH_SPOKES = 3600

#: Most captures (spokes x sweeps x averages) one location may schedule: the
#: paper's five sweeps of 20 averaged captures on the finest grid.
MAX_LOCATION_CAPTURES = MAX_AZIMUTH_SPOKES * 5 * 20


def check_sweep_options(step_deg: float, sweeps: int, averages: int) -> None:
    """Reject sweep options no sweep can run with, as ``ConfigError``: the
    azimuth step must lie in (0, 360], divide the full turn into at most
    ``MAX_AZIMUTH_SPOKES`` spokes, there must be at least one sweep and one
    capture per average, and at most ``MAX_LOCATION_CAPTURES`` captures."""
    if sweeps < 1:
        raise ConfigError("sweeps must be >= 1")
    if averages < 1:
        raise ConfigError("averages must be >= 1")
    if not 0.0 < step_deg <= 360.0:  # also false for NaN
        raise ConfigError(f"azimuth step must be in (0, 360] degrees, got {step_deg}")
    spokes = 360.0 / step_deg
    if not (math.isfinite(spokes) and abs(spokes - round(spokes)) <= 1e-9):
        raise ConfigError(f"azimuth step {step_deg} must divide 360 degrees")
    if round(spokes) > MAX_AZIMUTH_SPOKES:
        raise ConfigError(
            f"azimuth step {step_deg} gives {round(spokes)} spokes, more than "
            f"{MAX_AZIMUTH_SPOKES} (a step finer than 0.1 degree)"
        )
    if round(spokes) * sweeps * averages > MAX_LOCATION_CAPTURES:
        raise ConfigError(
            f"{round(spokes)} spokes x {sweeps} sweeps x {averages} averages is more than "
            f"{MAX_LOCATION_CAPTURES} captures per location"
        )


def _angle_grid(step: float, start: float = 0.0) -> list[float]:
    return [(start + k * step) % 360.0 for k in range(round(360.0 / step))]


def _check_delays(preset: SounderPreset, paths: tuple[PathComponent, ...]) -> None:
    # the window starts before one code period ends, so a path that passes
    # cannot alias either
    cfg = preset.config
    chip_s = 1.0 / cfg.tx_chip_rate
    bins = cfg.code_length * COMPRESSED_SAMPLES_PER_CHIP
    window_s = noise_window_start(bins) * chip_s / COMPRESSED_SAMPLES_PER_CHIP
    for p in paths:
        if p.delay_s + chip_s >= window_s:
            raise SimulationError(
                f"{p.kind} path at {p.delay_s * 1e9:.6g} ns (plus one chip, {chip_s * 1e9:g} ns) "
                f"reaches the noise-floor window, which starts at {window_s * 1e9:.6g} ns "
                f"on the {preset.name} preset"
            )


def check_location(sc: ScenarioConfig, rx_index: int, preset: SounderPreset) -> MultipathChannel:
    """One location's channel, checked against the preset's noise-floor
    window (a path there would raise the floor: ``SimulationError``), as
    ``simulate`` and ``campaign`` check it before they write anything."""
    channel = synthesize_channel(sc, rx_index)  # checks rx_index first
    _check_delays(preset, channel.paths)
    return channel


def _folded_psd(preset: SounderPreset, noise_psd_dbm_hz: float) -> float:
    return noise_psd_dbm_hz - 10.0 * math.log10(round(slide_factor(preset.config)))


class Capture:
    """One receiver location's acquisition chain, set up once, run in the
    correlator's branch-spectrum domain (:class:`~.correlator.FastKernel`).

    The set-up holds the one-period probe at the scenario's transmit power,
    the pointed transmit horn, the kernel, each path's terms with its delayed
    copy of the probe replaced by that copy's branch spectra (one forward
    transform per path and location), the noise level, the pulse footprint
    and the delay axis (the preset's cached read-only one, which only a kept
    PDP uses).  A capture sums the coefficient-weighted path spectra and
    draws the receiver noise directly as branch spectra, where it enters
    the fast path: white complex noise whose per-component sigma is the
    time-domain one times sqrt(M), as ``forward`` of white time-domain noise
    gives it.  The period stands for the dilated record folded onto it, so
    the time-domain sigma is that of PSD - 10 log10(slide factor).
    """

    def __init__(
        self, sc: ScenarioConfig, rx_index: int, preset: SounderPreset, channel: MultipathChannel
    ) -> None:
        cfg = preset.config
        wave = preset.transmit_waveform()
        self.wave = replace(wave, samples=wave.samples * math.sqrt(10.0 ** (sc.tx_power_dbm / 10.0)))
        self.tx_pattern = sc.tx_pattern.pointed(*sc.tx_pointing_for(sc.rx_locations[rx_index]))
        self.kernel = fast_kernel(cfg, self.wave.sample_rate, preset.chip_sequence())
        self.terms = [
            (p, self.kernel.forward(shifted), tx_gain, phasor)
            for p, shifted, tx_gain, phasor in path_terms(self.wave, channel, self.tx_pattern)
        ]
        psd = _folded_psd(preset, sc.effective_noise_psd_dbm_hz)
        self.sigma = noise_sigma(psd, self.wave.sample_rate) * math.sqrt(self.kernel.shape[0])
        # fetched here, before any capture's arrays exist, so that the
        # pulse calibration does not add to a capture's peak memory
        self.pulse_bins = system_pulse_energy_bins(preset)
        self.axis = delay_axis(
            cfg.code_length * COMPRESSED_SAMPLES_PER_CHIP, cfg.compressed_sample_rate, slide_factor(cfg)
        )

    def acquire(self, rx: AntennaPattern, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One capture with the receive horn pointed as ``rx``: the received
        period's (M, g) branch spectra (noise drawn from ``rng``) and its
        compressed trace.  ``self.kernel.inverse`` of the spectra is the
        received one-period record, which ``correlate_fast`` maps to the
        same trace."""
        spectra = [term[1] for term in self.terms]
        branches = superpose(spectra, path_coefficients(self.terms, rx), self.kernel.shape)
        add_noise(branches, self.sigma, rng)
        return branches, self.kernel.mix(branches)

    def threshold(
        self, power: np.ndarray, metadata: dict | None = None
    ) -> tuple[float | None, PowerDelayProfile | None]:
        """Threshold a power trace in place (:func:`threshold_in_place`,
        with the location's pulse footprint).  Returns its total power in
        dBm (None when nothing survives) and, only when ``metadata`` is
        given, the thresholded PDP built on ``power`` and the delay axis."""
        floor, threshold, total = threshold_in_place(power, self.pulse_bins)
        if metadata is None:
            return total, None
        return total, PowerDelayProfile(
            power, self.axis, noise_floor_dbm=floor, threshold_dbm=threshold,
            total_power_dbm=total, pulse_bins=self.pulse_bins, metadata=metadata,
        )


def run_sweep(
    sc: ScenarioConfig,
    rx_index: int,
    step_deg: float,
    sweeps: int,
    seed: int,
    preset: SounderPreset,
    averages: int = 1,
    *,
    channel: MultipathChannel,
    pdp_sink: Callable[[PowerDelayProfile], None] | None = None,
) -> list[tuple[float, float | None]]:
    """One receiver location, ``sweeps`` consecutive azimuth sweeps.

    The angle grid starts at the spoke nearest the strongest path's arrival
    azimuth (the operator's best-pointing convention); power analyses are
    invariant to that rotation.  Each (angle, sweep) acquisition runs
    ``averages`` captures of the location's :class:`Capture`, each with its
    own seeded noise, and thresholds the linear mean of their I^2 + Q^2
    (``average_pdps``'s, bit for bit) in place.  ``channel`` is the
    location's channel, built and checked by :func:`check_location`.

    With a ``pdp_sink``, each acquisition's thresholded PDP is built and
    handed to it in (spoke, sweep) order and then dropped, so memory does
    not grow with the spoke or sweep count.  Without one, no PDP is built:
    only each acquisition's total power is kept.  Returns one ``(azimuth, best_power_dbm)`` pair per spoke
    in grid order: the strongest total power over its sweeps, or None when
    no sweep kept a sample (a signal-absent spoke).
    """
    check_sweep_options(step_deg, sweeps, averages)
    rx_loc = sc.rx_locations[rx_index]

    start = 0.0
    if channel.paths:
        strongest = max(channel.paths, key=lambda p: p.gain)
        start = round(strongest.aoa_az_deg / step_deg) * step_deg
    grid = _angle_grid(step_deg, start)
    capture = Capture(sc, rx_index, preset, channel)

    spokes = []
    for ai, azimuth in enumerate(grid):
        rx_pattern = sc.rx_pattern.pointed(azimuth, sc.rx_elevation_deg)
        totals = []
        for s in range(sweeps):
            for a in range(averages):
                rng = np.random.default_rng((seed, rx_index, ai, s, a))
                trace = capture.acquire(rx_pattern, rng)[1]
                if a:
                    power += trace.real**2 + trace.imag**2
                else:  # the first capture's array becomes the running sum
                    power = trace.real**2 + trace.imag**2
                del trace  # so the next capture reuses its memory (fewer page faults)
            if averages > 1:  # average_pdps's mean
                power /= averages
            if pdp_sink is None:
                total = capture.threshold(power)[0]
            else:
                metadata = {"angle": azimuth, "location": rx_loc.ident, "sweep": s}
                if averages > 1:  # and average_pdps's tag
                    metadata["averaged"] = averages
                total, pdp = capture.threshold(power, metadata)
                pdp_sink(pdp)
            if total is not None:
                totals.append(total)
        spokes.append((azimuth, max(totals) if totals else None))
    return spokes


def omni_power(spokes: list[tuple[float, float | None]]) -> float | None:
    """Linear sum of the per-spoke best directional powers, in dBm.

    Returns None when no spoke carries signal.  Adjacent-beam overlap is not
    corrected for; the documented upward bias is bounded by the pattern's
    sidelobe floor.
    """
    powers = [power for _, power in spokes if power is not None]
    if not powers:
        return None
    return 10.0 * math.log10(sum(10.0 ** (p / 10.0) for p in powers))


def path_loss(
    omni_dbm: float, tx_power_dbm: float, tx_gain_dbi: float, rx_gain_dbi: float
) -> float:
    """Isotropic-referenced path loss: antenna gains removed from the link."""
    return tx_power_dbm + tx_gain_dbi + rx_gain_dbi - omni_dbm


def eirp(tx_power_dbm: float, tx_gain_dbi: float) -> float:
    return tx_power_dbm + tx_gain_dbi


@dataclass(frozen=True)
class CiFit:
    """Close-in free-space reference distance fit: PL = FSPL(d0) + 10 n log10(d/d0)."""

    ple: float
    sigma_db: float
    frequency_hz: float
    point_count: int
    d0_m: float = 1.0


def ci_fit(points: list[tuple[float, float]], f: float) -> CiFit:
    """Least-squares path-loss exponent through the 1 m free-space anchor.

    Single-parameter fit: n = sum(a_i x_i) / sum(x_i^2) with
    x_i = 10 log10(d_i) and a_i the path loss above FSPL(1 m); sigma is the
    RMS shadow-fading residual.
    """
    if len(points) < 2:
        raise AnalysisError("CI fit needs at least two points")
    d = np.asarray([p[0] for p in points], dtype=float)
    pl = np.asarray([p[1] for p in points], dtype=float)
    if (d <= 1.0).any():
        raise AnalysisError("CI fit distances must exceed the 1 m reference")
    anchor = fspl(1.0, f)
    x = 10.0 * np.log10(d)
    if np.allclose(x, x[0]):
        raise AnalysisError("CI fit is ill-conditioned: all distances equal")
    ple = float(np.dot(pl - anchor, x) / np.dot(x, x))
    residual = pl - anchor - ple * x
    sigma = float(np.sqrt(np.mean(residual**2)))
    return CiFit(ple=ple, sigma_db=sigma, frequency_hz=f, point_count=len(points))


def local_power_std(omni_powers_dbm: list[float]) -> float:
    """Sample standard deviation of received powers, in dB."""
    if len(omni_powers_dbm) < 2:
        raise AnalysisError("need at least two powers for a standard deviation")
    return float(np.std(np.asarray(omni_powers_dbm, dtype=float), ddof=1))


def fading_rate(
    route: list[tuple[float, float]], speed_mps: float
) -> tuple[float, float]:
    """Power decay rate over the longest contiguous decreasing run.

    ``route`` holds (position along path in metres, omni power in dBm) with
    strictly increasing positions.  Returns (dB/m, dB/s); dB/s is exactly
    dB/m times the speed.  A route with no decreasing pair yields zero rates;
    a rate that overflows to infinity is an ``AnalysisError``.
    """
    if len(route) < 2:
        raise AnalysisError("fading rate needs at least two route points")
    pos = [p for p, _ in route]
    if any(b <= a for a, b in zip(pos, pos[1:])):
        raise AnalysisError("route positions must be strictly increasing")

    runs = []  # (start, stop) inclusive, of each maximal decreasing run
    start = 0
    for i in range(1, len(route) + 1):
        if i == len(route) or route[i][1] >= route[i - 1][1]:
            if i - 1 > start:
                runs.append((start, i - 1))
            start = i
    if not runs:
        return 0.0, 0.0
    # the longest run, then the larger drop; max keeps the first of equals
    a, b = max(runs, key=lambda r: (r[1] - r[0], route[r[0]][1] - route[r[1]][1]))
    db_per_m = (route[a][1] - route[b][1]) / (route[b][0] - route[a][0])
    db_per_s = db_per_m * speed_mps
    if not math.isfinite(db_per_s):
        raise AnalysisError(f"fading rate {db_per_m} dB/m at {speed_mps} m/s is not finite")
    return db_per_m, db_per_s


@dataclass(frozen=True)
class LinkBudget:
    """Terms of the maximum-measurable-path-loss budget.

    ``noise_floor_dbm`` is referenced to the acquisition bandwidth of the
    digitizer (the simulation sample rate) so that the processing and
    averaging gains appear explicitly as separate terms.
    """

    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    processing_gain_db: float
    averaging_gain_db: float
    noise_floor_dbm: float
    snr_threshold_db: float = 5.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not abs(value) <= 1000.0:  # dB; NaN fails too, and sums stay finite
                raise ConfigError(
                    f"link budget field {name}={value:g} is beyond +-1000 dB, which no "
                    "physical term reaches and which prints hundreds of digits or overflows"
                )

    @staticmethod
    def full_preset_budget() -> "LinkBudget":
        """Budget of the 500 Mcps configuration: 14.6 dBm TX, 27 dBi horns
        both ends, slide factor 8000, 20-profile averaging, thermal floor
        with a 5 dB noise figure over the 2 GS/s acquisition bandwidth."""
        return LinkBudget(
            tx_power_dbm=14.6,
            tx_gain_dbi=27.0,
            rx_gain_dbi=27.0,
            processing_gain_db=processing_gain(8000.0),
            averaging_gain_db=averaging_gain_db(20),
            noise_floor_dbm=noise_floor_dbm(2e9, noise_figure_db=5.0),
        )


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise floor -174 dBm/Hz + 10 log10(B) + NF."""
    if bandwidth_hz <= 0:
        raise ConfigError("bandwidth must be positive")
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def averaging_gain_db(count: int) -> float:
    """Non-coherent averaging SNR improvement, 10 log10(sqrt(count))."""
    if count < 1:
        raise ConfigError("averaging count must be >= 1")
    return 5.0 * math.log10(count)  # log10 takes an int of any size


def max_measurable_path_loss(lb: LinkBudget) -> float:
    """TX power + antenna gains + processing + averaging - (floor + SNR)."""
    return (
        lb.tx_power_dbm
        + lb.tx_gain_dbi
        + lb.rx_gain_dbi
        + lb.processing_gain_db
        + lb.averaging_gain_db
        - (lb.noise_floor_dbm + lb.snr_threshold_db)
    )


def angular_spectrum(spokes: list[tuple[float, float | None]]) -> list[tuple[float, float]]:
    """Per-angle best power table; absent angles carry the floor sentinel."""
    return sorted(
        (az, ABSENT_POWER_DBM if power is None else power) for az, power in spokes
    )
