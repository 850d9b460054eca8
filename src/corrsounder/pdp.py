"""Power delay profiles: calibration, thresholding, averaging.

A PDP is I^2 + Q^2 of a dilated CIR versus true excess delay (the compressed
time axis divided by the slide factor).  Sample powers are linear milliwatts
under the package convention that unit sample power is 0 dBm.

``total_power`` is calibrated to resolvable-path power: the correlator
spreads each path over a two-chip-wide correlation pulse (triangle), so the
plain sum over bins overstates the received power by the pulse's energy
footprint.  The sum is divided by that factor (``pulse_energy_bins``) so a
single unit path integrates back to its peak power.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correlator import (
    COMPRESSED_SAMPLES_PER_CHIP,
    CSV_BLOCK_ROWS,
    DilatedCir,
    SounderPreset,
    fast_kernel,
    slide_factor,
)
from .errors import AnalysisError, ConfigError

__all__ = [
    "PowerDelayProfile",
    "pdp_from_iq",
    "average_pdps",
    "noise_window_start",
    "threshold_in_place",
    "threshold_pdp",
    "write_pdp_csv",
    "pulse_energy_bins",
    "system_pulse_energy_bins",
]

#: Bins below max(peak - PEAK_WINDOW_DB, floor + SNR_MARGIN_DB) are zeroed.
PEAK_WINDOW_DB = 20.0
SNR_MARGIN_DB = 5.0


def pulse_energy_bins() -> float:
    """Energy footprint of the triangular chip correlation pulse, in bins.

    sum_k (1 - |k|/S)^2 over integer k, S = ``COMPRESSED_SAMPLES_PER_CHIP``.
    """
    s = COMPRESSED_SAMPLES_PER_CHIP
    return 1.0 + 2.0 * sum((1.0 - j / s) ** 2 for j in range(1, s))


def _dbm(power_mw: float) -> float:
    return -math.inf if power_mw <= 0.0 else 10.0 * math.log10(power_mw)


@functools.lru_cache(maxsize=8)
def delay_axis(bins: int, sample_rate: float, slide_factor: float) -> np.ndarray:
    """True-delay axis of a ``bins``-long trace: its compressed time divided
    by the slide factor.  Read-only and shared by every profile built on it."""
    axis = np.arange(bins) / sample_rate / slide_factor
    axis.flags.writeable = False
    return axis


@dataclass(frozen=True, eq=False)
class PowerDelayProfile:
    power_mw: np.ndarray
    excess_delay_s: np.ndarray
    noise_floor_dbm: float | None = None
    threshold_dbm: float | None = None
    total_power_dbm: float | None = None
    pulse_bins: float = 1.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = np.asarray(self.power_mw, dtype=np.float64)
        d = np.asarray(self.excess_delay_s, dtype=np.float64)
        if p.shape != d.shape or p.ndim != 1:
            raise ConfigError("power and delay axes must be matching 1-D vectors")
        if p.size >= 2:
            steps = np.diff(d)
            # np.allclose's test (rtol 1e-9, atol 1e-18) as one reduction; a
            # NaN step makes the comparison False, so it is rejected too.
            if not np.abs(steps - steps[0]).max() <= 1e-18 + 1e-9 * abs(steps[0]):
                raise ConfigError("excess delay axis must be uniform")
        object.__setattr__(self, "power_mw", p)
        object.__setattr__(self, "excess_delay_s", d)

    def __len__(self) -> int:
        return int(self.power_mw.size)

    @property
    def peak_power_dbm(self) -> float:
        return _dbm(float(self.power_mw.max(initial=0.0)))


def pdp_from_iq(
    cir: DilatedCir, pulse_bins: float | None = None, **metadata
) -> PowerDelayProfile:
    """I^2 + Q^2 against the de-dilated (true excess delay) axis.

    ``pulse_bins`` overrides the analytic triangular pulse footprint with a
    measured one (the correlator's filters widen the pulse slightly).
    """
    power = cir.i_channel**2 + cir.q_channel**2
    return PowerDelayProfile(
        power_mw=power,
        excess_delay_s=delay_axis(len(cir), cir.sample_rate, cir.slide_factor),
        pulse_bins=pulse_bins if pulse_bins is not None else pulse_energy_bins(),
        metadata=dict(metadata),
    )


def average_pdps(pdps: list[PowerDelayProfile]) -> PowerDelayProfile:
    """Element-wise linear mean (non-coherent averaging)."""
    if not pdps:
        raise AnalysisError("cannot average an empty set of PDPs")
    first = pdps[0]
    for other in pdps[1:]:
        if len(other) != len(first) or not np.allclose(
            other.excess_delay_s, first.excess_delay_s, rtol=1e-9, atol=1e-18
        ):
            raise AnalysisError("PDPs to average must share their delay axis")
    mean = np.mean([p.power_mw for p in pdps], axis=0)
    meta = dict(first.metadata)
    meta["averaged"] = len(pdps)
    return replace(first, power_mw=mean, metadata=meta)


def noise_window_start(bins: int) -> int:
    """First bin of the trailing tenth of a ``bins``-long delay axis, the
    window the noise floor is read from."""
    return bins - bins // 10


def _median(values: np.ndarray) -> float:
    # np.median's result bit for bit (the mean of the two middle values for
    # an even length, NaN if any value is NaN) without importing numpy.ma
    mid = values.size // 2
    part = np.partition(values, [mid - 1, mid, -1])
    if np.isnan(part[-1]):
        return math.nan
    if values.size % 2:
        return float(part[mid])
    return float((part[mid - 1] + part[mid]) / 2.0)


def _floor_dbm(power: np.ndarray) -> float:
    """Median power over the trailing 10% of the delay axis, in dBm.

    The tail of the (periodic) trace carries no constructed paths, so its
    median is a multipath-robust floor estimate.  Returns -inf for a
    zero-noise profile.
    """
    if power.size < 100:
        raise AnalysisError(f"need >= 100 samples to estimate a noise floor, got {power.size}")
    return _dbm(_median(power[noise_window_start(power.size) :]))


def threshold_in_place(
    power: np.ndarray, pulse_bins: float, floor_dbm: float | None = None
) -> tuple[float, float, float | None]:
    """Apply the max(peak - 20 dB, floor + 5 dB) threshold rule to ``power``
    in place: bins below the threshold (and NaN bins) are zeroed.

    The floor is the median power over the trailing tenth of the delay
    axis unless ``floor_dbm`` is given.  Returns (floor, threshold, total)
    in dBm, where the total sums the surviving bins divided by
    ``pulse_bins`` (see module doc) and is None when no bin survives, a
    signal-absent acquisition.
    """
    if floor_dbm is None:
        floor_dbm = _floor_dbm(power)
    peak = _dbm(float(power.max(initial=0.0)))
    threshold = max(peak - PEAK_WINDOW_DB, floor_dbm + SNR_MARGIN_DB)
    drop = power >= 10.0 ** (threshold / 10.0)
    np.logical_not(drop, out=drop)  # below the threshold, or NaN
    np.copyto(power, 0.0, where=drop)
    total = float(power.sum()) / pulse_bins
    return floor_dbm, threshold, _dbm(total) if power.any() else None


def threshold_pdp(pdp: PowerDelayProfile) -> PowerDelayProfile:
    """The profile with :func:`threshold_in_place` applied to a copy of its
    power, on its own ``noise_floor_dbm`` when set.

    ``total_power_dbm`` stays None when nothing survives, which downstream
    code treats as a signal-absent acquisition.
    """
    power = pdp.power_mw.copy()
    floor, threshold, total = threshold_in_place(power, pdp.pulse_bins, pdp.noise_floor_dbm)
    return replace(
        pdp, power_mw=power, noise_floor_dbm=floor, threshold_dbm=threshold, total_power_dbm=total
    )


@functools.lru_cache(maxsize=8)
def system_pulse_energy_bins(preset: SounderPreset) -> float:
    """Energy footprint (in bins) of a preset's single-path pulse.

    Runs the noiseless one-period probe through the capture kernel and
    :func:`threshold_pdp`, then divides the surviving power sum by the peak.
    Passing the result as ``pulse_bins`` to :func:`pdp_from_iq` makes a
    thresholded single-path total integrate back to the path's peak power.
    """
    cfg = preset.config
    trace = fast_kernel(cfg, preset.sample_rate, preset.chip_sequence()).compress(
        preset.transmit_waveform().samples
    )
    axis = delay_axis(trace.size, cfg.compressed_sample_rate, slide_factor(cfg))
    power = threshold_pdp(PowerDelayProfile(trace.real**2 + trace.imag**2, axis)).power_mw
    return float(power.sum() / power.max())


@functools.lru_cache(maxsize=17)  # the 16 blocks of full's axis and desk's one
def _zeroed_rows(block: bytes) -> tuple[str, np.ndarray]:
    # one delay-axis block as joined 'delay,-inf' rows, and each row's end
    delays_ns = (np.frombuffer(block) * 1e9).tolist()
    text = "%.10g,-inf\n" * len(delays_ns) % tuple(delays_ns)
    return text, np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == 10) + 1


def write_pdp_csv(pdp: PowerDelayProfile, path) -> None:
    """CSV export: '#'-prefixed metadata rows, then excess_delay_ns,power_dBm.
    Each block of at most ``CSV_BLOCK_ROWS`` rows is built as one buffer and
    written with one call, the metadata rows with the first, so a desk PDP
    is one write and the buffer never holds more than a block."""

    def fmt(value) -> str:
        return "" if value is None else f"{value:.10g}"

    pieces = [
        f"# noise_floor_dbm={fmt(pdp.noise_floor_dbm)}\n",
        f"# threshold_dbm={fmt(pdp.threshold_dbm)}\n",
        f"# total_power_dbm={fmt(pdp.total_power_dbm)}\n",
    ]
    for key in ("angle", "location", "sweep"):
        if key in pdp.metadata:
            pieces.append(f"# {key}={pdp.metadata[key]}\n")
    pieces.append("excess_delay_ns,power_dBm\n")
    delays = pdp.excess_delay_s
    with open(path, "wb") as fh:
        # every PDP on an axis shares its blocks' all-zeroed text; a file
        # splices in only the bins _dbm's test keeps (a NaN bin prints 'nan')
        for start in range(0, len(delays), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            text, ends = _zeroed_rows(delays[block].tobytes())
            power = pdp.power_mw[block]
            kept = np.flatnonzero(~(power <= 0.0))
            done = 0
            for end, p in zip(ends[kept].tolist(), power[kept].tolist()):
                pieces += text[done : end - len("-inf\n")], f"{10.0 * math.log10(p):.10g}\n"
                done = end
            pieces.append(text[done:])
            fh.write("".join(pieces).encode())
            pieces = []
