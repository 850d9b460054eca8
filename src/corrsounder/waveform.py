"""Sampled baseband waveforms: chip upsampling, low-pass taps, binary export.

Chips are rectangular (zero-order hold): the DAC repeats each chip value
``samples_per_chip`` times, so no transmit pulse shaping is applied.  All
waveforms are complex baseband; IF/LO frequencies of the analog chain are
carried as metadata only, never modelled.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .pn import ChipSequence

__all__ = [
    "SampledWaveform",
    "upsample_chips",
    "design_lowpass_taps",
    "write_waveform",
    "read_waveform",
]


@dataclass(frozen=True, eq=False)
class SampledWaveform:
    """Complex baseband samples with rate and chip-rate bookkeeping.

    ``period_samples`` is the length of one code period; the buffer holds an
    integer number of periods.
    """

    samples: np.ndarray
    sample_rate: float
    chip_rate: float
    period_samples: int = 0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigError("samples must be a non-empty 1-D vector")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "period_samples", int(self.period_samples or samples.size))

    def __len__(self) -> int:
        return int(self.samples.size)


def upsample_chips(
    seq: ChipSequence,
    chip_rate: float,
    samples_per_chip: int,
    periods: int = 1,
) -> SampledWaveform:
    """Zero-order-hold shaping of a chip sequence into a sampled waveform."""
    if samples_per_chip < 2:
        raise ConfigError(
            f"samples_per_chip must be >= 2 to avoid aliasing, got {samples_per_chip}"
        )
    if periods < 1:
        raise ConfigError("periods must be >= 1")
    one = np.repeat(seq.chips.astype(np.complex128), samples_per_chip)
    samples = np.tile(one, periods)
    return SampledWaveform(
        samples=samples,
        sample_rate=chip_rate * samples_per_chip,
        chip_rate=chip_rate,
        period_samples=one.size,
    )


#: Cephes' Chebyshev coefficients of exp(-x) I0(x) on [0, 8] (``i0.c``,
#: table A), in Cephes' order.
_I0_CHEBYSHEV = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17,
    -2.43127984654795469359e-16, 1.71539128555513303061e-15,
    -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12,
    -1.72682629144155570723e-11, 9.67580903537323691224e-11,
    -5.18979560163526290666e-10, 2.65982372468238665035e-09,
    -1.30002500998624804212e-08, 6.04699502254191894932e-08,
    -2.67079385394061173391e-07, 1.11738753912010371815e-06,
    -4.41673835845875056359e-06, 1.64484480707288970893e-05,
    -5.75419501008210370398e-05, 1.88502885095841655729e-04,
    -5.76375574538582365885e-04, 1.63947561694133579842e-03,
    -4.32430999505057594430e-03, 1.05464603945949983183e-02,
    -2.37374148058994688156e-02, 4.93052842396707084878e-02,
    -9.49010970480476444210e-02, 1.71620901522208775349e-01,
    -3.04682672343198398683e-01, 6.76795274409476084995e-01,
)


def _kaiser_i0(x: np.ndarray) -> np.ndarray:
    """Modified Bessel function I0 on [0, 8], the Kaiser window's range.

    Cephes' ``i0`` step for step: the Clenshaw recurrence over its 30
    Chebyshev coefficients at x/2 - 2, times exp(x).  The exponential is
    ``math.exp`` (the C library's, as Cephes calls it), because numpy's
    vectorised ``np.exp`` may differ from it in the last bit.  So the result
    equals ``scipy.special.i0`` bit for bit; ``np.i0`` does not.
    """
    x = np.asarray(x, dtype=np.float64)
    y = x / 2.0 - 2.0
    b0, b1 = _I0_CHEBYSHEV[0], 0.0
    for coef in _I0_CHEBYSHEV[1:]:
        b0, b1, b2 = y * b0 - b1 + coef, b0, b1
    exp_x = np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size)
    return exp_x.reshape(x.shape) * (0.5 * (b0 - b2))


def design_lowpass_taps(cutoff: float, sample_rate: float) -> np.ndarray:
    """Kaiser windowed-sinc lowpass, odd tap count, unity DC gain.

    The -6 dB point sits at ``cutoff``; the transition band, ``cutoff/4``
    wide (clamped below Nyquist), is centred on it.  That narrow transition
    keeps the noise-equivalent bandwidth within 0.1 dB of 2 x ``cutoff``,
    which the correlator's processing-gain math depends on.  45 dB of
    stopband attenuation keeps passband ripple near 0.05 dB, well inside the
    0.5 dB budget, and exceeds the 40 dB stopband requirement.

    Kaiser's empirical order and beta formulas (Oppenheim & Schafer,
    pp. 475-476) for 45 dB, written out in the same operation order as
    ``scipy.signal.kaiserord``/``firwin`` so the taps are bit-identical to
    theirs without importing scipy; the window's I0 is :func:`_kaiser_i0`.
    """
    nyq = sample_rate / 2.0
    if not 0.0 < cutoff < nyq:
        raise ConfigError(f"cutoff must lie in (0, {nyq}), got {cutoff}")
    # Keep the whole transition band under Nyquist.
    width = min(cutoff / 4.0, 2.0 * (nyq - cutoff) * 0.98)
    beta = 0.5842 * (45.0 - 21) ** 0.4 + 0.07886 * (45.0 - 21)
    numtaps = math.ceil((45.0 - 7.95) / 2.285 / (np.pi * (width / nyq)) + 1)
    numtaps += (numtaps + 1) % 2  # odd length -> integer group delay
    alpha = 0.5 * (numtaps - 1)
    n = np.arange(0, numtaps, dtype=np.float64)
    window = _kaiser_i0(beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / _kaiser_i0(beta)
    band = cutoff / nyq
    taps = band * np.sinc(band * (n - alpha)) * window
    # Two passes, as firwin's own unity-DC scaling followed by ours: a single
    # pass differs from that in the last bit of some taps.
    taps /= taps.sum()
    return taps / taps.sum()


_MAGIC = b"CSWF"
_VERSION = 2


def write_waveform(w: SampledWaveform, path) -> None:
    """Binary export: header JSON + little-endian interleaved re/im float64."""
    header = {
        "sample_rate": w.sample_rate,
        "chip_rate": w.chip_rate,
        "period_samples": w.period_samples,
        "count": len(w),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    inter = np.empty(2 * len(w), dtype="<f8")
    inter[0::2] = w.samples.real
    inter[1::2] = w.samples.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        fh.write(inter.tobytes())


def read_waveform(path) -> SampledWaveform:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise SimulationError(f"{path}: not a waveform file")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise SimulationError(f"{path}: unsupported waveform version {version}")
        header = json.loads(fh.read(hlen))
        inter = np.frombuffer(fh.read(), dtype="<f8")
    if inter.size != 2 * header["count"]:
        raise SimulationError(f"{path}: truncated sample payload")
    samples = inter[0::2] + 1j * inter[1::2]
    return SampledWaveform(
        samples=samples,
        sample_rate=header["sample_rate"],
        chip_rate=header["chip_rate"],
        period_samples=header["period_samples"],
    )
