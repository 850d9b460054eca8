"""Sliding correlation: time-dilated CIR recovery and the timing math.

The receiver regenerates the probing code at a slightly slower chip rate and
mixes it against the incoming waveform.  The code alignment slips by one full
code length per dilated period, so a true excess delay ``tau`` shows up at
compressed time ``tau * slide_factor`` where

    slide_factor = f_tx / (f_tx - f_rx)

``correlate_literal`` implements that mixer sample by sample (the ground
truth; expensive at full rate).  ``correlate_fast`` produces the same trace
cheaply from the input folded onto one code period: when the slow code is
periodic on the sample grid the mixer is an exact bank of cyclic
convolutions over that period (a polyphase kernel).  Otherwise a template
correlation shaped by an equivalent low-pass kernel stands in for it, cast
in the same polyphase form, so one kernel runs both.

The polyphase kernel computes only the samples the decimator keeps.  Each
code phase is read on one coset of a subgroup of the period (every g-th
sample, g = 8 on desk), and sampling a cyclic convolution every g-th sample
aliases its spectrum: the g bins k, k + P1/g, ..., spaced P1/g apart, add
up, each weighted by the coset's phase ramp.  In time that is a sum over
the input's g polyphase branches of P1/g-point cyclic convolutions, so the
kernel runs FFTs of that length only (127 on desk, not 1,016).  The
aliasing is exact, not an approximation.

Mixer self-noise: the product of the two code waveforms contains, besides
the slipping correlation (line pairs j, -j of the two code-harmonic combs),
cross pairs (j, i) landing at output frequency gamma*j + (gamma-1)*i in
units of the compressed line spacing.  Cross families with j + i = c sit
(gamma - 1) * c lines away from the correlation band: at the 500 Mcps
configuration (slide factor / code length = 3.9) they fall outside the
correlator low-pass and the trace floor reaches the m-sequence bound, but
at the desk scale (slide factor = code length + 1) they land inside the
band occupied by the correlation itself and no filter can remove them.
The desk preset's noiseless trace therefore floors about 17 dB below the
peak; that self-noise is deterministic mixer physics, reproduced exactly
by ``correlate_fast``, and receiver noise floors are measured with the
transmitter silent (as with the hardware's calibration practice).

Output rate is fixed at 16 compressed samples per chip-equivalent,
i.e. 16 x (f_tx - f_rx) in absolute terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .pn import ChipSequence, LfsrSpec, generate_msequence, preset
from .waveform import SampledWaveform, design_lowpass_taps, upsample_chips

__all__ = [
    "CorrelatorConfig",
    "DilatedCir",
    "SounderPreset",
    "desk_preset",
    "full_preset",
    "get_preset",
    "COMPRESSED_SAMPLES_PER_CHIP",
    "slide_factor",
    "dilated_period",
    "processing_gain",
    "rx_chip_rate_from_divider",
    "correlate_literal",
    "correlate_fast",
    "write_cir_csv",
]

#: Compressed-domain output rate, in samples per dilated chip duration.
COMPRESSED_SAMPLES_PER_CHIP = 16

#: Rows per ``write`` call of the CSV exports.
CSV_BLOCK_ROWS = 2048

#: Block length of the literal mixer's local-code build; bounds its
#: int64/float64 index temporaries on long records.
_CHUNK = 1 << 22


@dataclass(frozen=True)
class CorrelatorConfig:
    """TX/RX chip rates, code length and the receiver filter cutoffs.

    ``lpf_cutoff`` (0 means the 4 x rate-offset default) shapes the
    compressed output.
    """

    tx_chip_rate: float
    rx_chip_rate: float
    code_length: int
    lpf_cutoff: float = 0.0

    def __post_init__(self) -> None:
        if self.tx_chip_rate <= 0 or self.rx_chip_rate <= 0:
            raise ConfigError("chip rates must be positive")
        if self.rx_chip_rate >= self.tx_chip_rate:
            raise ConfigError(
                f"rx chip rate {self.rx_chip_rate} must be slower than tx {self.tx_chip_rate}"
            )
        if self.code_length < 3:
            raise ConfigError("code length must be >= 3")
        if self.lpf_cutoff == 0.0:
            object.__setattr__(self, "lpf_cutoff", 4.0 * self.rate_offset)
        if self.lpf_cutoff < 2.0 * self.rate_offset:
            raise ConfigError(
                f"lpf_cutoff {self.lpf_cutoff} below twice the chip-rate offset "
                f"{self.rate_offset}"
            )

    @property
    def rate_offset(self) -> float:
        return self.tx_chip_rate - self.rx_chip_rate

    @property
    def compressed_sample_rate(self) -> float:
        return COMPRESSED_SAMPLES_PER_CHIP * self.rate_offset


def slide_factor(cfg: CorrelatorConfig) -> float:
    """Time-dilation factor f_tx / (f_tx - f_rx)."""
    offset = cfg.rate_offset
    if offset <= 0:
        raise ConfigError("chip-rate offset must be positive")
    return cfg.tx_chip_rate / offset


def dilated_period(cfg: CorrelatorConfig) -> float:
    """Duration of one compressed CIR trace: code_length / rate offset."""
    return cfg.code_length / cfg.rate_offset


def processing_gain(gamma: float) -> float:
    """SNR improvement of the sliding correlator, 10*log10(slide factor)."""
    if gamma <= 1:
        raise ConfigError(f"slide factor must exceed 1, got {gamma}")
    return 10.0 * math.log10(gamma)


def rx_chip_rate_from_divider(synth_freq: float, divider: int) -> float:
    """Receive chip rate derived from a synthesizer clock and divider."""
    if divider < 1:
        raise ConfigError("divider must be >= 1")
    return synth_freq / divider


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SounderPreset:
    """Code spec, correlator config and simulation rate bundled together."""

    name: str
    pn_spec: LfsrSpec
    config: CorrelatorConfig
    samples_per_chip: int

    @property
    def sample_rate(self) -> float:
        return self.config.tx_chip_rate * self.samples_per_chip

    def chip_sequence(self) -> ChipSequence:
        return generate_msequence(self.pn_spec)

    def transmit_waveform(self, periods: int = 1) -> SampledWaveform:
        """Probing waveform, ``periods`` code periods long."""
        return upsample_chips(
            self.chip_sequence(), self.config.tx_chip_rate, self.samples_per_chip, periods
        )


def desk_preset() -> SounderPreset:
    """Order-7/127-chip configuration, slide factor 128, test-speed scale.

    8 samples per chip makes the simulation bandwidth 8 MHz, which equals
    slide_factor x the correlator's noise-equivalent bandwidth (2 x cutoff =
    8 x rate offset), so measured processing gain lands on
    10*log10(slide factor) when input SNR is referenced to the simulation
    bandwidth.  With slide factor = code length + 1 the mixer self-noise
    floors the noiseless trace near -17 dB (see module doc).
    """
    tx = 1e6
    return SounderPreset(
        name="desk",
        pn_spec=preset(7),
        config=CorrelatorConfig(
            tx_chip_rate=tx, rx_chip_rate=tx * 127 / 128, code_length=127
        ),
        samples_per_chip=8,
    )


def full_preset() -> SounderPreset:
    """Order-11/2047-chip configuration at 500 Mcps, slide factor 8000.

    One dilated period is 32.752 ms, i.e. 65.5 M samples at 2 GS/s, so
    full-rate literal runs are opt-in.  The low-pass sits at twice the rate
    offset: the first mixer cross family at f_rx/N (244 kHz) then falls in
    the stopband and no reference premix is needed.
    """
    return SounderPreset(
        name="full",
        pn_spec=preset(11),
        config=CorrelatorConfig(
            tx_chip_rate=500e6,
            rx_chip_rate=rx_chip_rate_from_divider(1999.75e6, 4),
            code_length=2047,
            lpf_cutoff=125e3,
        ),
        samples_per_chip=4,
    )


def get_preset(name: str) -> SounderPreset:
    try:
        return {"desk": desk_preset, "full": full_preset}[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose desk or full") from None


# ---------------------------------------------------------------------------
# dilated CIR container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DilatedCir:
    """One dilated period of the compressed I/Q channel impulse response."""

    i_channel: np.ndarray
    q_channel: np.ndarray
    compressed_bandwidth: float  # chip-rate offset, Hz
    slide_factor: float
    dilated_period: float  # seconds
    sample_rate: float  # compressed-domain sample rate, Hz

    def __post_init__(self) -> None:
        i = np.asarray(self.i_channel, dtype=np.float64)
        q = np.asarray(self.q_channel, dtype=np.float64)
        if i.shape != q.shape or i.ndim != 1:
            raise ConfigError("i/q channels must be matching 1-D vectors")
        object.__setattr__(self, "i_channel", i)
        object.__setattr__(self, "q_channel", q)

    def __len__(self) -> int:
        return int(self.i_channel.size)

    @property
    def cir(self) -> np.ndarray:
        return self.i_channel + 1j * self.q_channel

    @property
    def compressed_time(self) -> np.ndarray:
        return np.arange(len(self)) / self.sample_rate


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


def _integer(value: float, what: str) -> int:
    n = round(value)
    if abs(value - n) > 1e-6:
        raise SimulationError(f"{what} must work out to an integer, got {value}")
    return int(n)


def _validate_geometry(fs: float, cfg: CorrelatorConfig) -> tuple[int, int]:
    """Common length/rate checks; returns (dilated samples, decim step)."""
    if fs < 2.0 * cfg.tx_chip_rate:
        raise SimulationError(
            f"sample rate {fs} below 2x the tx chip rate {cfg.tx_chip_rate}"
        )
    d = _integer(dilated_period(cfg) * fs, "samples per dilated period")
    step = _integer(fs / cfg.compressed_sample_rate, "decimation factor")
    _integer(slide_factor(cfg), "slide factor")
    return d, step


@functools.lru_cache(maxsize=16)
def _lpf_spectrum(cfg: CorrelatorConfig, fs: float, n: int) -> np.ndarray:
    """Cached circular response of the correlator low-pass, centred so it
    adds no group delay (do not mutate)."""
    taps = design_lowpass_taps(cfg.lpf_cutoff, fs)
    if taps.size > n:
        raise SimulationError("record shorter than the filter kernel")
    kernel = np.zeros(n)
    kernel[: taps.size] = taps
    return np.fft.fft(np.roll(kernel, -((taps.size - 1) // 2)))


def _reference_period(cfg: CorrelatorConfig, fs: float, pn: ChipSequence) -> np.ndarray | None:
    """One grid-exact period of the local (slow) code.

    Returns None when the slow code is not periodic on the sample grid (then
    only the full dilated record represents it exactly).
    """
    p2 = cfg.code_length * fs / cfg.rx_chip_rate
    if abs(p2 - round(p2)) > 1e-6:
        return None
    p2 = int(round(p2))
    idx = (np.arange(p2, dtype=np.float64) * (cfg.rx_chip_rate / fs)).astype(np.int64)
    idx %= cfg.code_length
    return pn.chips[idx].astype(np.float64)


def _reference_full(cfg: CorrelatorConfig, fs: float, pn: ChipSequence, d: int) -> np.ndarray:
    """Local code waveform over the whole dilated record, built sample by
    sample from floor(n f_rx / fs) mod L (independent of the polyphase plan's
    one-period code)."""
    chips = pn.chips.astype(np.float64)
    ratio = cfg.rx_chip_rate / fs
    raw = np.empty(d)
    for start in range(0, d, _CHUNK):
        stop = min(start + _CHUNK, d)
        idx = (np.arange(start, stop, dtype=np.float64) * ratio).astype(np.int64)
        idx %= cfg.code_length
        raw[start:stop] = chips[idx]
    return raw


def make_cir(compressed: np.ndarray, cfg: CorrelatorConfig) -> DilatedCir:
    """The dilated CIR of one compressed trace (``compress``'s output)."""
    return DilatedCir(
        i_channel=compressed.real,
        q_channel=compressed.imag,
        compressed_bandwidth=cfg.rate_offset,
        slide_factor=slide_factor(cfg),
        dilated_period=dilated_period(cfg),
        sample_rate=cfg.compressed_sample_rate,
    )


# ---------------------------------------------------------------------------
# literal mixer
# ---------------------------------------------------------------------------


def correlate_literal(
    rx_wave: SampledWaveform, cfg: CorrelatorConfig, pn: ChipSequence
) -> DilatedCir:
    """Sample-by-sample sliding mixer, the ground-truth receiver.

    Pipeline: multiply by the locally generated slower PN waveform, low-pass
    at ``cfg.lpf_cutoff`` (circular FIR: both code cycles complete an integer
    number of laps per dilated period, so the signal product is periodic),
    decimate to 16 samples per chip-equivalent, emit one dilated period.
    """
    if len(pn) != cfg.code_length:
        raise ConfigError(f"code length mismatch: {len(pn)} vs config {cfg.code_length}")
    fs = rx_wave.sample_rate
    d, step = _validate_geometry(fs, cfg)
    if len(rx_wave) < d:
        raise SimulationError(
            f"record of {len(rx_wave)} samples shorter than one dilated period ({d})"
        )

    spectrum = np.fft.fft(rx_wave.samples[:d] * _reference_full(cfg, fs, pn, d))
    spectrum *= _lpf_spectrum(cfg, fs, d)
    filtered = np.fft.ifft(spectrum)
    return make_cir(filtered[::step], cfg)


# ---------------------------------------------------------------------------
# fast equivalent
# ---------------------------------------------------------------------------


def _fold(samples: np.ndarray, p: int) -> np.ndarray:
    folds = samples.size // p
    if folds < 1:
        raise SimulationError(
            f"record of {samples.size} samples shorter than one code period ({p})"
        )
    return samples[: folds * p].reshape(folds, p).mean(axis=0)


@functools.lru_cache(maxsize=16)
def _polyphase_plan(cfg: CorrelatorConfig, fs: float, pn: ChipSequence):
    """Folded kernel spectra and output gather of the mixer over one period.

    With the received signal x periodic in P1 samples and the local code c
    periodic in P2, output sample q of the literal mixer is

        y[q] = (G_r (*) x)[q * step mod P1],   r = q mod R,
        G_r[v] = sum over tau = v (mod P1) of h[tau] * c[(r * step - tau) mod P2]

    where (*) is cyclic convolution over P1, h the zero-phase low-pass and
    R = P2 / gcd(P2, step) the number of distinct code phases the decimation
    grid visits.  Phase r is read only at o_r + g m, with
    g = gcd(R * step, P1), o_r = r * step mod g and m < M = P1 / g.  Those
    samples are an M-point cyclic convolution summed over the g polyphase
    branches x_a[b] = x[a + g b] of the input:

        y_r[o_r + g m] = sum over a < g of (H_{r,a} (*)_M x_a)[m],
        H_{r,a}[c] = G_r[(o_r - a + g c) mod P1].

    In the frequency domain this is aliasing: taking every g-th sample of a
    P1-point convolution adds its g spectral bins spaced M apart, each
    weighted by the coset's phase ramp, onto M bins.  The plan stores the
    M-point spectra of H as (M, g, R), so a call needs g forward FFTs of
    length M (one per input branch), a multiply-accumulate over the
    branches (per bin, a (1, g) by (g, R) product), R inverse FFTs of
    length M and one gather from the resulting (M, R) array; it computes
    R * M bins, each of them kept.  Returns None when the slow code has no
    grid-exact period.  Depends only on the config, rate and code, so it is
    cached (do not mutate the arrays).
    """
    code = _reference_period(cfg, fs, pn)
    if code is None:
        return None
    d = _integer(dilated_period(cfg) * fs, "samples per dilated period")
    step = _integer(fs / cfg.compressed_sample_rate, "decimation factor")
    p1 = cfg.code_length * _integer(fs / cfg.tx_chip_rate, "samples per tx chip")
    p2 = code.size
    phases = p2 // math.gcd(p2, step)
    g = math.gcd(phases * step, p1)
    m = p1 // g
    taps = design_lowpass_taps(cfg.lpf_cutoff, fs)
    if taps.size > d:
        raise SimulationError("record shorter than the filter kernel")
    lags = np.arange(taps.size) - (taps.size - 1) // 2
    weights = taps * code[(np.arange(phases)[:, None] * step - lags) % p2]
    bins = np.arange(phases)[:, None] * p1 + lags % p1
    kernels = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=phases * p1)
    offsets = np.arange(phases) * step % g
    # H[r, a, c] = G_r[(o_r - a + g c) mod P1], as indices into the flat kernels
    branch = (offsets[:, None, None] - np.arange(g)[:, None] + g * np.arange(m)) % p1
    branch += np.arange(phases)[:, None, None] * p1
    q = np.arange(d // step)
    r = q % phases
    gather = (q * step % p1 - offsets[r]) // g * phases + r
    return np.fft.fft(kernels[branch], axis=2).transpose(2, 1, 0).copy(), gather


@functools.lru_cache(maxsize=16)
def _template_plan(cfg: CorrelatorConfig, fs: float, pn: ChipSequence):
    """The template branch, stored as a polyphase plan (do not mutate).

    Cyclic correlation against the transmit template, interpolated onto the
    M = u P compressed bins (u per code-period sample) by a centred real
    kernel w: a low-pass of the literal path's family and cutoff, designed
    at the compressed rate, convolved with a box u bins (one simulation
    sample) wide that emulates the mixer's chip-edge quantisation.  Output
    phase s = n mod u is then a P-point cyclic convolution of the input with
    H_s[k] = (u/P) conj(FFT_P(template))[k] FFT_P(w_s)[k], where
    w_s[l] = w[s + u l] sits at index l mod P: ``_polyphase_plan``'s
    (M, g, R) layout with g = 1, R = u and an identity gather, built from
    P-point FFTs only.  Cached, as it depends on the config, rate and code.
    """
    spc = _integer(fs / cfg.tx_chip_rate, "samples per tx chip")
    p = cfg.code_length * spc
    m = COMPRESSED_SAMPLES_PER_CHIP * cfg.code_length
    up = _integer(m / p, "lag-axis upsampling ratio")
    taps_c = design_lowpass_taps(cfg.lpf_cutoff, cfg.compressed_sample_rate)
    if taps_c.size > m:
        raise SimulationError("record shorter than the filter kernel")
    w = np.convolve(taps_c, np.full(up, 1.0 / up))
    t = np.arange(w.size) - (taps_c.size - 1) // 2 - up // 2  # lag of each tap
    phases = np.bincount(t % up * p + t // up % p, weights=w, minlength=m)
    template = np.repeat(pn.chips.astype(np.float64), spc)
    spectra = np.fft.fft(phases.reshape(up, p), axis=1)
    spectra *= np.conj(np.fft.fft(template)) * (up / p)
    return spectra.T[:, None, :].copy(), slice(None)


@dataclass(frozen=True, eq=False)
class FastKernel:
    """The per-capture core of :func:`correlate_fast`, split at its branch
    spectra (see :func:`_polyphase_plan`).

    ``forward`` maps one (folded) period of P1 = M g samples to its (M, g)
    branch spectra: the unnormalised M-point FFT of each of the g polyphase
    branches x_a[b] = x[a + g b], so white noise of per-component sigma in
    time has white branch spectra of per-component sigma * sqrt(M).
    ``mix`` maps branch spectra to the compressed trace,
    ``code_length * COMPRESSED_SAMPLES_PER_CHIP`` complex samples: the
    per-bin product with the plan, R inverse FFTs and the gather.
    ``compress`` is ``mix`` after ``forward``, and ``inverse`` rebuilds the
    period from its branch spectra.  ``forward`` and ``mix`` are linear, so
    a capture may sum weighted branch spectra before one ``mix``.
    """

    spectra: np.ndarray  # the plan, (M, g, R); shared through the cache
    gather: np.ndarray | slice

    @property
    def shape(self) -> tuple[int, int]:
        """(M, g): bins per branch and branch count."""
        return self.spectra.shape[:2]

    @property
    def period(self) -> int:
        """The code period P1 in samples."""
        return self.spectra.shape[0] * self.spectra.shape[1]

    def forward(self, period: np.ndarray) -> np.ndarray:
        return np.fft.fft(period.reshape(self.shape), axis=0)

    def inverse(self, branches: np.ndarray) -> np.ndarray:
        return np.fft.ifft(branches, axis=0).ravel()

    def mix(self, branches: np.ndarray) -> np.ndarray:
        mixed = np.matmul(branches[:, None, :], self.spectra)[:, 0]  # (M, R)
        return np.fft.ifft(mixed, axis=0, out=mixed).ravel()[self.gather]

    def compress(self, period: np.ndarray) -> np.ndarray:
        return self.mix(self.forward(period))


def fast_kernel(cfg: CorrelatorConfig, fs: float, pn: ChipSequence) -> FastKernel:
    """Set-up of :func:`correlate_fast` for one (config, rate, code).

    Checks the code length and the sampling geometry and fetches the cached
    plan: the exact polyphase kernel, or the template branch in the same
    layout when the slow code has no grid-exact period.
    """
    if len(pn) != cfg.code_length:
        raise ConfigError(f"code length mismatch: {len(pn)} vs config {cfg.code_length}")
    _validate_geometry(fs, cfg)
    return FastKernel(*(_polyphase_plan(cfg, fs, pn) or _template_plan(cfg, fs, pn)))


def correlate_fast(
    rx_wave: SampledWaveform, cfg: CorrelatorConfig, pn: ChipSequence
) -> DilatedCir:
    """Computationally cheap equivalent of :func:`correlate_literal`.

    Needs only one code period of input (more periods are folded before
    processing).  When the slow code is grid-periodic the polyphase kernel
    (``_polyphase_plan``) reproduces the literal mixer exactly, so the two
    paths agree to numerical precision for the periodic signal part.  Noise
    is whatever the record holds; a ``sweep.Capture`` does not call this but
    draws its noise directly as the kernel's branch spectra.
    """
    kernel = fast_kernel(cfg, rx_wave.sample_rate, pn)
    return make_cir(kernel.compress(_fold(rx_wave.samples, kernel.period)), cfg)


def write_cir_csv(cir: DilatedCir, path, cfg: CorrelatorConfig) -> None:
    """CSV export: '#'-prefixed metadata rows, then compressed_time_s,i,q."""
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
        # one '%' format per block of interleaved rows ('%.10g' % v prints
        # as f"{v:.10g}" does)
        columns = (cir.compressed_time, cir.i_channel, cir.q_channel)
        for start in range(0, len(cir), CSV_BLOCK_ROWS):
            block = np.column_stack([c[start : start + CSV_BLOCK_ROWS] for c in columns])
            fh.write("%.10g,%.10g,%.10g\n" * len(block) % tuple(block.ravel().tolist()))
