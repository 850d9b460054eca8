"""Site-inspired multipath channels with steerable directional antennas.

Geometry lives in the horizontal plane: walls are opaque vertical screens
(infinite height), wedges are vertical building edges that diffract when the
direct ray is blocked, and reflectors are vertical planes that contribute one
specular bounce with a configured loss.  Antenna heights enter through the
z component of the endpoint positions.

Conventions used throughout the package:

* azimuth: degrees counter-clockwise from the +x axis, wrapped to [0, 360)
* elevation: degrees above the horizontal plane, in [-90, 90]
* linear sample power maps to milliwatts, so 10*log10(|s|^2) is dBm
* path phase: carrier phase of the exact delay, -2*pi*f*tau, plus pi per
  reflection; diffraction adds no extra phase term beyond the carrier
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, SimulationError
from .waveform import SampledWaveform

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre

__all__ = [
    "AntennaPattern",
    "PathComponent",
    "MultipathChannel",
    "Wall",
    "Reflector",
    "RxLocation",
    "ScenarioConfig",
    "fspl",
    "knife_edge_loss_db",
    "fresnel_parameter",
    "pattern_gain",
    "synthesize_channel",
    "apply_channel",
]

log = logging.getLogger(__name__)

_EPS = 1e-9


def _cross2(a, b) -> float:
    return float(a[0]) * float(b[1]) - float(a[1]) * float(b[0])


def fspl(d: float, f: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    if not (0.0 < d < math.inf and 0.0 < f < math.inf):
        raise ConfigError(f"fspl needs finite positive distance and frequency, got d={d}, f={f}")
    ratio = 4.0 * math.pi * d * f / SPEED_OF_LIGHT
    if not 0.0 < ratio < math.inf:
        raise ConfigError(f"fspl of d={d}, f={f} is out of float range")
    if ratio < 1.0:  # d is within a wavelength / (4 pi) of the source
        raise ConfigError(f"fspl of d={d}, f={f} would be negative: 4 pi d f / c = {ratio:g} < 1")
    return 20.0 * math.log10(ratio)


def knife_edge_loss_db(nu: float) -> float:
    """Single knife-edge diffraction loss from the Fresnel parameter.

    Standard approximation, valid (and used) for nu > -0.78; below that the
    edge is effectively clear and the loss is zero.
    """
    if nu <= -0.78:
        return 0.0
    # beyond 1e150 the square would overflow; the cap still leaves a loss of
    # about 3,000 dB, far past anything a budget detects
    nu = min(nu, 1e150)
    return 6.9 + 20.0 * math.log10(math.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)


def fresnel_parameter(
    tx: tuple[float, float],
    rx: tuple[float, float],
    edge: tuple[float, float],
    wavelength: float,
) -> float:
    """Fresnel parameter of a vertical edge penetrating the TX-RX sight line.

    ``h`` is the perpendicular plan distance from the edge to the line.  The
    caller only asks for edges whose wall blocks the direct ray, so the
    penetration is taken positive (shadow side).
    """
    ab = np.subtract(rx, tx)
    length = float(np.hypot(*ab))
    if length < _EPS:
        raise ConfigError("TX and RX coincide")
    t = float(np.dot(np.subtract(edge, tx), ab)) / length**2
    t = min(max(t, 1e-3), 1.0 - 1e-3)
    d1, d2 = t * length, (1.0 - t) * length
    h = abs(_cross2(ab, np.subtract(edge, tx))) / length
    return h * math.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


# ---------------------------------------------------------------------------
# antennas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AntennaPattern:
    """Gaussian mainlobe horn model with a uniform sidelobe floor.

    Gain rolls off as 12*(offset/HPBW)^2 dB per axis, which puts the -3 dB
    point exactly at HPBW/2, and saturates ``floor_db`` below boresight.
    """

    boresight_gain_dbi: float
    hpbw_az_deg: float
    hpbw_el_deg: float
    pointing_az_deg: float = 0.0
    pointing_el_deg: float = 0.0
    floor_db: float = 30.0

    def __post_init__(self) -> None:
        for name, hpbw in (("hpbw_az_deg", self.hpbw_az_deg), ("hpbw_el_deg", self.hpbw_el_deg)):
            if not 0.0 < hpbw < 180.0:
                raise ConfigError(f"{name} must lie in (0, 180), got {hpbw}")
        if not self.floor_db >= 0.0:  # a floor above boresight is no horn
            raise ConfigError(f"floor_db must be non-negative, got {self.floor_db}")

    def pointed(self, az: float, el: float) -> "AntennaPattern":
        """This pattern with its boresight at azimuth ``az`` and elevation
        ``el`` (degrees); a non-finite angle is a ``ConfigError``."""
        if not (math.isfinite(az) and math.isfinite(el)):
            raise ConfigError(f"pointing must be finite, got azimuth {az}, elevation {el}")
        return replace(self, pointing_az_deg=_wrap_az_deg(az), pointing_el_deg=el)

    @staticmethod
    def tx_horn() -> "AntennaPattern":
        """27 dBi transmit horn, 7 degree azimuth/elevation HPBW."""
        return AntennaPattern(27.0, 7.0, 7.0)

    @staticmethod
    def rx_horn() -> "AntennaPattern":
        """20 dBi receive horn, 15 degree azimuth/elevation HPBW."""
        return AntennaPattern(20.0, 15.0, 15.0)

    @staticmethod
    def isotropic() -> "AntennaPattern":
        return AntennaPattern(0.0, 179.0, 179.0, floor_db=0.0)


def _wrap_az_deg(az: float) -> float:
    # az % 360.0 alone is 360.0 for a tiny negative az (-1e-20 % 360.0)
    wrapped = az % 360.0
    return 0.0 if wrapped == 360.0 else wrapped


def _wrap_delta_deg(delta: float) -> float:
    return (delta + 180.0) % 360.0 - 180.0


def pattern_gain(p: AntennaPattern, az: float, el: float) -> float:
    """Directive gain (dBi) toward the given azimuth/elevation."""
    daz = _wrap_delta_deg(az - p.pointing_az_deg)
    del_ = el - p.pointing_el_deg
    # an offset of more than 1e150 HPBW, whose square would overflow, lies
    # in the floor whatever its size
    x = min(abs(daz / p.hpbw_az_deg), 1e150)
    y = min(abs(del_ / p.hpbw_el_deg), 1e150)
    return p.boresight_gain_dbi - min(12.0 * (x**2 + y**2), p.floor_db)


# ---------------------------------------------------------------------------
# scenario geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Wall:
    """Opaque vertical screen between two plan points."""

    start_m: tuple[float, float]
    end_m: tuple[float, float]


@dataclass(frozen=True)
class Reflector:
    """Vertical reflecting plane segment with a flat reflection loss."""

    start_m: tuple[float, float]
    end_m: tuple[float, float]
    loss_db: float = 6.0


@dataclass(frozen=True)
class RxLocation:
    ident: str
    position_m: tuple[float, float, float]
    label: str = "los"  # advisory los/nlos tag from the scenario author
    group: str = ""
    tx_pointing_deg: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.label not in ("los", "nlos"):
            raise ConfigError(f"rx label must be 'los' or 'nlos', got {self.label!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    tx_position_m: tuple[float, float, float] = (0.0, 0.0, 4.0)
    tx_power_dbm: float = 14.6
    tx_pattern: AntennaPattern = field(default_factory=AntennaPattern.tx_horn)
    tx_pointing_deg: tuple[float, float] = (0.0, 0.0)
    rx_pattern: AntennaPattern = field(default_factory=AntennaPattern.rx_horn)
    rx_elevation_deg: float = 0.0
    rx_locations: tuple[RxLocation, ...] = ()
    carrier_hz: float = 73.5e9
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 5.0
    walls: tuple[Wall, ...] = ()
    wedges: tuple[tuple[float, float], ...] = ()
    reflectors: tuple[Reflector, ...] = ()

    def __post_init__(self) -> None:
        if self.tx_position_m[2] <= 0:
            raise ConfigError("TX height must be positive")
        for rx in self.rx_locations:
            if rx.position_m[2] <= 0:
                raise ConfigError(f"RX {rx.ident}: height must be positive")
            if np.allclose(rx.position_m, self.tx_position_m):
                raise ConfigError(f"RX {rx.ident} coincides with the TX position")

    @property
    def effective_noise_psd_dbm_hz(self) -> float:
        """Thermal PSD referred to the receiver input, noise figure included."""
        return self.noise_psd_dbm_hz + self.noise_figure_db

    def tx_pointing_for(self, rx: RxLocation) -> tuple[float, float]:
        return rx.tx_pointing_deg if rx.tx_pointing_deg is not None else self.tx_pointing_deg

    def distance_to(self, rx_index: int) -> float:
        rx = self.rx_locations[rx_index]
        return float(np.linalg.norm(np.subtract(rx.position_m, self.tx_position_m)))


# ---------------------------------------------------------------------------
# plan-view ray helpers
# ---------------------------------------------------------------------------


def _orient(a, b, p) -> float:
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _segments_cross(p1, p2, q1, q2) -> bool:
    """Proper or touching intersection of plan segments p1p2 and q1q2."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_segment(a, b, p) -> bool:
        return (
            min(a[0], b[0]) - _EPS <= p[0] <= max(a[0], b[0]) + _EPS
            and min(a[1], b[1]) - _EPS <= p[1] <= max(a[1], b[1]) + _EPS
        )

    if abs(d1) < _EPS and on_segment(q1, q2, p1):
        return True
    if abs(d2) < _EPS and on_segment(q1, q2, p2):
        return True
    if abs(d3) < _EPS and on_segment(p1, p2, q1):
        return True
    if abs(d4) < _EPS and on_segment(p1, p2, q2):
        return True
    return False


def _blocked(p, q, walls) -> bool:
    """True when any wall cuts the open ray p->q.

    Both ray endpoints are pulled inward by a millionth of the ray so rays
    that merely start or end on a wall (wedge corners, reflection points) do
    not count as blocked.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    p2 = p + d * 1e-6
    q2 = q - d * 1e-6
    return any(_segments_cross(p2, q2, w.start_m, w.end_m) for w in walls)


def _azimuth_deg(frm, to) -> float:
    return _wrap_az_deg(math.degrees(math.atan2(to[1] - frm[1], to[0] - frm[0])))


def _mirror_across(point, a, b):
    """Mirror a plan point across the infinite line through a-b."""
    a = np.asarray(a, dtype=float)
    u = np.subtract(b, a)
    u = u / np.linalg.norm(u)
    v = np.subtract(point, a)
    return a + 2.0 * (v @ u) * u - v


def _line_crossing(p1, p2, a, b):
    """Interior intersection of segment p1p2 with segment ab, or None."""
    p1 = np.asarray(p1, dtype=float)
    r = np.subtract(p2, p1)
    a = np.asarray(a, dtype=float)
    s = np.subtract(b, a)
    denom = _cross2(r, s)
    if abs(denom) < _EPS:
        return None
    t = _cross2(a - p1, s) / denom
    u = _cross2(a - p1, r) / denom
    if _EPS < t < 1.0 - _EPS and _EPS < u < 1.0 - _EPS:
        return p1 + t * r
    return None


# ---------------------------------------------------------------------------
# channel synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathComponent:
    delay_s: float
    gain: float  # linear amplitude, includes spreading and interaction losses
    phase_rad: float
    aod_az_deg: float
    aod_el_deg: float
    aoa_az_deg: float
    aoa_el_deg: float
    kind: str = "direct"  # direct | reflection | diffraction

    def __post_init__(self) -> None:
        if self.delay_s < 0 or self.gain < 0:
            raise ConfigError("path delay and gain must be non-negative")

    @property
    def gain_db(self) -> float:
        return -math.inf if self.gain == 0 else 20.0 * math.log10(self.gain)


@dataclass(frozen=True, eq=False)
class MultipathChannel:
    paths: tuple[PathComponent, ...]
    carrier_hz: float

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.paths, key=lambda p: p.delay_s))
        object.__setattr__(self, "paths", ordered)

    def __len__(self) -> int:
        return len(self.paths)


def _carrier_phase(delay: float, f: float, extra: float = 0.0) -> float:
    return (-2.0 * math.pi * f * delay + extra) % (2.0 * math.pi)


def _make_path(sc, tx3, rx3, via2, plan_len, extra_loss_db, kind) -> PathComponent:
    """Build a path whose plan route bends at ``via2`` (or goes straight)."""
    dz = rx3[2] - tx3[2]
    dist = math.hypot(plan_len, dz)
    delay = dist / SPEED_OF_LIGHT
    loss_db = fspl(dist, sc.carrier_hz) + extra_loss_db
    el_out = math.degrees(math.atan2(dz, plan_len))
    aod_target = via2 if via2 is not None else rx3[:2]
    aoa_target = via2 if via2 is not None else tx3[:2]
    return PathComponent(
        delay_s=delay,
        gain=10.0 ** (-loss_db / 20.0),
        phase_rad=_carrier_phase(delay, sc.carrier_hz, math.pi if kind == "reflection" else 0.0),
        aod_az_deg=_azimuth_deg(tx3[:2], aod_target),
        aod_el_deg=el_out,
        aoa_az_deg=_azimuth_deg(rx3[:2], aoa_target),
        aoa_el_deg=-el_out,
        kind=kind,
    )


def synthesize_channel(sc: ScenarioConfig, rx_index: int) -> MultipathChannel:
    """Deterministic ray construction for one RX location.

    Direct path when no wall cuts the sight line; one specular bounce per
    reflector whose mirror geometry works out; one knife-edge path per wedge
    once the direct ray is blocked.
    """
    if not 0 <= rx_index < len(sc.rx_locations):
        raise ConfigError(f"rx_index {rx_index} out of range for {len(sc.rx_locations)} locations")
    tx3 = sc.tx_position_m
    rx3 = sc.rx_locations[rx_index].position_m
    tx2, rx2 = tx3[:2], rx3[:2]
    wavelength = SPEED_OF_LIGHT / sc.carrier_hz
    paths: list[PathComponent] = []

    direct_blocked = _blocked(tx2, rx2, sc.walls)
    if not direct_blocked:
        plan = float(np.hypot(rx2[0] - tx2[0], rx2[1] - tx2[1]))
        paths.append(_make_path(sc, tx3, rx3, None, plan, 0.0, "direct"))

    for refl in sc.reflectors:
        mirror = _mirror_across(tx2, refl.start_m, refl.end_m)
        point = _line_crossing(mirror, rx2, refl.start_m, refl.end_m)
        if point is None:
            continue
        if _blocked(tx2, point, sc.walls) or _blocked(point, rx2, sc.walls):
            continue
        plan = float(np.linalg.norm(np.subtract(rx2, mirror)))
        paths.append(_make_path(sc, tx3, rx3, tuple(point), plan, refl.loss_db, "reflection"))

    if direct_blocked:
        for edge in sc.wedges:
            if _blocked(tx2, edge, sc.walls) or _blocked(edge, rx2, sc.walls):
                continue
            nu = fresnel_parameter(tx2, rx2, edge, wavelength)
            plan = float(np.hypot(edge[0] - tx2[0], edge[1] - tx2[1])) + float(
                np.hypot(rx2[0] - edge[0], rx2[1] - edge[1])
            )
            paths.append(
                _make_path(sc, tx3, rx3, edge, plan, knife_edge_loss_db(nu), "diffraction")
            )

    if not paths:
        log.warning(
            "scenario %s RX %s: no propagation path exists, returning empty channel",
            sc.name,
            sc.rx_locations[rx_index].ident,
        )
    return MultipathChannel(paths=tuple(paths), carrier_hz=sc.carrier_hz)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------


def path_terms(w: SampledWaveform, ch: MultipathChannel, tx: AntennaPattern) -> list[tuple]:
    """Set-up of :func:`apply_channel` for one input and transmit pointing.

    Per path: the path, its delayed copy of the input (a circular shift by
    the delay rounded to the nearest sample), its transmit pattern gain in
    dBi and its carrier phasor.  A delay at or beyond one code period is
    ambiguous and rejected.
    """
    fs = w.sample_rate
    period_s = w.period_samples / fs
    terms = []
    for p in ch.paths:
        if p.delay_s >= period_s:
            raise SimulationError(
                f"path delay {p.delay_s * 1e9:.6g} ns aliases beyond one code "
                f"period ({period_s * 1e9:.6g} ns)"
            )
        shifted = np.roll(w.samples, int(round(p.delay_s * fs)))
        tx_gain = pattern_gain(tx, p.aod_az_deg, p.aod_el_deg)
        terms.append((p, shifted, tx_gain, np.exp(1j * p.phase_rad)))
    return terms


def path_coefficients(terms: list[tuple], rx: AntennaPattern) -> list[complex]:
    """One complex weight per path of :func:`path_terms` for a receive
    pointing: amplitude gain times both pattern gains times carrier phasor."""
    return [
        p.gain * 10.0 ** ((tx_gain + pattern_gain(rx, p.aoa_az_deg, p.aoa_el_deg)) / 20.0) * phasor
        for p, _, tx_gain, phasor in terms
    ]


def superpose(copies: list[np.ndarray], coefficients: list[complex], shape) -> np.ndarray:
    """Sum of the weighted path copies (or of any linear transform of
    them), added in path order from zeros."""
    out = np.zeros(shape, dtype=np.complex128)
    for copy, coeff in zip(copies, coefficients):
        out += coeff * copy
    return out


def noise_sigma(noise_psd_dbm_hz: float, fs: float) -> float:
    """Per-component standard deviation of white complex noise of that PSD
    sampled at ``fs``."""
    return math.sqrt(10.0 ** (noise_psd_dbm_hz / 10.0) * fs / 2.0)


def add_noise(out: np.ndarray, sigma: float, gen: np.random.Generator) -> None:
    """Add white complex noise of per-component ``sigma`` in place, over
    ``out``'s whole shape: all real parts drawn first, then all imaginary
    parts."""
    out += sigma * (gen.standard_normal(out.shape) + 1j * gen.standard_normal(out.shape))


def apply_channel(
    w: SampledWaveform,
    ch: MultipathChannel,
    tx: AntennaPattern,
    rx: AntennaPattern,
    noise_psd_dbm_hz: float | None = None,
    rng: np.random.Generator | int | None = None,
) -> SampledWaveform:
    """Sum of delayed, weighted path copies plus white complex noise.

    Delays are rounded to the nearest sample; the carrier phase of the exact
    delay is carried by each path's phase term, so only the envelope moves by
    the sub-sample residual.  The probing waveform is periodic, so delays
    wrap circularly; anything at or beyond one code period is ambiguous and
    rejected.
    """
    terms = path_terms(w, ch, tx)
    out = superpose([t[1] for t in terms], path_coefficients(terms, rx), len(w))
    if noise_psd_dbm_hz is not None:  # default_rng passes a Generator through
        add_noise(out, noise_sigma(noise_psd_dbm_hz, w.sample_rate), np.random.default_rng(rng))
    return replace(w, samples=out)
