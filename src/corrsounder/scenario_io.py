"""Scenario and fit-point files, campaigns, result bundles and plot exports.

Scenarios are YAML documents describing the site geometry (walls, diffracting
building edges, reflector planes), the TX/RX hardware settings and the
receiver locations.  Unknown keys are rejected so typos fail loudly.
``run_campaign`` executes the azimuth-sweep procedure over every receiver of
a scenario, reduces the results per campaign kind and writes a reproducible
bundle: identical spec + seed gives byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import __version__
from .channel import SPEED_OF_LIGHT, AntennaPattern, Reflector, RxLocation, ScenarioConfig, Wall, fspl
from .errors import AnalysisError, ConfigError, SimulationError
from .correlator import get_preset
from .pdp import write_pdp_csv
from .sweep import (
    CiFit,
    angular_spectrum,
    check_location,
    check_sweep_options,
    ci_fit,
    fading_rate,
    local_power_std,
    omni_power,
    path_loss,
    run_sweep,
)

__all__ = [
    "CampaignSpec",
    "ResultBundle",
    "LocationResult",
    "load_scenario",
    "run_campaign",
    "emit_plot_data",
    "read_fit_points",
    "write_angular_csv",
]

log = logging.getLogger(__name__)

_CAMPAIGN_KINDS = ("route", "cluster", "single")

#: libyaml's safe loader when PyYAML was built with it (it parses the
#: shipped scenarios 5-10x faster), the pure-Python one otherwise.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    _require(isinstance(mapping, dict), f"{where}: expected a mapping")
    unknown = set(mapping) - allowed
    _require(not unknown, f"{where}: unknown keys {sorted(unknown, key=str)}")


def _required(node: dict, key: str, where: str):
    _require(key in node, f"{where}: missing required key {key!r}")
    return node[key]


def _entries(node: dict, key: str, where: str) -> list:
    value = node.get(key) or []
    _require(isinstance(value, list), f"{where}.{key}: expected a list")
    return value


def _number(value, where: str) -> float:
    """Every scalar field goes through here: a finite float or a ConfigError."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    _require(math.isfinite(number), f"{where}: expected a finite number, got {value!r}")
    return number


def _db(value, where: str) -> float:
    """A level, gain or loss in dB: within +-1000 dB, as a ``LinkBudget``
    term must be, which no physical term reaches and which keeps every
    10 ** (dB / 10) of the pipeline finite."""
    number = _number(value, where)
    _require(abs(number) <= 1000.0, f"{where}: {number:g} dB is beyond +-1000 dB")
    return number


def _elevation(value, where: str) -> float:
    number = _number(value, where)
    _require(-90.0 <= number <= 90.0, f"{where}: elevation {number:g} is outside [-90, 90] degrees")
    return number


def _text(value, where: str) -> str:
    # the pure-Python loader accepts an escaped lone surrogate, which no
    # file name, log line or CSV can hold
    text = str(value)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{where}: not valid UTF-8 text: {text!r}") from None
    return text


def _floats(value, count: int, where: str) -> tuple[float, ...]:
    _require(
        isinstance(value, (list, tuple)) and len(value) == count,
        f"{where}: expected {count} numbers",
    )
    return tuple(_number(v, where) for v in value)


def _position(value, default_height: float, where: str) -> tuple[float, float, float]:
    _require(isinstance(value, (list, tuple)) and len(value) in (2, 3), f"{where}: expected [x, y] or [x, y, z]")
    if len(value) == 2:
        x, y = _floats(value, 2, where)
        return (x, y, default_height)
    return _floats(value, 3, where)


def _segment(node: dict, where: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """A wall's or reflector's end points, which must differ: a zero-length
    segment blocks nothing and mirrors nothing."""
    start = _floats(_required(node, "start_m", where), 2, f"{where}.start_m")
    end = _floats(_required(node, "end_m", where), 2, f"{where}.end_m")
    _require(start != end, f"{where}: start_m equals end_m")
    return start, end


def _pattern(node: dict | None, default: AntennaPattern, where: str) -> AntennaPattern:
    if node is None:
        return default
    _check_keys(node, {"gain_dbi", "hpbw_az_deg", "hpbw_el_deg", "floor_db"}, where)
    return AntennaPattern(
        boresight_gain_dbi=_db(node.get("gain_dbi", default.boresight_gain_dbi), f"{where}.gain_dbi"),
        hpbw_az_deg=_number(node.get("hpbw_az_deg", default.hpbw_az_deg), f"{where}.hpbw_az_deg"),
        hpbw_el_deg=_number(node.get("hpbw_el_deg", default.hpbw_el_deg), f"{where}.hpbw_el_deg"),
        floor_db=_db(node.get("floor_db", default.floor_db), f"{where}.floor_db"),
    )


def _pointing(node, where: str) -> tuple[float, float]:
    _require(isinstance(node, dict), f"{where}: expected {{az: ..., el: ...}}")
    _check_keys(node, {"az", "el"}, where)
    return (_number(node.get("az", 0.0), f"{where}.az"), _elevation(node.get("el", 0.0), f"{where}.el"))


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file, applying hardware defaults."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_bytes(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty scenario file")
    _check_keys(raw, {"name", "description", "carrier_hz", "noise", "tx", "rx", "environment"}, str(path))

    name = _text(raw.get("name", path.stem), "name")
    carrier = _number(raw.get("carrier_hz", 73.5e9), "carrier_hz")
    _require(carrier > 0.0, f"carrier_hz: must be positive, got {carrier}")

    noise = raw.get("noise") or {}
    _check_keys(noise, {"psd_dbm_per_hz", "noise_figure_db"}, "noise")

    tx = raw.get("tx") or {}
    _check_keys(tx, {"position_m", "power_dbm", "pointing_deg", "pattern"}, "tx")
    tx_position = _position(tx.get("position_m", [0.0, 0.0, 4.0]), 4.0, "tx.position_m")
    tx_pointing = _pointing(tx.get("pointing_deg", {"az": 0.0, "el": 0.0}), "tx.pointing_deg")

    rx = raw.get("rx") or {}
    _check_keys(rx, {"pattern", "elevation_deg", "default_height_m", "locations"}, "rx")
    rx_height = _number(rx.get("default_height_m", 1.5), "rx.default_height_m")
    locations = rx.get("locations") or []
    _require(isinstance(locations, list) and locations, "rx.locations: need at least one entry")
    rx_locations = []
    for n, node in enumerate(locations):
        where = f"rx.locations[{n}]"
        _check_keys(node, {"id", "position_m", "label", "group", "tx_pointing_deg"}, where)
        ident = _text(node.get("id", f"RX{n}"), f"{where}.id")
        _require(all(loc.ident != ident for loc in rx_locations), f"{where}: duplicate id {ident!r}")
        pointing = node.get("tx_pointing_deg")
        rx_locations.append(
            RxLocation(
                ident=ident,
                position_m=_position(_required(node, "position_m", where), rx_height, f"{where}.position_m"),
                label=str(node.get("label", "los")),
                group=_text(node.get("group", ""), f"{where}.group"),
                tx_pointing_deg=_pointing(pointing, f"{where}.tx_pointing_deg") if pointing else None,
            )
        )

    env = raw.get("environment") or {}
    _check_keys(env, {"walls", "wedges", "reflectors"}, "environment")
    walls = []
    for n, node in enumerate(_entries(env, "walls", "environment")):
        where = f"environment.walls[{n}]"
        _check_keys(node, {"start_m", "end_m"}, where)
        walls.append(Wall(*_segment(node, where)))
    wedges = []
    for n, node in enumerate(_entries(env, "wedges", "environment")):
        where = f"environment.wedges[{n}]"
        _check_keys(node, {"position_m"}, where)
        wedges.append(_floats(_required(node, "position_m", where), 2, f"{where}.position_m"))
    reflectors = []
    for n, node in enumerate(_entries(env, "reflectors", "environment")):
        where = f"environment.reflectors[{n}]"
        _check_keys(node, {"start_m", "end_m", "loss_db"}, where)
        reflectors.append(
            Reflector(*_segment(node, where), loss_db=_db(node.get("loss_db", 6.0), f"{where}.loss_db"))
        )

    return ScenarioConfig(
        name=name,
        tx_position_m=tx_position,
        tx_power_dbm=_db(tx.get("power_dbm", 14.6), "tx.power_dbm"),
        tx_pattern=_pattern(tx.get("pattern"), AntennaPattern.tx_horn(), "tx.pattern"),
        tx_pointing_deg=tx_pointing,
        rx_pattern=_pattern(rx.get("pattern"), AntennaPattern.rx_horn(), "rx.pattern"),
        rx_elevation_deg=_elevation(rx.get("elevation_deg", 0.0), "rx.elevation_deg"),
        rx_locations=tuple(rx_locations),
        carrier_hz=carrier,
        noise_psd_dbm_hz=_db(noise.get("psd_dbm_per_hz", -174.0), "noise.psd_dbm_per_hz"),
        noise_figure_db=_db(noise.get("noise_figure_db", 5.0), "noise.noise_figure_db"),
        walls=tuple(walls),
        wedges=tuple(wedges),
        reflectors=tuple(reflectors),
    )


def read_fit_points(path) -> list[tuple[float, float]]:
    """(distance, path loss) pairs from a CSV with ``distance_m`` and
    ``path_loss_db`` columns; every cell must be a finite number, and a path
    loss within +-1000 dB."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            return [
                tuple(
                    check(row[key], f"{path}: line {reader.line_num}: {key}")
                    for key, check in (("distance_m", _number), ("path_loss_db", _db))
                )
                for row in reader
            ]
    except KeyError as exc:
        raise ConfigError(f"{path}: missing column {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: unreadable CSV: {exc}") from None


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    scenario_path: str
    kind: str
    out_dir: str
    step_deg: float = 15.0
    sweeps: int = 5
    preset: str = "desk"
    seed: int = 0
    averages: int = 1
    rx_index: int | None = None  # single-kind only
    speed_mps: float = 35.0  # vehicle speed used for the fading-rate report
    save_pdps: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _CAMPAIGN_KINDS:
            raise ConfigError(f"campaign kind must be one of {_CAMPAIGN_KINDS}, got {self.kind!r}")
        if (self.kind == "single") != (self.rx_index is not None):
            raise ConfigError(f"rx_index goes with single campaigns only, which need one; got {self.rx_index}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.speed_mps <= SPEED_OF_LIGHT:
            raise ConfigError(f"speed_mps must be in (0, speed of light], got {self.speed_mps}")
        check_sweep_options(self.step_deg, self.sweeps, self.averages)


@dataclass(frozen=True, eq=False)
class LocationResult:
    ident: str
    label: str
    group: str
    position_m: tuple[float, float, float]
    distance_m: float
    route_position_m: float
    omni_dbm: float | None
    path_loss_db: float | None
    spectrum: list[tuple[float, float]]


@dataclass(frozen=True, eq=False)
class ResultBundle:
    kind: str
    scenario: ScenarioConfig
    locations: list[LocationResult]
    fits: dict[str, CiFit]
    power_std_db: dict[str, float]
    fading_db_per_m: float | None
    fading_db_per_s: float | None
    speed_mps: float
    manifest: dict
    out_dir: Path


def _manifest(spec: CampaignSpec, scenario_bytes: bytes) -> dict:
    payload = {
        "version": __version__,
        "scenario_sha256": hashlib.sha256(scenario_bytes).hexdigest(),
        "kind": spec.kind,
        "step_deg": spec.step_deg,
        "sweeps": spec.sweeps,
        "preset": spec.preset,
        "seed": spec.seed,
        "averages": spec.averages,
        "rx_index": spec.rx_index,
        "speed_mps": spec.speed_mps,
    }
    canonical = json.dumps(payload, sort_keys=True).encode()
    payload["config_hash"] = hashlib.sha256(canonical).hexdigest()
    return payload


def _route_positions(sc: ScenarioConfig) -> list[float]:
    """Cumulative along-route distance over the ordered RX list."""
    positions = [0.0]
    for prev, here in zip(sc.rx_locations, sc.rx_locations[1:]):
        step = math.dist(prev.position_m, here.position_m)
        positions.append(positions[-1] + step)
    return positions


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def run_campaign(spec: CampaignSpec) -> ResultBundle:
    """Execute sweeps for every receiver and reduce per campaign kind.

    route: route report (position, distance, omni, path loss, label),
    fading rate over the route and one CI fit plus power std per condition.
    cluster: received-power standard deviation per location group.
    single: sweep products for one receiver.
    With ``save_pdps`` each thresholded PDP is written as its sweep makes it
    and then dropped; only the reduced ``LocationResult`` is kept.  Every
    location's channel is built and checked against the preset before the
    output directory is created, and its sweep runs on that channel.
    """
    scenario_path = Path(spec.scenario_path)
    sc = load_scenario(scenario_path)
    preset = get_preset(spec.preset)
    if spec.kind == "single":
        indices = [spec.rx_index]
    else:
        indices = list(range(len(sc.rx_locations)))
    channels = {}
    for index in indices:  # every check before anything is written
        try:
            channels[index] = check_location(sc, index, preset)  # checks the index first
        except SimulationError:
            log.error("location %s: channel check failed", sc.rx_locations[index].ident)
            raise

    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pdp_dir = out_dir / "pdps"
    if spec.save_pdps:
        pdp_dir.mkdir(exist_ok=True)

    def save_pdp(pdp) -> None:
        meta = pdp.metadata
        write_pdp_csv(pdp, pdp_dir / f"{meta['location']}_az{meta['angle']:05.1f}_s{meta['sweep']}.csv")

    route_pos = _route_positions(sc)
    locations: list[LocationResult] = []
    for index in indices:
        rx = sc.rx_locations[index]
        try:
            spokes = run_sweep(
                sc,
                index,
                step_deg=spec.step_deg,
                sweeps=spec.sweeps,
                seed=spec.seed,
                preset=preset,
                averages=spec.averages,
                channel=channels[index],
                pdp_sink=save_pdp if spec.save_pdps else None,
            )
        except Exception:
            log.error("location %s: sweep failed", rx.ident)
            raise
        omni = omni_power(spokes)
        locations.append(
            LocationResult(
                ident=rx.ident,
                label=rx.label,
                group=rx.group or rx.label,
                position_m=rx.position_m,
                distance_m=sc.distance_to(index),
                route_position_m=route_pos[index],
                omni_dbm=omni,
                path_loss_db=None
                if omni is None
                else path_loss(
                    omni, sc.tx_power_dbm, sc.tx_pattern.boresight_gain_dbi,
                    sc.rx_pattern.boresight_gain_dbi,
                ),
                spectrum=angular_spectrum(spokes),
            )
        )

    fits: dict[str, CiFit] = {}
    power_std: dict[str, float] = {}
    fading_m = fading_s = None
    if spec.kind == "route":
        for label in ("los", "nlos"):
            points = [
                (loc.distance_m, loc.path_loss_db)
                for loc in locations
                if loc.label == label and loc.path_loss_db is not None
            ]
            if len(points) >= 2:
                fits[label] = ci_fit(points, sc.carrier_hz)
            powers = [loc.omni_dbm for loc in locations if loc.label == label and loc.omni_dbm is not None]
            if len(powers) >= 2:
                power_std[label] = local_power_std(powers)
        route = [
            (loc.route_position_m, loc.omni_dbm) for loc in locations if loc.omni_dbm is not None
        ]
        if len(route) >= 2:
            fading_m, fading_s = fading_rate(route, spec.speed_mps)
    elif spec.kind == "cluster":
        groups = sorted({loc.group for loc in locations})
        for group in groups:
            powers = [loc.omni_dbm for loc in locations if loc.group == group and loc.omni_dbm is not None]
            if len(powers) >= 2:
                power_std[group] = local_power_std(powers)

    bundle = ResultBundle(
        kind=spec.kind,
        scenario=sc,
        locations=locations,
        fits=fits,
        power_std_db=power_std,
        fading_db_per_m=fading_m,
        fading_db_per_s=fading_s,
        speed_mps=spec.speed_mps,
        manifest=_manifest(spec, scenario_path.read_bytes()),
        out_dir=out_dir,
    )
    _write_bundle(bundle)
    return bundle


def write_angular_csv(spectrum: list[tuple[float, float]], path) -> None:
    """Per-angle (azimuth, power) table, sentinel rows for absent angles
    included: the polar plot data of one location."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["azimuth_deg", "power_dBm"])
        for az, power in spectrum:
            writer.writerow([f"{az:.6f}", f"{power:.6f}"])


def _write_bundle(bundle: ResultBundle) -> None:
    out = bundle.out_dir
    (out / "manifest.json").write_text(json.dumps(bundle.manifest, sort_keys=True, indent=1) + "\n")

    doc = {
        "kind": bundle.kind,
        "speed_mps": bundle.speed_mps,
        "fading_db_per_m": bundle.fading_db_per_m,
        "fading_db_per_s": bundle.fading_db_per_s,
        "fits": {
            label: {
                "ple": fit.ple,
                "sigma_db": fit.sigma_db,
                "point_count": fit.point_count,
                "frequency_hz": fit.frequency_hz,
                "d0_m": fit.d0_m,
            }
            for label, fit in bundle.fits.items()
        },
        "power_std_db": bundle.power_std_db,
        "locations": [
            {
                "id": loc.ident,
                "label": loc.label,
                "group": loc.group,
                "position_m": list(loc.position_m),
                "distance_m": loc.distance_m,
                "route_position_m": loc.route_position_m,
                "omni_dbm": loc.omni_dbm,
                "path_loss_db": loc.path_loss_db,
                "spectrum": [[az, power] for az, power in loc.spectrum],
            }
            for loc in bundle.locations
        ],
    }
    (out / "bundle.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")

    angular_dir = out / "angular"
    angular_dir.mkdir(exist_ok=True)
    for loc in bundle.locations:
        write_angular_csv(loc.spectrum, angular_dir / f"{loc.ident}.csv")

    if bundle.kind == "route":
        with open(out / "route.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["position_m", "distance_m", "omni_dBm", "path_loss_dB", "los_flag"])
            for loc in bundle.locations:
                writer.writerow(
                    [
                        f"{loc.route_position_m:.6f}",
                        f"{loc.distance_m:.6f}",
                        _fmt(loc.omni_dbm),
                        _fmt(loc.path_loss_db),
                        loc.label,
                    ]
                )
    if bundle.kind == "cluster":
        with open(out / "cluster.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "count", "power_std_dB"])
            for group, std in sorted(bundle.power_std_db.items()):
                count = sum(1 for loc in bundle.locations if loc.group == group)
                writer.writerow([group, count, f"{std:.6f}"])

    if bundle.fits:
        lines = []
        for label, fit in sorted(bundle.fits.items()):
            lines += [
                f"[ci_fit {label}]",
                f"ple = {fit.ple:.6f}",
                f"sigma_db = {fit.sigma_db:.6f}",
                f"point_count = {fit.point_count}",
                f"frequency_hz = {fit.frequency_hz:.6g}",
                f"d0_m = {fit.d0_m:.6g}",
                "",
            ]
        (out / "fits.txt").write_text("\n".join(lines))


# ---------------------------------------------------------------------------
# plot-ready exports
# ---------------------------------------------------------------------------


def _pathloss_rows(doc: dict) -> list[list[str]]:
    """Rows, header first, of the path-loss plot of a bundle.json."""
    if not doc["fits"]:
        raise AnalysisError("bundle holds no CI fits; pathloss plot data unavailable")
    rows = [["series", "distance_m", "log10_distance", "path_loss_dB"]]
    measured = [loc for loc in doc["locations"] if loc["path_loss_db"] is not None]
    for loc in measured:
        rows.append(
            [
                f"point-{loc['label']}",
                f"{loc['distance_m']:.6f}",
                f"{math.log10(loc['distance_m']):.6f}",
                f"{loc['path_loss_db']:.6f}",
            ]
        )
    lo, hi = min(loc["distance_m"] for loc in measured), max(loc["distance_m"] for loc in measured)
    for label, fit in sorted(doc["fits"].items()):
        anchor = fspl(fit["d0_m"], fit["frequency_hz"])
        for n in range(50):
            d = 10 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * n / 49)
            pl = anchor + 10.0 * fit["ple"] * math.log10(d / fit["d0_m"])
            rows.append([f"fit-{label}", f"{d:.6f}", f"{math.log10(d):.6f}", f"{pl:.6f}"])
    return rows


def emit_plot_data(bundle_dir, out_dir=None) -> Path:
    """Write ``pathloss.csv`` from a campaign bundle directory and return its
    path: per-location points plus each CI fit sampled at 50 log-spaced
    distances.  Omni power against route position is the bundle's
    ``route.csv`` and the polar plot data its ``angular/<id>.csv``.  A
    bundle.json that is not JSON or lacks a field the plot needs is a
    ConfigError, and then nothing is written.
    """
    bundle_dir = Path(bundle_dir)
    doc_path = bundle_dir / "bundle.json"
    if not doc_path.exists():
        raise AnalysisError(f"{bundle_dir}: no bundle.json; run a campaign first")
    try:
        rows = _pathloss_rows(json.loads(doc_path.read_text()))
    except KeyError as exc:
        raise ConfigError(f"{doc_path}: missing key {exc}") from None
    # a decode error is a ValueError; a field of the wrong type is one of these
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{doc_path}: malformed bundle: {exc}") from None
    out = Path(out_dir) if out_dir is not None else bundle_dir / "plots"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "pathloss.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path
