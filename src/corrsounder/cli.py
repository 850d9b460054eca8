"""Command-line interface.

Verbs: ``pn`` (generate/inspect codes), ``simulate`` (single link),
``campaign`` (route/cluster/single; ``--kind single`` sweeps one receiver),
``fit`` (CI fit on an external CSV), ``budget`` (link-budget calculator),
``emit`` (path-loss plot CSV from a campaign bundle), ``info`` (preset timing).

Exit codes: 0 success, 2 configuration error, 3 simulation error,
4 analysis error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .channel import apply_channel
from .waveform import write_waveform
from .correlator import (
    correlate_literal,
    dilated_period,
    get_preset,
    make_cir,
    processing_gain,
    slide_factor,
    write_cir_csv,
)
from .errors import AnalysisError, ConfigError, SounderError
from .pdp import pdp_from_iq, system_pulse_energy_bins, threshold_pdp, write_pdp_csv
from .pn import generate_msequence, periodic_autocorrelation, preset as pn_preset
from .scenario_io import (
    CampaignSpec,
    emit_plot_data,
    load_scenario,
    read_fit_points,
    run_campaign,
)
from .sweep import (
    Capture,
    LinkBudget,
    averaging_gain_db,
    check_location,
    ci_fit,
    eirp,
    max_measurable_path_loss,
    noise_floor_dbm,
    probe_waveform,
)

# named, not __name__: under ``python -m`` this module runs as __main__
log = logging.getLogger("corrsounder.cli")


def shipped_scenario_path(name: str) -> Path:
    """Path of a scenario file installed with the package."""
    base = Path(__file__).parent / "scenarios"
    path = base / f"{name}.yaml"
    if not path.is_file():
        available = sorted(p.stem for p in base.glob("*.yaml"))
        raise ConfigError(f"no shipped scenario {name!r}; available: {available}")
    return path


def _resolve_scenario(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    return shipped_scenario_path(arg)


def _cmd_pn(args) -> int:
    spec = pn_preset(args.order)
    seq = generate_msequence(spec)
    ones = int((seq.chips == 1).sum())
    lags = range(1, len(seq))
    off_peak = {periodic_autocorrelation(seq, lag) for lag in lags}
    print(f"order {spec.order}, taps {sorted(spec.feedback_taps)}, length {len(seq)}")
    print(f"balance: {ones} x +1 / {len(seq) - ones} x -1")
    print(f"autocorrelation: lag 0 -> {periodic_autocorrelation(seq, 0)}, other lags -> {sorted(off_peak)}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "chip"])
            for n, chip in enumerate(seq.chips):
                writer.writerow([n, int(chip)])
        print(f"chips written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    if args.dump_waveform and not args.out:
        raise ConfigError("--dump-waveform writes into the --out directory; give --out")
    if args.seed < 0:  # numpy's seeding would raise ValueError
        raise ConfigError(f"noise seed must be non-negative, got {args.seed}")
    sc = load_scenario(_resolve_scenario(args.scenario))
    preset = get_preset(args.preset)
    channel = check_location(sc, args.rx_index, preset)
    if not channel.paths:
        print("no propagation path exists; nothing to simulate")
        return 0
    print(f"channel for {sc.rx_locations[args.rx_index].ident}: {len(channel)} paths")
    for p in channel.paths:
        print(
            f"  {p.kind:11s} delay {p.delay_s * 1e9:8.2f} ns  gain {p.gain_db:7.2f} dB  "
            f"AOD {p.aod_az_deg:6.1f}/{p.aod_el_deg:5.1f}  AOA {p.aoa_az_deg:6.1f}/{p.aoa_el_deg:5.1f}"
        )
    strongest = max(channel.paths, key=lambda p: p.gain)
    rx_az = args.rx_az if args.rx_az is not None else strongest.aoa_az_deg
    rx_loc = sc.rx_locations[args.rx_index]
    rx_pattern = sc.rx_pattern.pointed(rx_az, sc.rx_elevation_deg)
    rng = np.random.default_rng(args.seed)
    rx_az = rx_pattern.pointing_az_deg  # the pointing used: wrapped to [0, 360)
    metadata = {"location": rx_loc.ident, "angle": rx_az}
    if args.literal:  # the oracle: the whole dilated record, noise at the full PSD
        tx_pattern = sc.tx_pattern.pointed(*sc.tx_pointing_for(rx_loc))
        wave = probe_waveform(preset, sc.tx_power_dbm, "literal")
        received = apply_channel(wave, channel, tx_pattern, rx_pattern, sc.effective_noise_psd_dbm_hz, rng)
        cir = correlate_literal(received, preset.config, preset.chip_sequence())
        pdp = threshold_pdp(pdp_from_iq(cir, system_pulse_energy_bins(preset), **metadata))
    else:
        capture = Capture(sc, args.rx_index, preset, channel)
        branches, trace = capture.acquire(rx_pattern, rng)
        cir = make_cir(trace, preset.config)
        pdp = capture.threshold(trace.real**2 + trace.imag**2, metadata)[1]
        if args.dump_waveform:  # the received period, rebuilt from its branch spectra
            received = replace(capture.wave, samples=capture.kernel.inverse(branches))
    total = "none" if pdp.total_power_dbm is None else f"{pdp.total_power_dbm:.2f}"
    print(
        f"RX beam at {rx_az:.1f} deg: peak {pdp.peak_power_dbm:.2f} dBm, "
        f"floor {pdp.noise_floor_dbm:.2f} dBm, total {total} dBm"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_cir_csv(cir, out / "cir.csv", preset.config)
        write_pdp_csv(pdp, out / "pdp.csv")
        written = "cir.csv and pdp.csv"
        if args.dump_waveform:
            write_waveform(received, out / "received.bin")
            written += " and received.bin"
        print(f"{written} written to {out}")
    return 0


def _cmd_campaign(args) -> int:
    spec = CampaignSpec(
        scenario_path=str(_resolve_scenario(args.scenario)),
        kind=args.kind,
        out_dir=args.out,
        step_deg=args.step_deg,
        sweeps=args.sweeps,
        preset=args.preset,
        seed=args.seed,
        averages=args.averages,
        rx_index=args.rx_index,
        speed_mps=args.speed,
        save_pdps=args.save_pdps,
    )
    bundle = run_campaign(spec)
    print(f"campaign '{spec.kind}' on {bundle.scenario.name}: {len(bundle.locations)} locations")
    for label, fit in sorted(bundle.fits.items()):
        print(f"  CI fit {label}: ple {fit.ple:.2f}, sigma {fit.sigma_db:.2f} dB ({fit.point_count} pts)")
    for group, std in sorted(bundle.power_std_db.items()):
        print(f"  power std {group}: {std:.2f} dB")
    if bundle.fading_db_per_m is not None:
        print(
            f"  fading rate: {bundle.fading_db_per_m:.2f} dB/m -> "
            f"{bundle.fading_db_per_s:.2f} dB/s at {bundle.speed_mps:g} m/s"
        )
    print(f"bundle written to {bundle.out_dir}")
    return 0


def _cmd_fit(args) -> int:
    points = read_fit_points(args.csv)
    if not points:
        raise AnalysisError(f"{args.csv}: no data rows")
    fit = ci_fit(points, args.frequency)
    print(f"ple = {fit.ple:.4f}")
    print(f"sigma_db = {fit.sigma_db:.4f}")
    print(f"point_count = {fit.point_count}")
    print(f"frequency_hz = {fit.frequency_hz:.6g}")
    print(f"d0_m = {fit.d0_m:g}")
    return 0


def _cmd_budget(args) -> int:
    if args.table1:
        budget = LinkBudget.full_preset_budget()
    else:
        budget = LinkBudget(
            tx_power_dbm=args.tx_power,
            tx_gain_dbi=args.tx_gain,
            rx_gain_dbi=args.rx_gain,
            processing_gain_db=processing_gain(args.slide_factor),
            averaging_gain_db=averaging_gain_db(args.averages),
            noise_floor_dbm=noise_floor_dbm(args.bandwidth, args.noise_figure),
            snr_threshold_db=args.snr,
        )
    print(f"EIRP: {eirp(budget.tx_power_dbm, budget.tx_gain_dbi):.2f} dBm")
    print(f"processing gain: {budget.processing_gain_db:.2f} dB")
    print(f"averaging gain: {budget.averaging_gain_db:.2f} dB")
    print(f"noise floor: {budget.noise_floor_dbm:.2f} dBm")
    print(f"max measurable path loss: {max_measurable_path_loss(budget):.2f} dB")
    return 0


def _cmd_emit(args) -> int:
    print(emit_plot_data(args.bundle, args.out))
    return 0


def _cmd_info(args) -> int:
    preset = get_preset(args.preset)
    cfg = preset.config
    gamma = slide_factor(cfg)
    print(f"preset {preset.name}: {cfg.code_length} chips, "
          f"{cfg.tx_chip_rate:g}/{cfg.rx_chip_rate:g} cps")
    print(f"slide factor: {gamma:g}")
    print(f"dilated period: {dilated_period(cfg) * 1e3:.3f} ms")
    print(f"processing gain: {processing_gain(gamma):.2f} dB")
    print(f"simulation rate: {preset.sample_rate:g} S/s "
          f"({preset.samples_per_chip} samples/chip)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrsounder",
        description="Sliding-correlator channel sounder simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pn", help="generate and inspect PN codes")
    p.add_argument("--order", type=int, default=11, help="LFSR order (3, 7 or 11)")
    p.add_argument("--out", help="write chips to CSV")
    p.set_defaults(func=_cmd_pn)

    p = sub.add_parser("simulate", help="single link: channel, correlation, PDP")
    p.add_argument("--scenario", required=True, help="scenario file or shipped name")
    p.add_argument("--rx-index", type=int, default=0)
    p.add_argument("--rx-az", type=float, default=None, help="RX beam azimuth (default: strongest path)")
    p.add_argument("--preset", choices=["desk", "full"], default="desk")
    p.add_argument("--literal", action="store_true", help="use the literal sliding mixer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for cir.csv / pdp.csv")
    p.add_argument("--dump-waveform", action="store_true",
                   help="also write the correlated record as binary: one code period "
                        "on the fast path, the whole dilated record with --literal")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("campaign", help="run a route/cluster/single campaign")
    p.add_argument("--scenario", required=True)
    p.add_argument("--kind", choices=["route", "cluster", "single"], required=True)
    p.add_argument("--out", required=True, help="bundle output directory")
    p.add_argument("--step-deg", type=float, default=15.0)
    p.add_argument("--sweeps", type=int, default=5)
    p.add_argument("--averages", type=int, default=1)
    p.add_argument("--preset", choices=["desk", "full"], default="desk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rx-index", type=int, default=None, help="single-kind receiver index")
    p.add_argument("--speed", type=float, default=35.0, help="speed (m/s) for the fading-rate report")
    p.add_argument("--save-pdps", action="store_true")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("fit", help="CI path-loss fit on a CSV (distance_m, path_loss_db)")
    p.add_argument("csv")
    p.add_argument("--frequency", type=float, default=73.5e9)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("budget", help="link-budget calculator")
    p.add_argument("--table1", action="store_true", help="use the shipped 500 Mcps budget")
    p.add_argument("--tx-power", type=float, default=14.6)
    p.add_argument("--tx-gain", type=float, default=27.0)
    p.add_argument("--rx-gain", type=float, default=27.0)
    p.add_argument("--slide-factor", type=float, default=8000.0)
    p.add_argument("--averages", type=int, default=20)
    p.add_argument("--bandwidth", type=float, default=2e9, help="noise floor bandwidth, Hz")
    p.add_argument("--noise-figure", type=float, default=5.0)
    p.add_argument("--snr", type=float, default=5.0)
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("emit", help="path-loss plot CSV from a route campaign bundle")
    p.add_argument("--bundle", required=True, help="campaign output directory")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_emit)

    p = sub.add_parser("info", help="show preset timing parameters")
    p.add_argument("--preset", choices=["desk", "full"], default="full")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except SounderError as exc:
        log.error("%s", exc)
        return getattr(exc, "exit_code", 3)
    except OSError as exc:
        log.error("%s", exc)
        return 2


def run() -> None:
    """Process entry point (``python -m corrsounder.cli`` and the
    ``corrsounder`` script): :func:`main`, then exit with its status."""
    status = main()
    # Interpreter shutdown runs full collections over every object numpy and
    # the package leave tracked, about 10 ms of a desk command, and frees
    # nothing a finished command needs.  Freezing moves them into the
    # permanent generation, which those passes skip; atexit handlers, stdio
    # flushes and module teardown still run, and every output file is already
    # closed.  main() itself does not freeze: callers inside a process rely on
    # normal collection, e.g. to report unclosed files.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
