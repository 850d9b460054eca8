import contextlib
import copy
import csv
import gc
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corrsounder.scenario_io as scenario_io
from corrsounder.cli import main as cli_main, shipped_scenario_path
from corrsounder.errors import AnalysisError, ConfigError
from corrsounder.scenario_io import (
    CampaignSpec,
    emit_plot_data,
    load_scenario,
    run_campaign,
)
from corrsounder.sweep import LinkBudget, eirp, max_measurable_path_loss
from corrsounder.waveform import read_waveform

MINI_SCENARIO = """
name: mini
carrier_hz: 73.5e+9
tx:
  position_m: [0.0, 0.0, 5.0]
  power_dbm: 14.6
  pointing_deg: {az: 0.0, el: 0.0}
rx:
  default_height_m: 5.0
  locations:
    - {id: A, position_m: [20.0, 0.0], label: los, group: near}
    - {id: B, position_m: [25.0, 0.0], label: los, group: near}
    - {id: C, position_m: [45.0, 0.0], label: los, group: far}
    - {id: D, position_m: [50.0, 0.0], label: far-ish, group: far}
environment: {}
"""


@pytest.fixture()
def mini_path(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_SCENARIO.replace("label: far-ish", "label: los"))
    return path


class TestLoadScenario:
    def test_shipped_route(self):
        sc = load_scenario(shipped_scenario_path("corner_route"))
        assert len(sc.rx_locations) == 16
        labels = [rx.label for rx in sc.rx_locations]
        assert labels.count("los") == 5
        assert labels.count("nlos") == 11
        assert sc.carrier_hz == 73.5e9
        assert sc.tx_position_m[2] == 4.0
        assert sc.rx_locations[0].position_m[2] == 1.5

    def test_shipped_clusters(self):
        sc = load_scenario(shipped_scenario_path("corner_clusters"))
        groups = {}
        for rx in sc.rx_locations:
            groups.setdefault(rx.group, []).append(rx)
        assert set(groups) == {"los-cluster", "nlos-cluster"}
        for members in groups.values():
            assert len(members) == 5
            for a, b in zip(members, members[1:]):
                assert math.dist(a.position_m, b.position_m) == pytest.approx(5.0, abs=1e-9)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_scenario(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(MINI_SCENARIO.replace("carrier_hz", "carrier_ghz"))
        with pytest.raises(ConfigError, match="unknown keys.*carrier_ghz"):
            load_scenario(path)

    def test_unknown_nested_key_path_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(MINI_SCENARIO.replace("power_dbm", "power_watts"))
        with pytest.raises(ConfigError, match="tx: unknown keys"):
            load_scenario(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(MINI_SCENARIO)
        with pytest.raises(ConfigError, match="label"):
            load_scenario(path)

    def test_duplicate_ids_rejected(self, mini_path, tmp_path):
        path = tmp_path / "dup.yaml"
        path.write_text(mini_path.read_text().replace("id: B", "id: A"))
        with pytest.raises(ConfigError, match=r"rx.locations\[1\]: duplicate id 'A'"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("{id: A, position_m: [20.0, 0.0],", "{id: A,", r"rx.locations\[0\]: missing required key 'position_m'"),
            ("environment: {}", "environment: {wedges: [{}]}",
             r"environment.wedges\[0\]: missing required key 'position_m'"),
            ("environment: {}", "environment: {walls: [{end_m: [1.0, 1.0]}]}",
             r"environment.walls\[0\]: missing required key 'start_m'"),
            ("environment: {}", "environment: {walls: [{start_m: [1.0, 1.0]}]}",
             r"environment.walls\[0\]: missing required key 'end_m'"),
            ("environment: {}", "environment: {reflectors: [{end_m: [1.0, 1.0]}]}",
             r"environment.reflectors\[0\]: missing required key 'start_m'"),
            ("environment: {}", "environment: {reflectors: [{start_m: [1.0, 1.0]}]}",
             r"environment.reflectors\[0\]: missing required key 'end_m'"),
        ],
        ids=["rx-position", "wedge-position", "wall-start", "wall-end", "reflector-start", "reflector-end"],
    )
    def test_missing_required_key_rejected(self, mini_path, tmp_path, old, new, where):
        path = tmp_path / "missing.yaml"
        text = mini_path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=where):
            load_scenario(path)

    @pytest.mark.parametrize(
        "environment, where",
        [
            ("{wedges: [5]}", r"environment.wedges\[0\]: expected a mapping"),
            ("{walls: [[1.0, 2.0]]}", r"environment.walls\[0\]: expected a mapping"),
            ("{reflectors: 3}", r"environment.reflectors: expected a list"),
        ],
        ids=["wedge-int", "wall-list", "reflectors-scalar"],
    )
    def test_environment_entries_must_be_mappings(self, mini_path, tmp_path, environment, where):
        path = tmp_path / "env.yaml"
        path.write_text(mini_path.read_text().replace("environment: {}", f"environment: {environment}"))
        with pytest.raises(ConfigError, match=where):
            load_scenario(path)

    @pytest.mark.parametrize("kind", ["walls", "reflectors"])
    def test_zero_length_segment_rejected(self, mini_path, tmp_path, kind):
        path = tmp_path / "degenerate.yaml"
        path.write_text(mini_path.read_text().replace(
            "environment: {}", f"environment: {{{kind}: [{{start_m: [10.0, -5.0], end_m: [10.0, -5.0]}}]}}"
        ))
        with pytest.raises(ConfigError, match=rf"environment.{kind}\[0\]: start_m equals end_m"):
            load_scenario(path)

    def test_defaults_applied(self, mini_path):
        sc = load_scenario(mini_path)
        assert sc.rx_pattern.boresight_gain_dbi == 20.0
        assert sc.tx_pattern.hpbw_az_deg == 7.0
        assert sc.noise_figure_db == 5.0

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"name: x\n\xff\xfe bad\n")
        with pytest.raises(ConfigError, match="YAML parse error"):
            load_scenario(path)


LOADERS = {"libyaml": getattr(yaml, "CSafeLoader", None), "python": yaml.SafeLoader}


@pytest.fixture(params=sorted(LOADERS))
def yaml_loader(request, monkeypatch):
    """Run a test under each YAML loader ``load_scenario`` can use."""
    loader = LOADERS[request.param]
    if loader is None:
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", loader)
    return request.param


class TestYamlLoaders:
    def test_default_is_libyaml_when_available(self):
        assert scenario_io._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("name", ["corner_route", "corner_clusters"])
    def test_shipped_scenarios_load_equal(self, name, monkeypatch):
        path = shipped_scenario_path(name)
        loaded = {}
        for key, loader in LOADERS.items():
            if loader is not None:
                monkeypatch.setattr(scenario_io, "_YAML_LOADER", loader)
                loaded[key] = load_scenario(path)
        assert all(sc == loaded["python"] for sc in loaded.values())

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"name: x\n\xff\xfe bad\n", "YAML parse error"),
            (b"name: [unclosed\n", "YAML parse error"),
            (b"name: x\n\tbad: 1\n", "YAML parse error"),
            # libyaml rejects the escape while parsing; the Python loader
            # accepts it, and load_scenario rejects the name
            (b'name: "\\ud800"\nrx: {locations: [{position_m: [1.0, 1.0]}]}\n', "YAML parse error|not valid UTF-8"),
        ],
        ids=["invalid-utf8", "unclosed-flow", "tab-indent", "lone-surrogate"],
    )
    def test_unreadable_file_is_config_error(self, yaml_loader, tmp_path, data, match):
        path = tmp_path / "bad.yaml"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=match):
            load_scenario(path)


def _paths(node, prefix=()):
    """Every (container path, key) in a parsed YAML tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, (*prefix, key))


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats() | st.text(max_size=6) | st.sampled_from(["los", "nlos", "id", "position_m"])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_KEYS = st.text(max_size=8) | st.integers() | st.sampled_from(
    ["name", "tx", "rx", "environment", "walls", "wedges", "reflectors", "position_m", "start_m", "end_m",
     "locations", "pattern", "pointing_deg", "tx_pointing_deg", "hpbw_az_deg", "label", "group", "id"]
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoadScenarioFuzz:
    BASE = yaml.safe_load(MINI_SCENARIO.replace("label: far-ish", "label: los").replace(
        "environment: {}",
        "environment:\n  walls: [{start_m: [30.0, 5.0], end_m: [30.0, -5.0]}]\n"
        "  wedges: [{position_m: [30.0, 5.0]}]\n"
        "  reflectors: [{start_m: [0.0, -20.0], end_m: [60.0, -20.0], loss_db: 6.0}]",
    ))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_failure_is_a_config_error(self, fuzz_dir, data):
        # mutate a valid scenario's keys, values and nesting, dump it and
        # load it: the load either succeeds or raises ConfigError
        doc = copy.deepcopy(self.BASE)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            prefix, key = data.draw(st.sampled_from(list(_paths(doc))), label="where")
            parent = doc
            for step in prefix:
                parent = parent[step]
            op = data.draw(st.sampled_from(["replace", "delete", "add", "wrap"]), label="op")
            if op == "replace":
                parent[key] = data.draw(_VALUES, label="value")
            elif op == "delete":
                del parent[key]
            elif op == "add" and isinstance(parent, dict):
                parent[data.draw(_KEYS, label="key")] = data.draw(_VALUES, label="value")
            elif op == "add":
                parent.insert(key, data.draw(_VALUES, label="value"))
            else:
                parent[key] = data.draw(st.sampled_from([[parent[key]], {"x": parent[key]}]), label="wrap")
            if not doc or not list(_paths(doc)):
                break
        path = fuzz_dir / "fuzzed.yaml"
        path.write_text(yaml.safe_dump(doc))
        try:
            load_scenario(path)
        except ConfigError:
            pass


@pytest.fixture(scope="module")
def mini_campaign(tmp_path_factory):
    base = tmp_path_factory.mktemp("campaign")
    scenario = base / "mini.yaml"
    scenario.write_text(MINI_SCENARIO.replace("label: far-ish", "label: los"))
    spec = CampaignSpec(
        scenario_path=str(scenario), kind="route", out_dir=str(base / "out"),
        step_deg=90.0, sweeps=2, seed=5,
    )
    return spec, run_campaign(spec)


class TestRunCampaign:
    def test_route_report_structure(self, mini_campaign):
        _, bundle = mini_campaign
        route_csv = bundle.out_dir / "route.csv"
        with open(route_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["los_flag"] for row in rows] == ["los"] * 4
        positions = [float(row["position_m"]) for row in rows]
        assert positions == sorted(positions)
        distances = [float(row["distance_m"]) for row in rows]
        assert distances == pytest.approx([20.0, 25.0, 45.0, 50.0])

    def test_fit_and_fading_present(self, mini_campaign):
        _, bundle = mini_campaign
        assert "los" in bundle.fits
        assert bundle.fits["los"].point_count == 4
        assert bundle.fading_db_per_s == pytest.approx(bundle.fading_db_per_m * 35.0)
        assert (bundle.out_dir / "fits.txt").exists()

    def test_angular_files_per_location(self, mini_campaign):
        _, bundle = mini_campaign
        names = sorted(p.name for p in (bundle.out_dir / "angular").iterdir())
        assert names == ["A.csv", "B.csv", "C.csv", "D.csv"]
        with open(bundle.out_dir / "angular" / "A.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["azimuth_deg", "power_dBm"]
        assert len(rows) == 1 + 4  # header + 360/90 angles

    def test_manifest_reflects_inputs(self, mini_campaign):
        spec, bundle = mini_campaign
        manifest = json.loads((bundle.out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["kind"] == "route"
        scenario_bytes = Path(spec.scenario_path).read_bytes()
        assert manifest["scenario_sha256"] == hashlib.sha256(scenario_bytes).hexdigest()

    def test_manifest_hash_changes_only_with_config(self, mini_campaign, tmp_path):
        spec, bundle = mini_campaign
        base_hash = bundle.manifest["config_hash"]
        from dataclasses import replace

        same = run_campaign(replace(spec, out_dir=str(tmp_path / "again")))
        assert same.manifest["config_hash"] == base_hash
        reseeded = run_campaign(replace(spec, seed=6, out_dir=str(tmp_path / "seed")))
        assert reseeded.manifest["config_hash"] != base_hash

    def test_manifest_hash_tracks_scenario_content(self, mini_campaign, tmp_path):
        spec, bundle = mini_campaign
        from dataclasses import replace

        edited = tmp_path / "edited.yaml"
        edited.write_text(
            Path(spec.scenario_path).read_text().replace("power_dbm: 14.6", "power_dbm: 10.0")
        )
        other = run_campaign(
            replace(spec, scenario_path=str(edited), out_dir=str(tmp_path / "ed"))
        )
        assert other.manifest["config_hash"] != bundle.manifest["config_hash"]

    def test_sweep_failure_keeps_exception_and_names_location(
        self, mini_campaign, tmp_path, monkeypatch, caplog
    ):
        # a foreign exception type must come through as itself, not be
        # rebuilt from a message string
        spec, _ = mini_campaign
        from dataclasses import replace

        import corrsounder.scenario_io as scenario_io

        original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        def broken(*args, **kwargs):
            raise original

        monkeypatch.setattr(scenario_io, "run_sweep", broken)
        with pytest.raises(UnicodeDecodeError) as info:
            run_campaign(replace(spec, out_dir=str(tmp_path / "broken")))
        assert info.value is original
        assert "location A: sweep failed" in caplog.text

    def test_each_location_channel_built_once(self, mini_campaign, tmp_path, monkeypatch):
        # the pre-check's channel is the one the sweep runs on
        spec, bundle = mini_campaign
        from dataclasses import replace

        import corrsounder.sweep as sweep

        built = []
        synthesize = sweep.synthesize_channel

        def counting(sc, rx_index):
            built.append(rx_index)
            return synthesize(sc, rx_index)

        monkeypatch.setattr(sweep, "synthesize_channel", counting)
        again = run_campaign(replace(spec, out_dir=str(tmp_path / "once")))
        assert built == [0, 1, 2, 3]
        for name in ("route.csv", "fits.txt"):
            assert (again.out_dir / name).read_bytes() == (bundle.out_dir / name).read_bytes()

    def test_single_kind_requires_rx_index(self, mini_campaign):
        spec, _ = mini_campaign
        from dataclasses import replace

        with pytest.raises(ConfigError, match="rx_index"):
            replace(spec, kind="single", rx_index=None)

    @pytest.mark.parametrize("kind", ["route", "cluster"])
    def test_rx_index_refused_off_single_kind(self, mini_campaign, kind):
        # it would change nothing but the manifest's config hash
        spec, _ = mini_campaign
        from dataclasses import replace

        with pytest.raises(ConfigError, match="rx_index goes with single campaigns only"):
            replace(spec, kind=kind, rx_index=0)

    def test_cluster_kind(self, tmp_path, mini_campaign):
        spec, _ = mini_campaign
        from dataclasses import replace

        bundle = run_campaign(
            replace(spec, kind="cluster", out_dir=str(tmp_path / "cl"))
        )
        assert set(bundle.power_std_db) == {"near", "far"}
        with open(bundle.out_dir / "cluster.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["group"]: int(row["count"]) for row in rows} == {"near": 2, "far": 2}


class TestEmitPlotData:
    def test_pathloss_contains_fit_lines(self, mini_campaign):
        _, bundle = mini_campaign
        path = emit_plot_data(bundle.out_dir)
        assert path == bundle.out_dir / "plots" / "pathloss.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        fit_rows = [row for row in rows if row["series"] == "fit-los"]
        point_rows = [row for row in rows if row["series"] == "point-los"]
        assert len(fit_rows) == 50
        assert len(point_rows) == 4
        logd = [float(row["log10_distance"]) for row in fit_rows]
        assert logd == sorted(logd)

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(AnalysisError, match="bundle.json"):
            emit_plot_data(tmp_path)


class TestCli:
    def test_pn_summary(self, capsys):
        assert cli_main(["pn", "--order", "7"]) == 0
        out = capsys.readouterr().out
        assert "length 127" in out
        assert "64 x +1 / 63 x -1" in out

    def test_budget_table1_removed(self, capsys):
        # no --table1: budget's defaults are the 500 Mcps budget
        with pytest.raises(SystemExit) as exc:
            cli_main(["budget", "--table1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_budget_defaults_are_the_full_preset_budget(self, capsys):
        assert cli_main(["budget"]) == 0
        budget = LinkBudget.full_preset_budget()
        assert capsys.readouterr().out.splitlines() == [
            f"EIRP: {eirp(budget.tx_power_dbm, budget.tx_gain_dbi):.2f} dBm",
            f"processing gain: {budget.processing_gain_db:.2f} dB",
            f"averaging gain: {budget.averaging_gain_db:.2f} dB",
            f"noise floor: {budget.noise_floor_dbm:.2f} dBm",
            f"max measurable path loss: {max_measurable_path_loss(budget):.2f} dB",
        ]

    @pytest.mark.parametrize(
        "flag",
        ["--noise-figure=1e308", "--tx-power=-1001", "--slide-factor=1e101", f"--averages={10**201}"],
        ids=["noise-figure", "tx-power", "processing-gain", "averaging-gain"],
    )
    def test_budget_term_beyond_bound_exit_code(self, flag, capsys):
        # --noise-figure 1e308 once printed a 309-digit noise floor, exit 0
        assert cli_main(["budget", flag]) == 2
        assert capsys.readouterr().out == ""

    def test_info(self, capsys):
        assert cli_main(["info", "--preset", "full"]) == 0
        out = capsys.readouterr().out
        assert "slide factor: 8000" in out
        assert "32.752 ms" in out

    def test_fit_csv(self, tmp_path, capsys):
        from corrsounder.channel import fspl

        path = tmp_path / "points.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance_m", "path_loss_db"])
            for d in (10.0, 30.0, 90.0):
                writer.writerow([d, fspl(1.0, 73.5e9) + 10 * 2.5 * math.log10(d)])
        assert cli_main(["fit", str(path)]) == 0
        assert "ple = 2.5000" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        assert cli_main(["campaign", "--scenario", str(missing), "--kind", "route", "--out", str(tmp_path / "o")]) == 2

    def test_missing_position_exit_code(self, mini_path, tmp_path):
        scenario = tmp_path / "missing.yaml"
        scenario.write_text(mini_path.read_text().replace("{id: A, position_m: [20.0, 0.0],", "{id: A,"))
        assert cli_main([
            "campaign", "--scenario", str(scenario), "--kind", "route", "--out", str(tmp_path / "o"),
        ]) == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ("carrier_hz: 73.5e+9", "carrier_hz: abc"),
            ("carrier_hz: 73.5e+9", "carrier_hz: -73.5e+9"),
            ("position_m: [20.0, 0.0]", "position_m: [.nan, 0.0]"),
            ("environment: {}", "environment: {reflectors: [{start_m: [10.0, -5.0], end_m: [10.0, -5.0]}]}"),
        ],
        ids=["carrier-not-a-number", "carrier-negative", "position-nan", "reflector-zero-length"],
    )
    def test_bad_scalar_exit_code(self, mini_path, tmp_path, old, new):
        scenario = tmp_path / "bad.yaml"
        text = mini_path.read_text()
        assert old in text
        scenario.write_text(text.replace(old, new))
        assert cli_main([
            "campaign", "--scenario", str(scenario), "--kind", "route", "--out", str(tmp_path / "o"),
        ]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "verb, old, new, code",
        [
            ("simulate", "rx:\n", "rx:\n  pattern: {gain_dbi: 1e300}\n", 2),
            ("simulate", "rx:\n", "rx:\n  pattern: {floor_db: -1e300}\n", 2),
            ("simulate", "rx:\n", "rx:\n  pattern: {gain_dbi: 1000, floor_db: -1000}\n", 2),
            ("campaign", "tx:\n", "tx:\n  pattern: {floor_db: -1}\n", 2),
            ("simulate", "power_dbm: 14.6", "power_dbm: 1e300", 2),
            ("simulate", "environment: {}", "environment: {}\nnoise: {psd_dbm_per_hz: 1e300}", 2),
            ("simulate", "carrier_hz: 73.5e+9", "carrier_hz: 1e-300", 2),
            ("campaign", "rx:\n", "rx:\n  elevation_deg: 1e300\n", 2),
            ("campaign", "rx:\n", "rx:\n  pattern: {hpbw_az_deg: 1e-300}\n", 0),
        ],
        ids=["rx-gain", "rx-floor", "rx-floor-negative", "tx-floor-negative", "tx-power", "noise-psd",
             "tiny-carrier", "rx-elevation", "tiny-hpbw"],
    )
    def test_out_of_range_scenario_number_exit_code(self, mini_path, tmp_path, verb, old, new, code):
        # dB fields beyond +-1000 dB and elevations outside [-90, 90] used to
        # overflow, and a tiny carrier gave a negative free-space loss: all
        # are refused before any output.  A tiny HPBW only narrows the beam
        text = mini_path.read_text()
        assert text.count(old) == 1
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(text.replace(old, new))
        out = tmp_path / "o"
        options = ["--kind", "route", "--step-deg", "90", "--sweeps", "1"] if verb == "campaign" else []
        assert cli_main([verb, "--scenario", str(scenario), *options, "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    def test_simulate_rx_index_out_of_range_exit_code(self, tmp_path):
        out = tmp_path / "sim"
        assert cli_main([
            "simulate", "--scenario", "corner_route", "--rx-index", "99", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_simulate_negative_seed_exit_code(self, tmp_path):
        out = tmp_path / "sim"
        assert cli_main([
            "simulate", "--scenario", "corner_route", "--rx-index", "3", "--seed=-1", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_simulate_dump_waveform_without_out_exit_code(self, tmp_path, capsys, monkeypatch):
        # the record has nowhere to go: refused before any work or output
        monkeypatch.chdir(tmp_path)
        assert cli_main(["simulate", "--scenario", "corner_route", "--rx-index", "3", "--dump-waveform"]) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "rx_az, used",
        [("720", 0.0), ("-90", 270.0), ("1e300", 1e300 % 360.0), ("-1e-20", 0.0)],
        ids=["two-turns", "negative", "huge", "tiny-negative"],
    )
    def test_simulate_reports_the_pointing_used(self, tmp_path, capsys, rx_az, used):
        # the summary line and pdp.csv give the wrapped azimuth the horn
        # pointed at, and that azimuth given directly captures the same bytes
        pdps = []
        for arg in (rx_az, repr(used)):
            out = tmp_path / arg
            assert cli_main([
                "simulate", "--scenario", "corner_route", "--rx-index", "3",
                f"--rx-az={arg}", "--out", str(out),
            ]) == 0
            assert f"RX beam at {used:.1f} deg: peak" in capsys.readouterr().out
            pdps.append((out / "pdp.csv").read_bytes())
        assert f"# angle={used!r}\n".encode() in pdps[0]
        assert pdps[0] == pdps[1]

    @pytest.mark.parametrize("rx_az", ["nan", "inf", "-inf"])
    def test_bad_rx_az_exit_code(self, tmp_path, capsys, rx_az):
        out = tmp_path / "sim"
        assert cli_main([
            "simulate", "--scenario", "corner_route", "--rx-index", "3",
            f"--rx-az={rx_az}", "--out", str(out),
        ]) == 2
        assert "peak" not in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["campaign"])
    @pytest.mark.parametrize("step", ["0", "-90", "nan", "inf", "1e-7"])
    def test_bad_step_exit_code(self, mini_path, tmp_path, verb, step):
        out = tmp_path / "o"
        args = [verb, "--scenario", str(mini_path), f"--step-deg={step}", "--sweeps", "1"]
        assert cli_main([*args, "--kind", "route", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--kind", "single", "--rx-index", "99"],
            ["--kind", "route", "--speed", "nan"],
            ["--kind", "route", "--speed=-35"],
            ["--kind", "route", "--seed=-1"],
            ["--kind", "route", "--sweeps", str(10**30)],
            ["--kind", "route", "--rx-index", "1"],
            ["--kind", "cluster", "--rx-index", "0"],
        ],
        ids=[
            "rx-index-out-of-range", "speed-nan", "speed-negative", "seed-negative", "sweeps-huge",
            "rx-index-on-route", "rx-index-on-cluster",
        ],
    )
    def test_bad_campaign_input_exit_code(self, mini_path, tmp_path, extra):
        assert cli_main(["campaign", "--scenario", str(mini_path), *extra, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "option",
        [
            ["--step-deg=0"], ["--step-deg=50"], ["--step-deg=nan"], ["--step-deg=1e-7"],
            ["--sweeps", "0"], ["--averages", "0"],
        ],
        ids=[
            "step-zero", "step-not-dividing-360", "step-nan", "step-too-many-spokes",
            "sweeps-zero", "averages-zero",
        ],
    )
    def test_bad_sweep_option_leaves_no_output_dir(self, mini_path, tmp_path, option):
        out = tmp_path / "o"
        args = ["campaign", "--scenario", str(mini_path), "--kind", "route", *option, "--out", str(out)]
        assert cli_main(args) == 2
        assert not out.exists()

    def test_speed_faster_than_light_exit_code(self, tmp_path, capsys):
        # on this 2-stop route, 1.7e308 m/s once printed inf dB/s and wrote
        # "fading_db_per_s": Infinity into bundle.json with exit 0
        stops = MINI_SCENARIO[MINI_SCENARIO.index("    - {id: A") : MINI_SCENARIO.index("environment")]
        scenario = tmp_path / "two.yaml"
        scenario.write_text(MINI_SCENARIO.replace(
            stops, "    - {id: A, position_m: [2.0, 0.0]}\n    - {id: B, position_m: [3.0, 0.0]}\n"
        ))
        out = tmp_path / "o"
        assert cli_main([
            "campaign", "--scenario", str(scenario), "--kind", "route", "--step-deg", "90",
            "--sweeps", "1", "--speed", "1.7e308", "--out", str(out),
        ]) == 2
        assert "inf" not in capsys.readouterr().out
        assert not out.exists()

    def test_invalid_utf8_scenario_exit_code(self, tmp_path):
        scenario = tmp_path / "bad.yaml"
        scenario.write_bytes(b"name: x\n\xff\xfe bad\n")
        assert cli_main([
            "campaign", "--scenario", str(scenario), "--kind", "route", "--out", str(tmp_path / "o"),
        ]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "verb, content, message",
        [
            ("fit", "distance_m,path_loss_db\n10,abc\n", "line 2: path_loss_db"),
            ("fit", "a,b\n10,100\n", "missing column 'distance_m'"),
            ("fit", "distance_m,path_loss_db\n10,100\nnan,120\n", "line 3: distance_m"),
            ("fit", "distance_m,path_loss_db\n10,100\n30,1e308\n", "line 3: path_loss_db"),
            ("emit", "{not json", "malformed bundle"),
            ("emit", '{"fits": {"los": {}}, "locations": [{"x": 1}]}', "missing key 'path_loss_db'"),
        ],
        ids=["fit-cell-not-a-number", "fit-header", "fit-cell-nan", "fit-path-loss-beyond-bound",
             "emit-not-json", "emit-missing-key"],
    )
    def test_malformed_fit_or_emit_input_exit_code(self, tmp_path, caplog, verb, content, message):
        if verb == "fit":
            path = tmp_path / "points.csv"
            args = ["fit", str(path)]
        else:
            path = tmp_path / "bundle.json"
            args = ["emit", "--bundle", str(tmp_path)]
        path.write_text(content)
        assert cli_main(args) == 2
        assert f"{path}: " in caplog.text
        assert message in caplog.text
        assert not (tmp_path / "plots").exists()

    @pytest.mark.parametrize("frequency", ["nan", "inf"])
    def test_fit_non_finite_frequency_exit_code(self, tmp_path, frequency):
        path = tmp_path / "points.csv"
        path.write_text("distance_m,path_loss_db\n10,100\n30,115\n")
        assert cli_main(["fit", str(path), f"--frequency={frequency}"]) == 2

    def test_emit_error_exit_code(self, tmp_path):
        assert cli_main(["emit", "--bundle", str(tmp_path)]) == 4

    def test_simulate_smoke(self, tmp_path, capsys):
        scenario = tmp_path / "mini.yaml"
        scenario.write_text(MINI_SCENARIO.replace("label: far-ish", "label: los"))
        out = tmp_path / "sim"
        assert cli_main([
            "simulate", "--scenario", str(scenario), "--rx-index", "0",
            "--out", str(out), "--dump-waveform",
        ]) == 0
        assert (out / "cir.csv").exists()
        assert (out / "pdp.csv").exists()
        # fast path: the received record is one code period (127 chips x 8)
        assert len(read_waveform(out / "received.bin")) == 127 * 8
        text = capsys.readouterr().out
        assert "direct" in text
        # single dominant path: calibrated total tracks the peak
        line = next(l for l in text.splitlines() if "peak" in l)
        peak = float(line.split("peak ")[1].split(" dBm")[0])
        total = float(line.split("total ")[1].split(" dBm")[0])
        assert total == pytest.approx(peak, abs=0.7)

    def test_simulate_literal_dumps_dilated_record(self, tmp_path):
        scenario = tmp_path / "mini.yaml"
        scenario.write_text(MINI_SCENARIO.replace("label: far-ish", "label: los"))
        out = tmp_path / "sim"
        assert cli_main([
            "simulate", "--scenario", str(scenario), "--rx-index", "0",
            "--out", str(out), "--dump-waveform", "--literal",
        ]) == 0
        # slide factor 128 code periods of 127 chips x 8 samples
        assert len(read_waveform(out / "received.bin")) == 128 * 127 * 8

    def test_simulate_path_in_noise_floor_window_exit_code(self, tmp_path):
        # the reflection arrives at 3.736 us: inside one 4.094 us code period
        # of the full preset, but within its noise-floor window (3.685 us on)
        scenario = tmp_path / "far.yaml"
        scenario.write_text(MINI_SCENARIO.replace("label: far-ish", "label: los").replace(
            "environment: {}",
            "environment:\n  reflectors: [{start_m: [570.0, -100.0], end_m: [570.0, 100.0]}]",
        ))
        out = tmp_path / "sim"
        args = ["simulate", "--scenario", str(scenario), "--rx-index", "0", "--out", str(out)]
        assert cli_main([*args, "--preset", "full"]) == 3
        assert not out.exists()
        assert cli_main([*args, "--preset", "desk"]) == 0

    @pytest.mark.parametrize(
        "wedge, code", [("[5.0, 1e160]", 3), ("[5.0, 1e297]", 2)], ids=["delay-check", "fspl-range"]
    )
    def test_far_diffracting_edge_exit_code(self, tmp_path, wedge, code, caplog):
        # the wall blocks A's direct ray, so the far wedge diffracts; squaring
        # its Fresnel parameter overflowed before the path's delay (1e160 m
        # away) or free-space loss (2e297 m of path) could be refused
        scenario = tmp_path / "far.yaml"
        scenario.write_text(MINI_SCENARIO.replace("label: far-ish", "label: los").replace(
            "environment: {}",
            "environment:\n  walls: [{start_m: [10.0, -5.0], end_m: [10.0, 5.0]}]\n"
            f"  wedges: [{{position_m: {wedge}}}]",
        ))
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--scenario", str(scenario), "--rx-index", "0", "--out", str(out)]) == code
        assert not out.exists()
        if code == 3:  # the delay prints in six significant digits, not 160
            (message,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert "path at 6.67128e+160 ns" in message
            assert len(message) < 200

    def test_campaign_path_in_noise_floor_window_leaves_no_output_dir(self, tmp_path):
        # a reflector 560 m south puts a 3.74 us path into the full preset's
        # noise-floor window at one route stop; the campaign must fail
        # before it writes anything
        text = shipped_scenario_path("corner_route").read_text()
        reflectors = "  reflectors:\n"
        assert text.count(reflectors) == 1
        scenario = tmp_path / "far.yaml"
        scenario.write_text(text.replace(
            reflectors, reflectors + "    - {start_m: [-1000.0, -560.0], end_m: [1000.0, -560.0]}\n"
        ))
        out = tmp_path / "o"
        args = ["campaign", "--scenario", str(scenario), "--kind", "route", "--sweeps", "1", "--out", str(out)]
        assert cli_main([*args, "--preset", "full"]) == 3
        assert not out.exists()


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _blas_env(threads: str | None) -> dict[str, str]:
    """This process's environment with ``OPENBLAS_NUM_THREADS`` set to
    ``threads``, or removed for None (importing the package here sets it)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


class TestProcessEntryPoint:
    """``python -m corrsounder.cli`` runs ``cli.run``: main(), then a heap
    freeze that only spares the interpreter's shutdown collections.  The
    package asks numpy's OpenBLAS for one thread unless the caller chose."""

    @staticmethod
    def _run_module(args, cwd, blas_threads=None):
        return subprocess.run(
            [sys.executable, "-m", "corrsounder.cli", *args], cwd=cwd, capture_output=True,
            text=True, timeout=120, env=_blas_env(blas_threads),
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["campaign", "--scenario", "corner_clusters", "--kind", "cluster", "--save-pdps",
             "--sweeps", "1", "--seed", "3"],
            ["simulate", "--scenario", "corner_route", "--rx-index", "5", "--seed", "1", "--dump-waveform"],
        ],
        ids=["cluster-pdps", "simulate-dump"],
    )
    def test_module_writes_what_main_writes(self, tmp_path, monkeypatch, capsys, args):
        process, in_process = tmp_path / "process", tmp_path / "main"
        process.mkdir()
        in_process.mkdir()
        proc = self._run_module([*args, "--out", "out"], process)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.chdir(in_process)
        assert cli_main([*args, "--out", "out"]) == 0
        assert proc.stdout == capsys.readouterr().out
        written = _tree(process / "out")
        assert len(written) >= 3
        assert written == _tree(in_process / "out")

    @pytest.mark.parametrize(
        "args, code",
        [
            (["campaign", "--scenario", "no_such_scenario", "--kind", "route", "--out", "o"], 2),
            (["simulate", "--scenario", "far.yaml", "--preset", "full", "--out", "o"], 3),
            (["emit", "--bundle", "."], 4),
        ],
        ids=["config", "simulation", "analysis"],
    )
    def test_module_exit_status(self, tmp_path, args, code):
        # the far reflector puts a path into the full preset's noise-floor window
        (tmp_path / "far.yaml").write_text(MINI_SCENARIO.replace("label: far-ish", "label: los").replace(
            "environment: {}",
            "environment:\n  reflectors: [{start_m: [570.0, -100.0], end_m: [570.0, 100.0]}]",
        ))
        proc = self._run_module(args, tmp_path)
        assert proc.returncode == code
        assert proc.stderr.startswith("ERROR corrsounder.cli: "), proc.stderr
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _threads_after_import(threads):
        if not os.path.isdir("/proc/self/task") or os.cpu_count() == 1:
            pytest.skip("needs /proc/self/task and more than one CPU")
        code = (
            "import os\nimport corrsounder\n"
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
            env=_blas_env(threads),
        ).stdout

    def test_import_starts_no_blas_worker(self):
        # numpy's OpenBLAS would start a worker per CPU that busy-waits
        assert self._threads_after_import(None) == "1 1\n"

    def test_import_keeps_the_callers_blas_threads(self):
        assert self._threads_after_import("2") == "2 2\n"

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # full's g = 1 plan runs FastKernel.mix's matmul once per bin
        args = ["simulate", "--scenario", "corner_route", "--rx-index", "5", "--preset", "full",
                "--seed", "1", "--out", "out"]
        runs = {}
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            proc = self._run_module(args, tmp_path / threads, threads)
            assert proc.returncode == 0, proc.stderr
            runs[threads] = proc.stdout, _tree(tmp_path / threads / "out")
        assert len(runs["1"][1]) >= 2
        assert runs["1"] == runs["2"]

    def test_main_does_not_freeze(self, capsys):
        frozen = gc.get_freeze_count()
        assert cli_main(["info", "--preset", "desk"]) == 0
        assert gc.get_freeze_count() == frozen

    def test_console_script_goes_through_run(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert 'corrsounder = "corrsounder.cli:run"' in pyproject

    def test_import_leaves_importlib_resources_unloaded(self):
        # without site (-S), nothing else imports it before the package does
        code = "import sys\nimport corrsounder.cli\nprint('importlib.resources' in sys.modules)\n"
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out == "False\n"


#: Numeric flag text: zero and small values, negative and huge ones of any
#: size, and floats of every kind (non-finite, subnormal, huge) for the
#: float flags.
_INT_TEXT = st.one_of(
    st.integers(-2, 5), st.integers(max_value=-1), st.integers(min_value=10**9)
).map(str)
_FLOAT_TEXT = st.one_of(_INT_TEXT, st.floats().map(str), st.sampled_from(["-0", "1e999", "-1e999"]))

#: Per verb: the arguments that keep a run cheap, then its numeric flags.
_ARGV_FUZZ = {
    "simulate": (
        ["--scenario", "corner_route"],
        {"--rx-index": _INT_TEXT, "--rx-az": _FLOAT_TEXT, "--seed": _INT_TEXT},
    ),
    "campaign": (
        ["--scenario", "corner_route", "--step-deg", "90", "--sweeps", "1"],
        {
            "--rx-index": _INT_TEXT, "--step-deg": _FLOAT_TEXT, "--sweeps": _INT_TEXT,
            "--averages": _INT_TEXT, "--seed": _INT_TEXT, "--speed": _FLOAT_TEXT,
        },
    ),
    "budget": (
        [],
        {
            flag: _FLOAT_TEXT
            for flag in ("--tx-power", "--tx-gain", "--rx-gain", "--slide-factor",
                         "--bandwidth", "--noise-figure", "--snr")
        } | {"--averages": _INT_TEXT},
    ),
    "fit": ([], {"--frequency": _FLOAT_TEXT}),
    "pn": ([], {"--order": _INT_TEXT}),
}


class TestCliArgvFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_numeric_flags_exit_cleanly(self, fuzz_dir, data):
        # any value of any numeric flag ends in a documented exit code,
        # prints no NaN, and a failed run leaves no output directory.  A
        # receiver index on a route or cluster campaign, and --dump-waveform
        # without --out, are refused
        verb = data.draw(st.sampled_from(sorted(_ARGV_FUZZ)), label="verb")
        base, flags = _ARGV_FUZZ[verb]
        chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True), label="flags")
        argv = [verb, *base]
        refused = False
        if verb == "campaign":
            kind = data.draw(st.sampled_from(["single", "route", "cluster"]), label="kind")
            argv += ["--kind", kind]
            if kind == "single":
                argv += ["--rx-index", "3"]
            elif "--rx-index" not in chosen:
                chosen.append("--rx-index")
            refused = kind != "single"
        for flag in chosen:
            argv.append(f"{flag}={data.draw(flags[flag], label=flag)}")
        out = fuzz_dir / "argv-out"
        if out.exists():
            shutil.rmtree(out)
        if verb == "fit":
            points = fuzz_dir / "points.csv"
            points.write_text("distance_m,path_loss_db\n10,100\n30,115\n")
            argv.append(str(points))
        elif verb == "campaign":
            argv += ["--out", str(out)]
        elif verb == "simulate":
            dump = data.draw(st.booleans(), label="--dump-waveform")
            with_out = data.draw(st.booleans(), label="--out")
            argv += ["--dump-waveform"] * dump + ["--out", str(out)] * with_out
            refused = dump and not with_out
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse refuses the text
                code = exc.code
        assert code in (0, 2, 3, 4), argv
        if refused:
            assert code == 2, argv
        assert "nan" not in stdout.getvalue().lower(), argv
        if code != 0:
            assert not out.exists(), argv
