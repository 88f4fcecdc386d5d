import concurrent.futures
import copy
import csv
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critheat import _extensions, cli, evolve, experiments, families, spectral
from critheat.config import (
    CHARACTER_KEYS, KEYS, PARAMS, SPECTRUM_KINDS, ConfigError, parse_character,
    parse_config, parse_sweep,
)
from critheat.radial import CorruptionError, grid_for_span
from test_experiments import rising_trajectory


def run_config_text(tmp_out=None, **overrides):
    tree = {
        "dimension": 5,
        "grid": {"R": 600.0, "n": 1375, "stretch": 1.004},
        "family": {"name": "aW", "a": 0.9},
        "integrator": {"tol": 1e-5, "t_max": 1e6},
        "seed": 0,
    }
    tree.update(overrides)
    if tmp_out is not None:
        tree["out_dir"] = str(tmp_out)
    return json.dumps(tree)


#: every key a configuration may hold, builder parameters included, so that
#: generated trees reach past the top level now and then
KEY_NAMES = sorted({part for key in KEYS + CHARACTER_KEYS for part in key.path.split(".")}
                   | set(PARAMS) | {"sweep"})
json_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | st.sampled_from(sorted(SPECTRUM_KINDS)))
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEY_NAMES) | st.text(max_size=6), inner, max_size=6),
    max_leaves=24,
)
FULL_CONFIG = {
    "dimension": 4,
    "grid": {"R": 160.0, "n": 1047, "stretch": 1.004},
    "family": {"name": "gaussian", "amp": 0.05, "width": 1.0},
    "integrator": {"tol": 1e-6, "dt_init": 1e-6, "dt_min": 1e-12, "t_max": 40.0,
                   "nonlinearity": "focusing"},
    "snapshots": {"first": 0.05, "factor": 1.3, "checkpoint_every": 2, "forced_times": [1.0]},
    "verdict": {"eps_dissip_rel": 1e-6, "amp_cap": 1e8},
    "diagnostics": {"fit_t_lo": 2.0},
    "seed": 0,
    "out_dir": "out",
}
#: one valid `family` object per family, each setting every parameter of its builder
FULL_FAMILIES = (
    {"name": "aW", "a": 0.9, "lam": 1.0},
    {"name": "gaussian", "amp": 0.05, "width": 1.0},
    {"name": "aW_cutoff", "a": 1.2, "rho_c": 40.0, "taper": 10.0},
    {"name": "power_tail", "p": 3.0, "amp": 0.1},
    {"name": "bumps", "n_bumps": 3, "amp": 0.05, "spread": 4.0},
    {"name": "from_file", "path": "u0.txt"},
)
FULL_CONFIGS = tuple({**FULL_CONFIG, "family": family} for family in FULL_FAMILIES)
FULL_SWEEP = {**FULL_CONFIG, "sweep": [{"amp": 0.1}, {"name": "aW", "a": 0.9}]}
FULL_CHARACTER = {
    "dimension": 3,
    "spectrum": {"kind": "power", "k": 1.0, "amp": 2.0, "s_max": 40.0},
    "out_dir": "out",
}
#: a Dissipative d = 4 gaussian run long enough for a decay fit; its initial
#: spectrum has a closed form
DECAYFIT_GAUSSIAN = {
    "dimension": 4,
    "grid": {"R": 160.0, "n": 1047, "stretch": 1.004},
    "family": {"name": "gaussian", "amp": 0.05, "width": 1.0},
    "integrator": {"tol": 1e-6, "dt_init": 1e-6, "t_max": 500.0},
    "snapshots": {"factor": 1.2},
    "verdict": {"eps_dissip_rel": 1e-7},
}


@st.composite
def mutated_configs(draw, base=FULL_CONFIG) -> dict:
    """`base` with one value replaced by arbitrary JSON, or one key added."""
    tree = copy.deepcopy(base)
    objects = [tree] + [v for v in tree.values() if isinstance(v, dict)]
    objects += [v for entries in tree.values() if isinstance(entries, list)
                for v in entries if isinstance(v, dict)]
    node = draw(st.sampled_from(objects))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node)))
    else:
        key = draw(st.sampled_from(KEY_NAMES) | st.text(max_size=6))
    node[key] = draw(json_leaves | st.lists(json_leaves, max_size=3) | json_trees)
    return tree


def assert_parses_or_rejects(tree) -> None:
    """The parsers raise ConfigError or nothing; what they accept round-trips."""
    text = json.dumps(tree)
    for parse in (lambda text: [parse_config(text)], parse_sweep):
        try:
            configs = parse(text)
        except ConfigError:
            continue
        for cfg in configs:
            assert parse_config(cfg.to_json()).content_hash() == cfg.content_hash()
    try:
        parse_character(text)
    except ConfigError:
        pass


class TestParseConfig:
    def test_minimal_config_materializes_defaults(self):
        cfg = parse_config(run_config_text())
        assert cfg.dimension == 5
        assert cfg.snapshot_factor == 1.3  # default recorded explicitly
        assert cfg.dt_min == 1e-12
        assert cfg.params == {"a": 0.9}

    def test_round_trip_stability(self):
        cfg = parse_config(run_config_text())
        again = parse_config(cfg.to_json())
        assert again == cfg
        assert again.content_hash() == cfg.content_hash()

    def test_dimension_validation_names_the_field(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(run_config_text(dimension=2))

    def test_unknown_family_lists_registered(self):
        bad = json.loads(run_config_text())
        bad["family"] = {"name": "mystery"}
        with pytest.raises(ConfigError, match="aW"):
            parse_config(json.dumps(bad))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{not json")

    def test_invalid_tolerances(self):
        with pytest.raises(ConfigError):
            parse_config(run_config_text(integrator={"tol": -1.0}))

    def test_hash_ignores_output_location(self):
        a = parse_config(run_config_text())
        b = parse_config(run_config_text(out_dir="/somewhere/else"))
        assert a.content_hash() == b.content_hash()

    @given(tree=json_trees)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_trees_raise_only_config_error(self, tree):
        assert_parses_or_rejects(tree)

    @given(tree=st.sampled_from(FULL_CONFIGS).flatmap(mutated_configs))
    @settings(max_examples=300, deadline=None)
    def test_mutated_valid_config_raises_only_config_error(self, tree):
        for base in FULL_CONFIGS:  # each example changes one thing of a valid config
            parse_config(json.dumps(base))
        assert_parses_or_rejects(tree)

    @given(tree=mutated_configs(FULL_SWEEP))
    @settings(max_examples=200, deadline=None)
    def test_mutated_valid_sweep_raises_only_config_error(self, tree):
        assert len(parse_sweep(json.dumps(FULL_SWEEP))) == 2
        assert_parses_or_rejects(tree)

    @given(tree=mutated_configs(FULL_CHARACTER))
    @settings(max_examples=200, deadline=None)
    def test_mutated_valid_character_config_raises_only_config_error(self, tree):
        parse_character(json.dumps(FULL_CHARACTER))
        assert_parses_or_rejects(tree)

    @pytest.mark.parametrize("value", ["1e999", "Infinity", "true", "[1]", '{"x": 1}', "null"])
    def test_family_parameter_must_be_a_number_or_a_string(self, value):
        text = run_config_text().replace('"a": 0.9', f'"a": {value}')
        with pytest.raises(ConfigError, match=r"family\.a"):
            parse_config(text)

    def test_every_builder_parameter_has_a_reader(self):
        builders = [*families.FAMILIES.values(), *SPECTRUM_KINDS.values()]
        names = {p.name for build in builders for p in inspect.signature(build).parameters.values()
                 if p.kind is p.KEYWORD_ONLY}
        assert names == set(PARAMS)
        for family in FULL_FAMILIES:
            assert set(family) - {"name"} == set(
                inspect.signature(families.FAMILIES[family["name"]]).parameters) - {"grid", "seed"}

    def test_family_parameters_are_recorded_as_written(self):
        # no default is materialized, so a valid configuration keeps its hash
        cfg = parse_config(run_config_text(family={"name": "gaussian", "amp": 1}))
        assert cfg.family_params == (("amp", 1),)
        assert parse_config(run_config_text()).content_hash() == "30dc76ab30fb3243"
        assert parse_config(run_config_text(seed=3)).content_hash() == "930e157cd08e9475"

    def test_snapshot_ladder_past_the_cap_is_refused(self):
        # t_max 5 from first 1e-3: about log(5e3) / log(factor) rungs
        def parse(factor):
            return parse_config(run_config_text(integrator={"t_max": 5.0},
                                                snapshots={"factor": factor}))

        assert len(evolve.snapshot_ladder(parse(1.00086))) == 9909
        for factor in (1.00085, 1.0000000001):
            with pytest.raises(ConfigError, match=r"snapshots\.factor"):
                parse(factor)

    def test_the_cap_counts_distinct_times_exactly(self):
        # t_max on the rung first * factor^(MAX - 1), by the ladder's own
        # repeated product: MAX - 1 rungs below it, then t_max
        first, factor, cap = 1e-3, 1.0005, evolve.MAX_SNAPSHOTS
        rung = first
        for _ in range(cap - 1):
            rung *= factor

        def parse(t_max, forced=()):
            return parse_config(run_config_text(
                integrator={"t_max": t_max},
                snapshots={"first": first, "factor": factor, "forced_times": list(forced)}))

        assert len(evolve.snapshot_ladder(parse(rung))) == cap
        # a forced time on a rung, or at t_max, is no new time
        assert len(evolve.snapshot_ladder(parse(rung, [first * factor, rung]))) == cap
        # one more distinct time: a rung just below t_max, or a forced time
        for t_max, forced in ((math.nextafter(rung, math.inf), ()), (rung, [0.5 * first])):
            with pytest.raises(ConfigError, match=r"^snapshots\.factor: "):
                parse(t_max, forced)


class TestParseSweep:
    def test_without_entries_the_file_is_the_one_row(self):
        assert parse_sweep(run_config_text()) == [parse_config(run_config_text())]

    def test_entry_overrides_family_keys_including_name(self):
        tree = json.loads(run_config_text())
        tree["sweep"] = [{"a": 1.2}, {"name": "gaussian", "amp": 0.1}]
        first, second = parse_sweep(json.dumps(tree))
        assert (first.family, first.params) == ("aW", {"a": 1.2})
        # an entry that sets `name` replaces the family object
        assert (second.family, second.params) == ("gaussian", {"amp": 0.1})

    def test_entry_error_names_the_row_and_key(self):
        tree = json.loads(run_config_text())
        tree["sweep"] = [{"a": 0.5}, {"name": "mystery"}]
        with pytest.raises(ConfigError, match=r"sweep\[1\]: family\.name"):
            parse_sweep(json.dumps(tree))

    def test_cutoff_past_R_names_the_row_at_parse_time(self):
        tree = json.loads(run_config_text())
        tree["sweep"] = [{"a": 0.9}, {"a": 0.5}, {"name": "aW_cutoff", "rho_c": 700.0}]
        with pytest.raises(ConfigError, match=r"sweep\[2\]: family\.rho_c"):
            parse_sweep(json.dumps(tree))

    def test_cutoff_default_taper_counts(self):
        # the default taper rho_c/4 ends at 625 > R = 600
        with pytest.raises(ConfigError, match=r"family\.rho_c"):
            parse_config(run_config_text(family={"name": "aW_cutoff", "rho_c": 500.0}))
        assert families.cutoff_window(600.0) == (150.0, 37.5)
        assert families.cutoff_window(600.0, 400.0) == (400.0, 100.0)


class TestParseCharacter:
    def test_defaults_come_from_the_spectrum_builder(self):
        cfg = parse_character(json.dumps({"dimension": 4, "spectrum": {"kind": "power_gauss"}}))
        spec = cfg.spectrum()
        assert (spec.d, spec.kind, spec.k, spec.amp, spec.sig) == (4, "power_gauss", 0.0, 1.0, 1.0)
        spec = parse_character(json.dumps({"dimension": 4, "spectrum": {"kind": "power", "k": 2}})
                               ).spectrum()
        assert (spec.kind, spec.k, spec.amp, spec.s_max) == ("power", 2.0, 1.0, 50.0)

    def test_null_is_refused(self):
        with pytest.raises(ConfigError, match=r"spectrum\.k"):
            parse_character(json.dumps(character_tree(k=None)))

    def test_key_of_another_kind_is_refused(self):
        tree = {"dimension": 4, "spectrum": {"kind": "power_gauss", "s_max": 10.0}}
        with pytest.raises(ConfigError, match=r"spectrum\.s_max"):
            parse_character(json.dumps(tree))



@pytest.fixture()
def cfg_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestCommands:
    def test_run_writes_series_and_manifest(self, tmp_path, cfg_file):
        out = tmp_path / "out"
        path = cfg_file("run.json", run_config_text(out))
        assert cli.main(["run", "--config", path]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdict"]["kind"] == "Dissipative"
        assert "series.csv" in manifest["outputs"]
        for name in manifest["outputs"]:
            assert (out / name).exists()
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header.strip() == "t,quantity,value"
        # every file renamed into place: no temporary left behind
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json"])

    def test_determinism_byte_identical_csv(self, tmp_path, cfg_file):
        path = cfg_file("run.json", run_config_text())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", path, "--out", str(out1), "--seed", "7"]) == 0
        assert cli.main(["run", "--config", path, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_overwrite_protection(self, tmp_path, cfg_file):
        out = tmp_path / "out"
        path = cfg_file("run.json", run_config_text(out))
        assert cli.main(["run", "--config", path]) == 0
        assert cli.main(["run", "--config", path]) == 3
        assert cli.main(["run", "--config", path, "--overwrite"]) == 0

    def test_config_error_exit_code(self, tmp_path, cfg_file):
        path = cfg_file("bad.json", run_config_text(dimension=2))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 3

    def test_corrupt_checkpoint_exit_code(self, tmp_path, cfg_file):
        # a NaN-laden initial-data file is numerical corruption, category 4
        grid = grid_for_span(5, 600.0, 0.01, 0.004)
        u0 = families.build_initial("aW", {"a": 0.9}, grid)
        ckpt = tmp_path / "bad_ckpt.txt"
        families.save_checkpoint(ckpt, u0, 0.0)
        text = ckpt.read_text().splitlines()
        text[5] = text[5].split()[0] + " nan"
        ckpt.write_text("\n".join(text) + "\n")
        tree = json.loads(run_config_text(tmp_path / "out"))
        tree["family"] = {"name": "from_file", "path": str(ckpt)}
        path = cfg_file("corrupt.json", json.dumps(tree))
        assert cli.main(["run", "--config", path]) == 4
        assert not (tmp_path / "out").exists()

    def test_sweep_rows_and_exit(self, tmp_path, cfg_file):
        tree = json.loads(run_config_text(tmp_path / "sw"))
        tree["integrator"]["t_max"] = 1e6
        tree["sweep"] = [{"a": 0.9}, {"a": 1.2}]
        path = cfg_file("sweep.json", json.dumps(tree))
        assert cli.main(["sweep", "--config", path]) == 0
        rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 rows
        assert "Dissipative" in rows[1] and "Blowup" in rows[2]

    def test_sweep_workers_write_identical_csv(self, tmp_path, cfg_file, monkeypatch):
        # a pool of min(CPUs, rows) processes, none for one CPU, and the same CSV
        sizes = []

        class Recorder(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        tree = json.loads(run_config_text())
        tree["sweep"] = [{"a": 0.9}, {"a": 1.2}, {"a": 0.8}]
        path = cfg_file("sweep.json", json.dumps(tree))
        written = []
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(_extensions, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
            written.append((out / "sweep.csv").read_bytes())
        assert sizes == [2, 3, 3]
        assert written == [written[0]] * 4

    def test_sweep_has_no_workers_flag(self, tmp_path, cfg_file, monkeypatch):
        # the pool's size is the CPUs the process may use; `taskset` narrows it
        monkeypatch.setattr(experiments, "dichotomy_sweep", None)  # never reached
        path = cfg_file("sweep.json", run_config_text(tmp_path / "sw"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", path, "--workers", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "sw").exists()

    def test_config_error_in_a_worker_exits_2(self, tmp_path, cfg_file, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise ConfigError("family.a: refused while building the row")

        # the pool's processes start after the patch and inherit it
        monkeypatch.setattr(families, "build_initial", refuse)
        monkeypatch.setattr(_extensions, "cpu_count", lambda: 2)
        tree = json.loads(run_config_text(tmp_path / "sw"))
        tree["sweep"] = [{"a": 0.9}, {"a": 1.2}]
        path = cfg_file("sweep.json", json.dumps(tree))
        assert cli.main(["sweep", "--config", path]) == 2
        assert "config error: family.a: refused" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_sweep_bad_cutoff_row_exits_before_stepping(self, tmp_path, cfg_file, monkeypatch,
                                                        capsys):
        monkeypatch.setattr(experiments, "dichotomy_sweep", None)  # never reached
        tree = json.loads(run_config_text(tmp_path / "sw"))
        tree["sweep"] = [{"a": 0.9}, {"a": 0.5}, {"name": "aW_cutoff", "rho_c": 700.0}]
        path = cfg_file("sweep.json", json.dumps(tree))
        assert cli.main(["sweep", "--config", path]) == 2
        assert "sweep[2]: family.rho_c" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_sweep_entry_name_runs_that_family(self, tmp_path, cfg_file):
        tree = json.loads(run_config_text(tmp_path / "sw"))
        tree["sweep"] = [{"name": "gaussian"}]
        path = cfg_file("sweep.json", json.dumps(tree))
        assert cli.main(["sweep", "--config", path]) == 0
        with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["family"] == "gaussian"
        assert json.loads(row["params"]) == {}  # "name" is the family, not a parameter
        assert row["verdict"] == "Dissipative"

    def test_sweep_partial_exit_for_undecided_row(self, tmp_path, cfg_file):
        tree = json.loads(run_config_text(tmp_path / "sw"))
        tree["integrator"]["t_max"] = 10.0
        tree["sweep"] = [{"a": 1.001}]  # margin inside the threshold band
        path = cfg_file("sweep.json", json.dumps(tree))
        assert cli.main(["sweep", "--config", path]) == 1

    def test_sweep_inconsistent_row_exit(self, tmp_path, cfg_file, monkeypatch):
        # control-flow contract: a theorem-inconsistent row is exit category 5;
        # here a Dissipative branch-I row, read as a contradiction
        monkeypatch.setattr(experiments, "CONTRADICTIONS", {("I", evolve.DISSIPATIVE)})
        tree = json.loads(run_config_text(tmp_path / "sw"))
        tree["sweep"] = [{"a": 0.9}]
        path = cfg_file("sweep.json", json.dumps(tree))
        assert cli.main(["sweep", "--config", path]) == 5

    def test_character_command(self, tmp_path, cfg_file):
        tree = {
            "dimension": 3,
            "spectrum": {"kind": "power_gauss", "k": 0.0},
            "out_dir": str(tmp_path / "char"),
        }
        path = cfg_file("char.json", json.dumps(tree))
        assert cli.main(["character", "--config", path]) == 0
        row = (tmp_path / "char" / "character.csv").read_text().splitlines()[1].split(",")
        assert abs(float(row[2]) - 0.0) < 0.02  # r* of a gaussian spectrum

    @pytest.mark.parametrize("d", [106, 1300])
    def test_character_takes_the_run_dimension_range(self, tmp_path, cfg_file, capsys, d):
        # beyond 105 the sphere area leaves the double range (0 from 344 on,
        # an OverflowError from 1241 on): refused before any spectrum is built
        tree = {"dimension": d, "spectrum": {"kind": "power", "k": 1.0},
                "out_dir": str(tmp_path / "c")}
        assert cli.main(["character", "--config", cfg_file("char.json", json.dumps(tree))]) == 2
        assert "config error: dimension: must be in [3, 105]" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
        tree["dimension"] = 105
        assert parse_character(json.dumps(tree)).spectrum().d == 105

    def test_character_of_a_narrow_gaussian_is_at_the_lower_bound(self, tmp_path, cfg_file):
        # sig = 1e-5: every rho of the ladder holds all the mass, so r* = -d/2
        tree = {"dimension": 3, "spectrum": {"kind": "power_gauss", "sig": 1e-5},
                "out_dir": str(tmp_path / "char")}
        assert cli.main(["character", "--config", cfg_file("char.json", json.dumps(tree))]) == 0
        header, row = (tmp_path / "char" / "character.csv").read_text().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["r_star"]) == pytest.approx(-1.5, abs=1e-9)
        assert record["flag"] == "at_lower_bound"

    def test_character_fits_a_lambda_mass_below_the_double_range(self, tmp_path, cfg_file):
        # the Lambda spectrum's mass, about 3e-440, underflows; its logarithm does not
        tree = {"dimension": 3, "spectrum": {"kind": "power_gauss", "k": -1.4, "sig": 1e-200},
                "out_dir": str(tmp_path / "char")}
        assert cli.main(["character", "--config", cfg_file("char.json", json.dumps(tree))]) == 0
        header, row = (tmp_path / "char" / "character.csv").read_text().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["lambda_r_star"]) == pytest.approx(-1.5, abs=0.01)

    def test_character_does_not_depend_on_a_large_amplitude(self, tmp_path, cfg_file):
        # omega amp^2 leaves the double range at amp = 1e160; its logarithm does not
        records = []
        for amp in (1.0, 1e160):
            out = tmp_path / f"char_{amp:g}"
            tree = {"dimension": 3, "spectrum": {"kind": "power_gauss", "k": 0.0, "amp": amp},
                    "out_dir": str(out)}
            path = cfg_file(f"char_{amp:g}.json", json.dumps(tree))
            assert cli.main(["character", "--config", path]) == 0
            header, row = (out / "character.csv").read_text().splitlines()
            records.append(dict(zip(header.split(","), row.split(","))))
        unit, large = records
        for key in ("r_star", "lambda_r_star"):
            assert float(large[key]) == pytest.approx(float(unit[key]), abs=1e-9)
        assert large["flag"] == unit["flag"]

    def test_decayfit_command(self, tmp_path, cfg_file):
        tree = {**DECAYFIT_GAUSSIAN, "out_dir": str(tmp_path / "fit")}
        path = cfg_file("fit.json", json.dumps(tree))
        assert cli.main(["decayfit", "--config", path]) == 0
        rows = (tmp_path / "fit" / "decayfit.csv").read_text().splitlines()
        header = rows[0].split(",")
        record = dict(zip(header, rows[1].split(",")))
        assert record["law"] == "power"
        assert float(record["r2"]) >= 0.98

    def test_splitting_command(self, tmp_path, cfg_file):
        tree = {
            "dimension": 4,
            "grid": {"R": 160.0, "n": 1047, "stretch": 1.004},
            "family": {"name": "gaussian", "amp": 0.05, "width": 1.0},
            "integrator": {"tol": 1e-6, "dt_init": 1e-6, "t_max": 40.0},
            "snapshots": {"first": 0.05, "checkpoint_every": 2},
            "out_dir": str(tmp_path / "split"),
        }
        path = cfg_file("split.json", json.dumps(tree))
        assert cli.main(["splitting", "--config", path]) == 0
        manifest = json.loads((tmp_path / "split" / "manifest.json").read_text())
        assert manifest["splitting"]["c_tilde"] > 0
        rows = (tmp_path / "split" / "splitting.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) >= -1e-9 for r in rows)


#: id: (location the error names, object ("" for the top level), key, JSON text of the value)
BAD_INPUTS = {
    "R_inf": ("grid.R", "grid", "R", "1e999"),
    "forced_time_inf": ("snapshots.forced_times[0]", "snapshots", "forced_times", "[1e999]"),
    "forced_time_string": ("snapshots.forced_times[0]", "snapshots", "forced_times", '["x"]'),
    "checkpoint_every_zero": ("snapshots.checkpoint_every", "snapshots", "checkpoint_every", "0"),
    # a key that was retired is refused like any other unknown key
    "kq_streak_retired": ("verdict.kq_streak: unknown key", "verdict", "kq_streak", "5"),
    "q_string": ("diagnostics.q: unknown key", "diagnostics", "q", '"abc"'),
    "q_outside_window": ("diagnostics.q: unknown key", "diagnostics", "q", "100.0"),
    "blowup_factor_retired": ("verdict.blowup_factor: unknown key", "verdict", "blowup_factor",
                              "10.0"),
    "typo_in_section": ("integrator.tmax", "integrator", "tmax", "1e6"),
    "typo_at_top_level": ("seeed", "", "seeed", "1"),
    "family_param_inf": ("family.a", "family", "a", "1e999"),
    # a t = 0 sample would enter the decay fit and void its decade test
    "fit_t_lo_zero": ("config error: diagnostics.fit_t_lo: must be > 0", "diagnostics",
                      "fit_t_lo", "0"),
    "fit_t_lo_negative": ("config error: diagnostics.fit_t_lo: must be > 0", "diagnostics",
                          "fit_t_lo", "-5"),
}


@pytest.mark.parametrize("where, section, key, value", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_2_before_stepping(tmp_path, cfg_file, capsys, where, section, key, value):
    tree = json.loads(run_config_text())
    (tree.setdefault(section, {}) if section else tree)[key] = "VALUE"
    path = cfg_file("bad.json", json.dumps(tree).replace('"VALUE"', value))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()  # refused before the output directory, let alone a step


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_dimension_past_the_ground_state_exits_2_before_stepping(tmp_path, cfg_file, capsys,
                                                                  verb):
    # ||grad W||^2, and with it E(W), leaves the double range from d = 106 on
    tree = {"dimension": 150, "grid": {"R": 50.0, "n": 200, "stretch": 1.01},
            "family": {"name": "gaussian"}}
    if verb == "sweep":
        tree["sweep"] = [{"amp": 0.05}]
    out = tmp_path / "out"
    assert cli.main([verb, "--config", cfg_file("d.json", json.dumps(tree)),
                     "--out", str(out)]) == 2
    where = "sweep[0]: dimension" if verb == "sweep" else "dimension"
    assert capsys.readouterr().err.startswith(f"config error: {where}: must be in [3, 105]")
    assert not out.exists()


def test_unexpected_exception_exits_6(tmp_path, cfg_file, capsys, monkeypatch):
    def broken(cfg):
        raise KeyError("p")

    monkeypatch.setattr(experiments, "run_config", broken)
    path = cfg_file("run.json", run_config_text(tmp_path / "out"))
    assert cli.main(["run", "--config", path]) == 6
    assert capsys.readouterr().err == "internal error: KeyError: 'p'\n"
    assert not (tmp_path / "out").exists()



def test_splitting_with_too_few_checkpoints_exits_2_without_output(tmp_path, cfg_file, capsys):
    # at the threshold the run is Undecided at t = 0 and keeps one checkpoint
    path = cfg_file("split.json", run_config_text(family={"name": "aW", "a": 1.001},
                                                  integrator={"t_max": 10.0}))
    out = tmp_path / "out"
    assert cli.main(["splitting", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: splitting needs >= 3 field checkpoints\n")
    assert not out.exists()


#: imports the front end, runs each command line of the JSON object sys.argv[2]
#: in turn, and prints as JSON which modules of the list sys.argv[1] are loaded
#: after the import and after each command, keyed by the command's name; with
#: CPUs to use in sys.argv[3] (else null), `cpu_count` reports that many
FOOTPRINT_SCRIPT = """
import json, sys
from critheat import _extensions, cli
watched, commands, cpus = map(json.loads, sys.argv[1:])
if cpus is not None:
    _extensions.cpu_count = lambda: cpus
loaded = {"import": [m for m in watched if m in sys.modules]}
for name, argv in commands.items():
    cli.main(argv)
    loaded[name] = [m for m in watched if m in sys.modules]
print(json.dumps(loaded))
"""

#: modules that no verb uses, on a table or a closed form, with `run`'s
#: families other than `bumps` and a one-row or one-CPU `sweep`: any scipy
#: package (the compiled extensions they load are not packages), the sweep
#: pool, and numpy.random, which only the `bumps` family draws from
UNUSED = ("scipy", "scipy.linalg", "scipy.interpolate", "scipy.special", "scipy.integrate",
          "scipy.optimize", "multiprocessing", "concurrent.futures.process", "numpy.random")


def footprint(commands: dict, cpus=None, watched=UNUSED) -> dict:
    """What `FOOTPRINT_SCRIPT` prints for `commands`, name -> command line, and
    the modules `watched`, in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(watched), json.dumps(commands),
         json.dumps(cpus)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_module():
    # the package re-exports nothing: a user imports the module a name lives in
    script = ("import json, sys, critheat; print(json.dumps([m for m in sys.modules "
              "if m.partition('.')[0] == 'numpy' or m.startswith('critheat.')]))")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == []


def test_run_and_sweep_import_no_unused_scipy_module(tmp_path, cfg_file):
    path = cfg_file("run.json", run_config_text())
    s = np.geomspace(1e-4, 10.0, 300)
    spectral.save_spectrum(spectral.SpectrumFn(d=3, kind="tabulated", s_nodes=s,
                                               values=s * np.exp(-s * s)), tmp_path / "spec.txt")

    def character(**spectrum) -> str:
        return cfg_file(f"{spectrum['kind']}.json",
                        json.dumps({"dimension": 3, "spectrum": spectrum}))

    # name: (verb, configuration); the decayfit of `path` transforms its initial
    # field, the gaussian's has a closed form, as have the last two spectra
    commands = {
        "run": ("run", path), "sweep": ("sweep", path), "splitting": ("splitting", path),
        "decayfit": ("decayfit", path),
        "character": ("character", character(kind="file", path=str(tmp_path / "spec.txt"))),
        "decayfit_gaussian": ("decayfit", cfg_file("fit.json", json.dumps(DECAYFIT_GAUSSIAN))),
        "character_power_gauss": ("character", character(kind="power_gauss", k=0.0)),
        "character_power": ("character", character(kind="power", k=1.0)),
    }
    got = footprint({name: [verb, "--config", config, "--out", str(tmp_path / name)]
                     for name, (verb, config) in commands.items()})
    assert got == {"import": [], **{name: [] for name in commands}}
    for name, (verb, _config) in commands.items():
        output = "series" if verb == "run" else verb
        assert (tmp_path / name / f"{output}.csv").is_file()


def test_one_cpu_sweep_starts_no_pool(tmp_path, cfg_file):
    tree = json.loads(run_config_text())
    tree["sweep"] = [{"a": 0.9}, {"a": 1.2}, {"a": 0.8}]
    path = cfg_file("sweep.json", json.dumps(tree))
    got = footprint({"sweep": ["sweep", "--config", path, "--out", str(tmp_path / "sw")]}, cpus=1)
    assert got == {"import": [], "sweep": []}
    assert len((tmp_path / "sw" / "sweep.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("verb, tree", [("character", {"dimension": 3, "spectrum": {
    "kind": "power_gauss", "k": 0.0}}), ("decayfit", DECAYFIT_GAUSSIAN)])
def test_closed_forms_load_scipy_special(tmp_path, cfg_file, verb, tree):
    # a closed form's masses take gammainc and gammaln from scipy.special's
    # compiled `_special_ufuncs`, loaded by file on first use: the
    # scipy.special package, like every other module in UNUSED, stays unloaded
    config = cfg_file("closed.json", json.dumps(tree))
    got = footprint({verb: [verb, "--config", config, "--out", str(tmp_path / verb)]},
                    watched=UNUSED + ("scipy.special._special_ufuncs",))
    assert got == {"import": [], verb: ["scipy.special._special_ufuncs"]}
    assert (tmp_path / verb / f"{verb}.csv").is_file()


def character_tree(**spectrum) -> dict:
    return {"dimension": 3, "spectrum": {"kind": "power_gauss", **spectrum}}


#: id: (verb, configuration tree with "VALUE" standing for 1e999, what the error names)
PROBES = {
    "sweep_entry_inf": ("sweep", {**json.loads(run_config_text()), "sweep": [{"a": "VALUE"}]},
                        "sweep[0]: family.a"),
    "family_param_inf": ("sweep", json.loads(run_config_text(family={"name": "aW", "a": "VALUE"})),
                         "family.a"),
    "q_outside_window": ("run", json.loads(run_config_text(diagnostics={"q": 100})),
                         "diagnostics.q: unknown key"),
    "character_k_list": ("character", character_tree(k=[1]), "spectrum.k"),
    "character_power_without_k": ("character", character_tree(kind="power"), "spectrum.k"),
    "character_file_without_path": ("character", character_tree(kind="file"), "spectrum.path"),
    "character_typo": ("character", character_tree(kk=1.0), "spectrum.kk"),
    "character_sweep_key": ("character", {**character_tree(), "sweep": 3}, "sweep"),
}


@pytest.mark.parametrize("verb, tree, where", PROBES.values(), ids=PROBES)
def test_probe_exits_2_without_output(tmp_path, cfg_file, capsys, verb, tree, where):
    path = cfg_file("bad.json", json.dumps(tree).replace('"VALUE"', "1e999"))
    out = tmp_path / "out"
    assert cli.main([verb, "--config", path, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


#: id: (the run's family object, what the error names)
FAMILY_PROBES = {
    "typo": ({"name": "gaussian", "widht": 2.0}, "family.widht"),
    "lam_negative": ({"name": "aW", "lam": -1.0}, "family.lam"),
    "power_tail_without_p": ({"name": "power_tail"}, "family.p"),
    "from_file_without_path": ({"name": "from_file"}, "family.path"),
    "width_zero": ({"name": "gaussian", "width": 0}, "family.width"),
    "a_string": ({"name": "aW", "a": "big"}, "family.a"),
    "n_bumps_string": ({"name": "bumps", "n_bumps": "x"}, "family.n_bumps"),
    "rho_c_past_R": ({"name": "aW_cutoff", "rho_c": 700.0}, "family.rho_c"),
}


@pytest.mark.parametrize("family, where", FAMILY_PROBES.values(), ids=FAMILY_PROBES)
def test_family_probe_exits_2_without_output(tmp_path, cfg_file, capsys, family, where):
    path = cfg_file("bad.json", run_config_text(family=family))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


def test_overwrite_removes_only_the_earlier_manifests_outputs(tmp_path, cfg_file):
    tree = {"dimension": 5, "grid": {"R": 50.0, "n": 200}, "family": {"name": "gaussian"},
            "integrator": {"t_max": 10.0}, "snapshots": {"checkpoint_every": 1}}
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_file("a.json", json.dumps(tree)),
                     "--out", str(out)]) == 0
    before = json.loads((out / "manifest.json").read_text())["outputs"]
    (out / "notes.txt").write_text("not an output\n")
    tree["snapshots"]["checkpoint_every"] = 8
    assert cli.main(["run", "--config", cfg_file("b.json", json.dumps(tree)),
                     "--out", str(out), "--overwrite"]) == 0
    after = json.loads((out / "manifest.json").read_text())["outputs"]
    assert len(after) < len(before)
    assert sorted(p.name for p in out.iterdir()) == sorted(after + ["manifest.json", "notes.txt"])


def test_character_file_spectrum_must_match_the_dimension(tmp_path, cfg_file, capsys):
    spectral.save_spectrum(spectral.gaussian_spectrum(5), tmp_path / "spec.txt")
    tree = {"dimension": 3, "spectrum": {"kind": "file", "path": str(tmp_path / "spec.txt")}}
    out = tmp_path / "out"
    assert cli.main(["character", "--config", cfg_file("c.json", json.dumps(tree)),
                     "--out", str(out)]) == 2
    assert "dimension" in capsys.readouterr().err
    assert not out.exists()
    tree["dimension"] = 5
    assert cli.main(["character", "--config", cfg_file("c.json", json.dumps(tree)),
                     "--out", str(out)]) == 0


def _replace_data_line(text, new_line):
    """`text` with its fifth data row replaced by `new_line(row)`."""
    lines = text.splitlines()
    i = [k for k, line in enumerate(lines) if not line.startswith("#")][4]
    lines[i] = new_line(lines[i])
    return "\n".join(lines) + "\n"


#: id: a saved spectrum file made bad, what the error names besides the file
BAD_SPECTRUM_FILES = {
    "no_data_rows": (lambda text: "".join(ln for ln in text.splitlines(True) if ln[0] == "#"),
                     "no data rows"),
    "three_columns": (lambda text: _replace_data_line(text, lambda row: row + " 2.0"),
                      "line 8: expected"),
    "dimension_not_an_integer": (lambda text: text.replace("d=3", "d=three"), "line 2: expected"),
    "nan_value": (lambda text: _replace_data_line(text, lambda row: row.split()[0] + " nan"),
                  "finite"),
    "nan_node": (lambda text: _replace_data_line(text, lambda row: "nan " + row.split()[1]),
                 "finite"),
    "no_first_line": (lambda text: text.split("\n", 1)[1], "first line is not '# spectrum v1'"),
}


@pytest.mark.parametrize("spoil, what", BAD_SPECTRUM_FILES.values(), ids=BAD_SPECTRUM_FILES)
def test_bad_spectrum_file_exits_2_naming_it(tmp_path, cfg_file, capsys, spoil, what):
    path = tmp_path / "spec.txt"
    spectral.save_spectrum(spectral.gaussian_spectrum(3), path)
    path.write_text(spoil(path.read_text()))
    tree = {"dimension": 3, "spectrum": {"kind": "file", "path": str(path)}}
    out = tmp_path / "out"
    assert cli.main(["character", "--config", cfg_file("c.json", json.dumps(tree)),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and what in err
    assert not out.exists()


#: id: a saved d=5 checkpoint made bad, what the error names besides the file
BAD_CHECKPOINT_FILES = {
    "no_d_header": (lambda text: text.replace("# d=5 ", "# ", 1), "missing d="),
    "no_data_rows": (lambda text: "".join(ln for ln in text.splitlines(True) if ln[0] == "#"),
                     "no data rows"),
    "three_columns": (lambda text: _replace_data_line(text, lambda row: row + " 2.0"),
                      "line 7: expected"),
    "text_value": (lambda text: _replace_data_line(text, lambda row: row.split()[0] + " big"),
                   "line 7: expected"),
    "dimension_not_an_integer": (lambda text: text.replace("d=5", "d=five", 1),
                                 "line 2: expected"),
    "truncated": (lambda text: "\n".join(text.splitlines()[:402]) + "\n",
                  "does not match its 400 rows"),
    "dimension_of_another_run": (lambda text: text.replace("d=5", "d=3", 1),
                                 "checkpoint dimension 3 does not match run 5"),
}


@pytest.mark.parametrize("spoil, what", BAD_CHECKPOINT_FILES.values(), ids=BAD_CHECKPOINT_FILES)
def test_bad_checkpoint_file_exits_2_naming_it(tmp_path, cfg_file, capsys, spoil, what):
    grid = grid_for_span(5, 600.0, 0.01, 0.004)
    path = tmp_path / "ck.txt"
    families.save_checkpoint(path, families.build_initial("aW", {"a": 0.9}, grid), 0.0)
    path.write_text(spoil(path.read_text()))
    tree = json.loads(run_config_text(tmp_path / "out"))
    tree["family"] = {"name": "from_file", "path": str(path)}
    assert cli.main(["run", "--config", cfg_file("c.json", json.dumps(tree))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and what in err
    assert not (tmp_path / "out").exists()


def test_seed_flag_only_where_the_configuration_has_a_seed(tmp_path, cfg_file):
    path = cfg_file("c.json", json.dumps(character_tree()))
    with pytest.raises(SystemExit) as exc:
        cli.main(["character", "--config", path, "--out", str(tmp_path / "out"), "--seed", "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", [{"name": "aW", "a": 0.9}, {"name": "bumps"}])
@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_seed_flag_obeys_the_seed_rule(tmp_path, cfg_file, monkeypatch, capsys, family, verb):
    monkeypatch.setattr(evolve, "run_flow", None)  # never reached
    path = cfg_file("c.json", run_config_text(tmp_path / "out", family=family))
    assert cli.main([verb, "--config", path, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed: must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["decayfit", "splitting"])
def test_corrupted_run_leaves_no_output(tmp_path, cfg_file, monkeypatch, verb):
    corrupted = evolve.Trajectory(grid=None, verdict=evolve.Verdict(evolve.UNDECIDED, 0.0,
                                                                    {"reason": "corruption"}))
    monkeypatch.setattr(experiments, "run_config", lambda cfg: corrupted)
    path = cfg_file("run.json", run_config_text(tmp_path / "out"))
    assert cli.main([verb, "--config", path]) == 4
    assert not (tmp_path / "out").exists()


#: 1.5 W in d = 3 whose step collapses at t = 0.0202 with an amplitude of 5e49,
#: below amp_cap: the snapshot taken there has a non-finite integral
CORRUPT_AT_COLLAPSE = {
    "dimension": 3, "grid": {"R": 20.0, "n": 120, "stretch": 1.02},
    "family": {"name": "aW", "a": 1.5},
    "integrator": {"t_max": 1.0, "dt_min": 1e-200}, "verdict": {"amp_cap": 1e300}}


def test_corrupt_snapshot_at_collapse_ends_the_run(tmp_path, cfg_file):
    path = cfg_file("run.json", json.dumps(CORRUPT_AT_COLLAPSE))
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["verdict"]["kind"] == "Undecided"
    assert manifest["verdict"]["detail"] == {"reason": "corruption"}
    assert (tmp_path / "out" / "series.csv").is_file()


def test_corrupt_sweep_row_keeps_the_other_rows(tmp_path, cfg_file):
    tree = {**CORRUPT_AT_COLLAPSE, "sweep": [{"a": 0.5}, {"a": 1.5}]}
    path = cfg_file("sweep.json", json.dumps(tree))
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 1
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [json.loads(row["params"]) for row in rows] == [{"a": 0.5}, {"a": 1.5}]
    assert rows[1]["verdict"] == "Undecided"


def test_splitting_without_a_constant_writes_null(tmp_path, cfg_file, monkeypatch):
    traj = rising_trajectory()
    traj.verdict = evolve.Verdict(evolve.DISSIPATIVE, 4.0, {})
    monkeypatch.setattr(experiments, "run_config", lambda cfg: traj)
    path = cfg_file("run.json", run_config_text(tmp_path / "out"))
    assert cli.main(["splitting", "--config", path]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["splitting"]["c_tilde"] is None
    margins = (tmp_path / "out" / "splitting.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[1]) for line in margins] == [-1.0, -1.0, -1.0]


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        grid = grid_for_span(4, 50.0, 0.05, 0.01)
        u = families.build_initial("gaussian", {"amp": 0.3, "width": 2.0}, grid)
        path = tmp_path / "ck.txt"
        families.save_checkpoint(path, u, 1.25)
        back, t = families.load_checkpoint(path)
        assert t == 1.25
        assert back.grid.d == 4
        assert np.array_equal(back.values, u.values)
        assert np.array_equal(back.grid.nodes, grid.nodes)

    def test_nan_detected_on_load(self, tmp_path):
        grid = grid_for_span(4, 50.0, 0.05, 0.01)
        u = families.build_initial("gaussian", {"amp": 0.3, "width": 2.0}, grid)
        path = tmp_path / "ck.txt"
        families.save_checkpoint(path, u, 0.0)
        text = path.read_text().replace(repr(float(u.values[3])), "inf", 1)
        path.write_text(text)
        with pytest.raises(CorruptionError):
            families.load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n1 2\n")
        with pytest.raises(ValueError):
            families.load_checkpoint(path)


def test_character_divergent_file_spectrum_exits_2(tmp_path, cfg_file, capsys):
    # s^-2 in d=3: the power law below the table's first node has infinite
    # mass, as the closed-form s^-2 spectrum does
    s = np.geomspace(1e-3, 1.0, 50)
    table = spectral.SpectrumFn(d=3, kind="tabulated", s_nodes=s, values=s**-2.0)
    spectral.save_spectrum(table, tmp_path / "spec.txt")
    tree = {"dimension": 3, "spectrum": {"kind": "file", "path": str(tmp_path / "spec.txt")}}
    out = tmp_path / "out"
    assert cli.main(["character", "--config", cfg_file("c.json", json.dumps(tree)),
                     "--out", str(out)]) == 2
    assert "diverges" in capsys.readouterr().err
    assert not out.exists()


def run_cli(argv, timeout=60):
    """`critheat` in a fresh interpreter on the sources under test."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "critheat.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=timeout)


#: id: (overrides of the criterion-11 run, the key its error names)
UNRUNNABLE = {
    "R_overflows": ({"grid": {"R": 1e300, "n": 200}}, "grid.R"),
    "R_underflows": ({"grid": {"R": 1e-100, "n": 200}}, "grid.R"),
    # 1.2^4999 overflows, so the nodes collapse; 5000 doubles fit in any memory
    "stretch_overflows": ({"grid": {"R": 100.0, "n": 5000, "stretch": 1.2}}, "grid.R"),
    # 711 PiB of nodes: refused at once whatever the host's overcommit policy,
    # where a size near its memory could be mapped and then touched
    "nodes_exceed_memory": ({"grid": {"R": 600.0, "n": 10**17}}, "grid.n"),
    "nodes_exceed_numpy": ({"grid": {"R": 600.0, "n": 2**62}}, "grid.n"),
    # one rung past the cap is still a ladder that could be stepped through
    "ladder_past_the_cap": ({"integrator": {"t_max": 5.0}, "snapshots": {"factor": 1.00085}},
                            "snapshots.factor"),
    # the repeated product stalls at the smallest subnormal
    "rungs_stop_growing": ({"snapshots": {"first": 5e-324}}, "snapshots.first"),
    # the step from t = 0, or from the rung at 1e-3, to the next time is below dt_min
    "first_time_within_dt_min": ({"snapshots": {"first": 1e-13}}, "integrator.dt_min"),
    "forced_time_within_dt_min": ({"snapshots": {"forced_times": [0.0010000000000001]}},
                                  "integrator.dt_min"),
    # the first step would collapse before its first attempt
    "dt_init_below_dt_min": ({"integrator": {"t_max": 1e6, "dt_init": 1e-13}},
                             "integrator.dt_init"),
    "dt_min_above_dt_init": ({"integrator": {"t_max": 1e6, "dt_min": 1e-4}},
                             "integrator.dt_init"),
}


@pytest.mark.parametrize("overrides, where", UNRUNNABLE.values(), ids=UNRUNNABLE)
def test_unrunnable_config_exits_2_quietly(tmp_path, cfg_file, overrides, where):
    out = tmp_path / "out"
    proc = run_cli(["run", "--config", cfg_file("run.json", run_config_text(**overrides)),
                    "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {where}: ")
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# each range reaches a little past the one `KEYS` accepts
@given(d=st.sampled_from(range(2, 13)), r_max=log_uniform(1e-300, 1e300),
       n=st.integers(15, 5000), stretch=st.floats(0.999, 1.201),
       first=log_uniform(1e-300, 1e300),
       factor=st.floats(0.9, 3.0) | st.floats(-16, 0).map(lambda e: 1.0 + 10.0**e),
       t_max=log_uniform(1e-300, 1e300),
       forced=st.lists(log_uniform(1e-300, 1e300), max_size=3))
@settings(max_examples=500, deadline=None)
def test_dry_build_refuses_or_has_finite_operators(d, r_max, n, stretch, first, factor, t_max,
                                                    forced):
    # parse, grid and operators only: no field is built and nothing is stepped
    text = run_config_text(dimension=d, grid={"R": r_max, "n": n, "stretch": stretch},
                           integrator={"t_max": t_max},
                           snapshots={"first": first, "factor": factor, "forced_times": forced})
    try:
        cfg = parse_config(text)
        grid = cfg.make_grid()
    except ConfigError:
        return
    problem = evolve.HeatProblem(grid, cfg.nonlinearity)
    for weights in (problem.volumes, grid.face_weights, problem.k_diag):
        assert np.all((weights > 0.0) & np.isfinite(weights))
    ladder = evolve.snapshot_ladder(cfg)
    assert len(ladder) <= evolve.MAX_SNAPSHOTS
    assert all(t - before >= cfg.dt_min for before, t in zip([0.0, *ladder], ladder))
