"""Key-value config files: parsing, typing, merging, validation."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

import innershape
from innershape.cli import EXIT_USAGE, main
from innershape.config import ConfigError, RunConfig, as_dict, build_config, parse_file

FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type in (float, float | None)]


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestParseFile:
    def test_basic_keys_comments_and_blanks(self, tmp_path):
        path = write(
            tmp_path,
            "# registration block\n"
            "alpha = 0.7\n"
            "\n"
            "nx = 12   # inline comment\n"
            "topology = torus\n",
        )
        assert parse_file(path) == {"alpha": "0.7", "nx": "12", "topology": "torus"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_file(tmp_path / "absent.cfg")

    def test_line_without_equals_reports_line_number(self, tmp_path):
        path = write(tmp_path, "alpha = 0.7\nbogus line\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_file(path)

    def test_value_may_contain_equals(self, tmp_path):
        path = write(tmp_path, "out_dir = a=b\n")
        assert parse_file(path) == {"out_dir": "a=b"}


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg == RunConfig()

    def test_file_values_typed(self, tmp_path):
        path = write(
            tmp_path,
            "alpha = 0.9\nnx = 24\nexport_frames = yes\ntol_match = none\n"
            "topology = plane\n",
        )
        cfg = build_config(parse_file(path))
        assert cfg.alpha == 0.9
        assert cfg.nx == 24
        assert cfg.export_frames is True
        assert cfg.tol_match is None
        assert cfg.topology == "plane"

    def test_bool_words(self, tmp_path):
        for word, want in [("true", True), ("ON", True), ("0", False), ("No", False)]:
            cfg = build_config({"export_frames": word})
            assert cfg.export_frames is want

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            build_config({"export_frames": "maybe"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            build_config({"nx": "sixteen"})

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError, match="number"):
            build_config({"alpha": "big"})

    def test_none_only_for_optional_keys(self):
        cfg = build_config({"tol_match": "none", "eps_reg": "None"})
        assert cfg.tol_match is None and cfg.eps_reg is None
        for key in ("alpha", "nx", "export_frames", "topology"):
            with pytest.raises(ConfigError, match=key):
                build_config({key: "none"})

    def test_experiment_counts_validated(self):
        for key in ("max_outer", "directions"):
            with pytest.raises(ConfigError, match=key):
                build_config({key: "0"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"alhpa": "0.5"})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config(None, {"alhpa": 0.5})

    def test_override_beats_file_value(self):
        cfg = build_config({"alpha": "0.9"}, {"alpha": 0.3})
        assert cfg.alpha == 0.3

    def test_none_override_skipped(self):
        cfg = build_config({"alpha": "0.9"}, {"alpha": None})
        assert cfg.alpha == 0.9

    def test_validation_failure_becomes_config_error(self):
        with pytest.raises(ConfigError, match="sigma"):
            build_config({"sigma": "-1"})

    def test_init_mode_validated(self, tmp_path):
        # every registration starts from rest: `init` is no key and no flag
        with pytest.raises(ConfigError, match="unknown config key 'init'"):
            build_config(parse_file(write(tmp_path, "init = l2diff\n")))
        assert main(["meshgen", "--out", str(tmp_path / "m.mesh"),
                     "--init", "l2diff"]) == EXIT_USAGE


class TestValidate:
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_number_set_in_code_rejected(self, key):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=key):
                RunConfig(**{key: value}).validate()


class TestAsDict:
    def test_round_trip_keys(self):
        cfg = RunConfig(alpha=0.8, nx=4)
        d = as_dict(cfg)
        assert d["alpha"] == 0.8
        assert d["nx"] == 4
        assert set(d) > {"sigma", "n_steps", "topology", "out_dir", "seed"}

    def test_values_are_plain(self):
        for value in as_dict(RunConfig()).values():
            assert value is None or isinstance(value, (bool, int, float, str))


def test_readme_configuration_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in section.splitlines() if line.startswith("| ")]
    # drop the header row and the value lists in parentheses
    keys = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", " ".join(rows[1:])))
    names = {f.name for f in fields(RunConfig)}
    assert sorted(set(keys) - names) == []  # a listed key that is no RunConfig field
    assert sorted(names - set(keys)) == []  # a RunConfig field the table leaves out
    assert len(keys) == len(names)  # and none listed twice


def test_readme_and_gradient_note_cite_only_exported_names():
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    table = readme.split("\nKey entry points:\n", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    cells = " ".join(line.split("|")[2] for line in table.splitlines())
    # notes in parentheses may cite arguments rather than entry points
    names = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cells)))
    cited = set(re.findall(r"\bkinetic_\w+", (root / "docs" / "gradient.md").read_text()))
    assert names and cited
    assert sorted(names - set(innershape.__all__)) == []
    assert sorted(cited - set(innershape.__all__)) == []
