"""Key-value config files: parsing, typing, merging, validation."""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

import innershape
from innershape.cli import EXIT_OK, EXIT_USAGE, main
from innershape.config import ConfigError, RunConfig, build_config, parse_file

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
            "out_dir = runs\n",
        )
        assert parse_file(path) == {"alpha": "0.7", "nx": "12", "out_dir": "runs"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_file(tmp_path / "absent.cfg")

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"alpha = 0.7\n\xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_file(path)
        assert main(["fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                     "--config", str(path)]) == EXIT_USAGE
        assert "error: config: cannot read config" in capsys.readouterr().err

    def test_line_without_equals_reports_line_number(self, tmp_path):
        path = write(tmp_path, "alpha = 0.7\nbogus line\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_file(path)

    def test_value_may_contain_equals(self, tmp_path):
        path = write(tmp_path, "out_dir = a=b\n")
        assert parse_file(path) == {"out_dir": "a=b"}

    def test_key_set_twice_reports_both_lines(self, tmp_path):
        path = write(tmp_path, "nx = 4\n# comment\nnx = 6\n")
        with pytest.raises(ConfigError, match=r":3: key 'nx' already set on line 1"):
            parse_file(path)
        assert main(["fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                     "--config", str(path)]) == EXIT_USAGE
        assert not (tmp_path / "m.mesh").exists()


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg == RunConfig()

    def test_file_values_typed(self, tmp_path):
        path = write(
            tmp_path,
            "alpha = 0.9\nnx = 24\ntol_match = none\n"
            "out_dir = runs\n",
        )
        cfg = build_config(parse_file(path))
        assert cfg.alpha == 0.9
        assert cfg.nx == 24
        assert cfg.tol_match is None
        assert cfg.out_dir == "runs"

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            build_config({"nx": "sixteen"})

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError, match="number"):
            build_config({"alpha": "big"})

    def test_none_only_for_optional_keys(self):
        for text in ("none", "None"):
            assert build_config({"tol_match": text}).tol_match is None
        for key in ("alpha", "nx", "out_dir"):
            with pytest.raises(ConfigError, match=key):
                build_config({key: "none"})

    def test_experiment_counts_validated(self):
        for key in ("max_outer", "directions"):
            with pytest.raises(ConfigError, match=key):
                build_config({key: "0"})

    def test_negative_seed_rejected(self):
        assert build_config({"seed": "0"}).seed == 0
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            build_config({"seed": "-1"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"alhpa": "0.5"})

    def test_validation_failure_becomes_config_error(self):
        with pytest.raises(ConfigError, match="sigma"):
            build_config({"sigma": "-1"})

    def test_every_field_has_a_type_the_converter_reads(self):
        # an `int | None` key would otherwise be read as text
        for f in fields(RunConfig):
            assert f.type in (float, int, str, float | None), f.name

    def test_empty_out_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="out_dir must not be empty"):
            build_config({"out_dir": ""})
        base = str(tmp_path / "base.mesh")
        assert main(["fixture", "--shape", "plane", "--nx", "2", "--ny", "2",
                     "--out", base]) == EXIT_OK
        assert main(["gradcheck", "--initial", base, "--out-dir", ""]) == EXIT_USAGE

    def test_init_mode_validated(self, tmp_path):
        # every registration starts from rest: `init` is no key and no flag
        with pytest.raises(ConfigError, match="unknown config key 'init'"):
            build_config(parse_file(write(tmp_path, "init = l2diff\n")))
        assert main(["fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                     "--init", "l2diff"]) == EXIT_USAGE


class TestValidate:
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_number_set_in_code_rejected(self, key):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=key):
                RunConfig(**{key: value}).validate()

    @pytest.mark.parametrize("setting, message", [
        ({"ny": 0}, "at least 1x1, got 16x0"),
        ({"nx": -5}, "at least 1x1, got -5x16"),
        ({"nx": 65535, "ny": 65535}, "node count for 65535x65535 exceeds the 32-bit index range"),
    ], ids=["ny-zero", "nx-negative", "beyond-index-range"])
    def test_grid_the_mesh_keys_cannot_build_rejected(self, setting, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**setting).validate()


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
