"""Key-value run configuration shared by all CLI commands.

Config files are plain text: one ``key = value`` per line, ``#`` comments,
blank lines ignored.  Settings are converted on one path: ``build_config``
types a mapping of raw ``key -> text`` strings, so the CLI puts each flag's
text in place of the file's before anything is converted.  A value is an
int, a float, a str or, for ``tol_match``, a float or None.
Unknown keys, and a key set twice in one file, are rejected so typos fail
loudly.
"""

import math
from dataclasses import dataclass, fields

from .errors import InnerShapeError, MeshResolutionError
from .mesh import Topology, _unique_grid
from .registration import RegistrationConfig


class ConfigError(InnerShapeError):
    """Bad key, value or file in a run configuration."""


@dataclass
class RunConfig(RegistrationConfig):
    """Registration parameters plus metric, mesh, fixture and experiment settings."""

    # metric
    alpha: float = 0.6
    # mesh
    nx: int = 16
    ny: int = 16
    # fixture geometry
    radius: float = 0.25
    height: float = 1.0
    bend_deg: float = 0.0
    ripples: int = 0
    ripple_amplitude: float = 0.0
    major_radius: float = 0.35
    minor_radius: float = 0.15
    asymmetry: float = 0.3
    # experiment controls
    mean_tol: float = 1e-3
    max_outer: int = 20
    directions: int = 10
    fd_tol: float = 1e-5
    seed: int = 0
    # output
    out_dir: str = "out"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        super().validate()
        # every grid needs what the plane's does; fixture builds its shape's own
        try:
            _unique_grid(Topology.PLANE, self.nx, self.ny)
        except MeshResolutionError as exc:
            raise ValueError(str(exc)) from None
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.mean_tol < 0:
            raise ValueError(f"mean_tol must be >= 0, got {self.mean_tol}")
        if self.fd_tol < 0:
            raise ValueError(f"fd_tol must be >= 0, got {self.fd_tol}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.directions < 1:
            raise ValueError(f"directions must be >= 1, got {self.directions}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.out_dir:
            raise ValueError("out_dir must not be empty")


def _convert(name: str, text: str) -> object:
    """Typed value of config key ``name``; ``none`` only for `X | None` keys."""
    target_type, optional = _field_types()[name]
    text = text.strip()
    if text.lower() == "none":
        if optional:
            return None
        raise ConfigError(f"{name}: a value is required, got {text!r}")
    if target_type is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {text!r}") from None
    if target_type is float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{name}: expected a finite number, got {text!r}")
        return value
    return text


def _field_types() -> dict:
    """Each key's value type and whether it is ``float | None``."""
    return {f.name: (float, True) if f.type == float | None else (f.type, False)
            for f in fields(RunConfig)}


def parse_file(path) -> dict:
    """Read a key-value config file into a raw string mapping; a key may appear once."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = {}
    first_line = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line "
                              f"{first_line[key]}")
        raw[key] = value
        first_line[key] = lineno
    return raw


def build_config(values: dict | None = None) -> RunConfig:
    """Defaults overlaid with raw ``key -> text`` values, typed and validated.

    Each text is converted to its key's type; ``none`` gives None, and only
    for a key typed ``X | None``.
    """
    known = _field_types()
    cfg = RunConfig()
    for key, text in (values or {}).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _convert(key, text))
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
