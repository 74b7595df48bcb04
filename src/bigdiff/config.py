"""Flat INI configuration with strict key checking and full defaults.

Every key has a documented default (see DEFAULTS and the README table) and
is read by at least one command; a config file only overrides what it names.
Unknown sections or keys are rejected so typos cannot silently fall back to
defaults.  Values are coerced by the type of their default; empty values
mean "use the default", and every number must be finite.  The resolved
configuration can be written back out and re-parsed to reproduce a run
exactly.
"""

from __future__ import annotations

import configparser
import copy
import inspect

import numpy as np

from .dynamics import NONLINEARITIES, Nonlinearity
from .spectral import CosineBasis, DiffusionSpec, DomainSpec, build_basis, diffusion

__all__ = ["ConfigError", "Config", "DEFAULTS", "load_config", "default_config"]


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


_SWEEP_DEFAULT = tuple(float(2**j) for j in range(9))

DEFAULTS = {
    "domain": {
        "components": 1,        # system size n
        "modes": 128,           # cosine modes K
    },
    "diffusion": {
        "eps": (1.0,),          # diagonal diffusion coefficients
        "m0": None,             # lower bound; empty -> min(eps)
    },
    "sweep": {
        "d_eps": _SWEEP_DEFAULT,  # geometric sweep values for rate studies
    },
    "nonlinearity": {
        "name": "tanh",         # tanh | saturated_cubic | coupled_tanh | zero | linear
        "beta": 2.0,            # tanh slope
        "gamma": 2.0,           # saturated_cubic scale
        "a": 1.2,               # coupled_tanh diagonal
        "c": 0.6,               # coupled_tanh coupling / linear slope
    },
    "semigroup": {
        "m_horizon": 10.0,      # horizon for the operational constants M, mu
    },
    "attractor": {
        "n_tails": 24,
        "w_amplitude": 0.3,     # L2 size of the mean-free tail perturbations
        "t_trans": 1.0,
        "sample_dt": 0.01,      # arc and breadcrumb sampling interval
        "arc_dt": 5e-4,
        "longtime_seeds": 2000,
        "longtime_box": None,   # empty -> bound(F) + 1
        "t_burn": None,         # empty -> auto from the slowest stable rate
        "t_end": None,          # empty -> t_burn + 16
        "dedup_cell": 1.25e-3,
        "deflection_t_trans": 10.0,
    },
    "manifold": {
        "grid_points": 21,
        "iterations": 4,
        "seed_amplitude": 0.1,
    },
    "tolerances": {
        "slope": 0.02,          # |fitted slope + 1/2| for rate verdicts
        "attained": 1e-12,      # |gap * sqrt(d lam1 + 1) - 1|
        "decay_rel": 1e-3,      # relative rate error, linear decay case
        "seminorm_const": 1e-10,
        "hausdorff_slope": -0.4,
    },
    "run": {
        "out_root": "runs",
        "seed": 1234,
        "quiet": False,
    },
}

# keys whose default is None still need a concrete type for coercion
_OPTIONAL_TYPES = {
    ("diffusion", "m0"): float,
    ("attractor", "longtime_box"): float,
    ("attractor", "t_burn"): float,
    ("attractor", "t_end"): float,
}


def _coerce(section: str, key: str, raw: str):
    raw = raw.strip()
    default = DEFAULTS[section][key]
    if raw == "":
        return copy.deepcopy(default)
    kind = type(default) if default is not None else _OPTIONAL_TYPES[(section, key)]
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind is int:
            return int(raw)
        if kind in (float, tuple):
            values = tuple(float(part) for part in raw.split(",") if part.strip())
            if not np.all(np.isfinite(values)):
                raise ValueError(f"expected finite numbers, got {raw!r}")
            return values if kind is tuple else float(raw)
        return raw
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: {err}") from None


class Config:
    """Resolved configuration; sections are attribute-accessible dicts."""

    def __init__(self, data: dict):
        self.data = data

    def get(self, section: str, key: str):
        return self.data[section][key]

    # -- derived objects ----------------------------------------------------

    def basis(self, modes: int | None = None) -> CosineBasis:
        modes = self.get("domain", "modes") if modes is None else modes
        return build_basis(DomainSpec(), modes)

    def diffusion_spec(self) -> DiffusionSpec:
        eps = self.get("diffusion", "eps")
        n = self.get("domain", "components")
        if len(eps) == 1 and n > 1:
            eps = eps * n
        if len(eps) != n:
            raise ConfigError(f"[diffusion] eps has {len(eps)} entries for {n} components")
        return diffusion(eps, self.get("diffusion", "m0"))

    def nonlinearity(self) -> Nonlinearity:
        name = self.get("nonlinearity", "name")
        factory = NONLINEARITIES.get(name)
        if factory is None:
            raise ConfigError(f"[nonlinearity] unknown name {name!r}")
        # each factory's keyword parameters are keys of [nonlinearity]
        F = factory(**{key: self.get("nonlinearity", key)
                       for key in inspect.signature(factory).parameters})
        n = self.get("domain", "components")
        if name == "coupled_tanh" and n != 2:
            raise ConfigError("[nonlinearity] coupled_tanh needs components = 2")
        return F

    def nonlinearity_spec(self) -> dict:
        F = self.nonlinearity()
        return {"name": F.name, **F.params}

    # -- persistence ---------------------------------------------------------

    def to_ini(self) -> str:
        lines = []
        for section, entries in self.data.items():
            lines.append(f"[{section}]")
            for key, value in entries.items():
                if value is None:
                    text = ""
                elif isinstance(value, bool):
                    text = "true" if value else "false"
                elif isinstance(value, tuple):
                    text = ",".join(f"{x:.17g}" for x in value)
                elif isinstance(value, float):
                    text = f"{value:.17g}"
                else:
                    text = str(value)
                lines.append(f"{key} = {text}")
            lines.append("")
        return "\n".join(lines)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_ini())


def default_config() -> Config:
    return Config(copy.deepcopy(DEFAULTS))


def load_config(path=None) -> Config:
    """Parse an INI file against DEFAULTS; unknown keys are rejected."""
    cfg = default_config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as err:
        raise ConfigError(f"config parse error in {path}: {err}") from None
    for section in parser.sections():
        if section not in DEFAULTS:
            known = ", ".join(DEFAULTS)
            raise ConfigError(f"unknown section [{section}]; known sections: {known}")
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                known = ", ".join(DEFAULTS[section])
                raise ConfigError(f"unknown key {key!r} in [{section}]; known keys: {known}")
            cfg.data[section][key] = _coerce(section, key, raw)
    _validate(cfg)
    return cfg


# scalar ranges; an unset (None) value is not checked
_AT_LEAST = {("domain", "components"): 1, ("domain", "modes"): 2, ("attractor", "n_tails"): 0,
             ("attractor", "longtime_seeds"): 1, ("attractor", "t_burn"): 0,
             ("attractor", "t_trans"): 0, ("attractor", "deflection_t_trans"): 0,
             ("manifold", "grid_points"): 2, ("manifold", "iterations"): 1}
_POSITIVE = [("attractor", "arc_dt"), ("attractor", "sample_dt"), ("attractor", "dedup_cell"),
             ("attractor", "longtime_box"), ("semigroup", "m_horizon")]


def _validate(cfg: Config) -> None:
    for (section, key), low in _AT_LEAST.items():
        value = cfg.get(section, key)
        if value is not None and value < low:
            raise ConfigError(f"[{section}] {key} must be >= {low}")
    for section, key in _POSITIVE:
        value = cfg.get(section, key)
        if value is not None and not value > 0:
            raise ConfigError(f"[{section}] {key} must be positive")
    eps = cfg.get("diffusion", "eps")
    if not eps or any(e <= 0 for e in eps):
        raise ConfigError("[diffusion] eps needs at least one entry, all positive")
    m0 = cfg.get("diffusion", "m0")
    if m0 is not None and not 0 < m0 <= min(eps):
        raise ConfigError("[diffusion] m0 must satisfy 0 < m0 <= min(eps)")
    sweep = cfg.get("sweep", "d_eps")
    if len(sweep) < 4:
        raise ConfigError("[sweep] d_eps needs at least 4 values")
    if any(v <= 0 for v in sweep):
        raise ConfigError("[sweep] d_eps values must be positive")
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ConfigError("[sweep] d_eps must be strictly increasing")
    t_burn, t_end = cfg.get("attractor", "t_burn"), cfg.get("attractor", "t_end")
    if t_burn is not None and t_end is not None and not t_end > t_burn:
        raise ConfigError("[attractor] t_end must exceed t_burn")
