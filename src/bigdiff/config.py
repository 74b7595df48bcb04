"""Flat INI configuration with strict key checking and full defaults.

Every key has one concrete default (see DEFAULTS and the README table),
whose type is the key's type, and is read by at least one command; a config
file only overrides what it names.  Unknown sections or keys, a `[DEFAULT]`
section included, are rejected so typos cannot silently fall back to
defaults.  Values are coerced by the type of their default; empty values
mean "use the default", and every number must be finite.  `load_config`
checks everything a study builds from the config, the `[nonlinearity]` name
and the `[diffusion] eps` count included, so a config error surfaces before
any study runs and the derived objects of `Config` raise nothing.  The
resolved configuration can be written back out and re-parsed to reproduce a
run exactly.
"""

from __future__ import annotations

import configparser
import copy
import inspect

import numpy as np

from .dynamics import NONLINEARITIES, Nonlinearity, nonlinearity_from_spec
from .rates import check_d_eps
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


def _coerce(section: str, key: str, raw: str):
    raw = raw.strip()
    default = DEFAULTS[section][key]
    if raw == "":
        return copy.deepcopy(default)
    kind = type(default)
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

    def basis(self) -> CosineBasis:
        return build_basis(DomainSpec(), self.get("domain", "modes"))

    def diffusion_spec(self) -> DiffusionSpec:
        eps = self.get("diffusion", "eps")
        # one eps is broadcast to every component; load_config checked the count
        return diffusion(eps * self.get("domain", "components") if len(eps) == 1 else eps)

    def nonlinearity(self) -> Nonlinearity:
        return nonlinearity_from_spec(**self.nonlinearity_spec())

    def nonlinearity_spec(self) -> dict:
        """The name and, read from [nonlinearity], the keyword parameters of its factory."""
        name = self.get("nonlinearity", "name")
        return {"name": name, **{key: self.get("nonlinearity", key)
                                 for key in inspect.signature(NONLINEARITIES[name]).parameters}}

    # -- persistence ---------------------------------------------------------

    def to_ini(self) -> str:
        lines = []
        for section, entries in self.data.items():
            lines.append(f"[{section}]")
            for key, value in entries.items():
                if isinstance(value, bool):
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
    # no header can name the default section, so a [DEFAULT] section is an unknown one
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="\n")
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


# scalar ranges
_AT_LEAST = {("domain", "components"): 1, ("domain", "modes"): 2, ("attractor", "n_tails"): 0,
             ("attractor", "longtime_seeds"): 1, ("attractor", "t_trans"): 0,
             ("attractor", "deflection_t_trans"): 0, ("manifold", "grid_points"): 2,
             ("manifold", "iterations"): 1, ("run", "seed"): 0}
_POSITIVE = [("attractor", "arc_dt"), ("attractor", "sample_dt"), ("attractor", "dedup_cell"),
             ("semigroup", "m_horizon")]


def _validate(cfg: Config) -> None:
    for (section, key), low in _AT_LEAST.items():
        if cfg.get(section, key) < low:
            raise ConfigError(f"[{section}] {key} must be >= {low}")
    for section, key in _POSITIVE:
        if not cfg.get(section, key) > 0:
            raise ConfigError(f"[{section}] {key} must be positive")
    eps, n = cfg.get("diffusion", "eps"), cfg.get("domain", "components")
    if not eps or any(e <= 0 for e in eps):
        raise ConfigError("[diffusion] eps needs at least one entry, all positive")
    if len(eps) not in (1, n):
        raise ConfigError(f"[diffusion] eps has {len(eps)} entries for {n} components")
    # by name and count only: building F here would cost every load its factory
    name = cfg.get("nonlinearity", "name")
    if name not in NONLINEARITIES:
        raise ConfigError(f"[nonlinearity] unknown name {name!r}; known: "
                          + ", ".join(NONLINEARITIES))
    if name == "coupled_tanh" and n != 2:
        raise ConfigError("[nonlinearity] coupled_tanh needs components = 2")
    try:
        check_d_eps(cfg.get("sweep", "d_eps"))
    except ValueError as err:
        raise ConfigError(f"[sweep] d_eps: {err}") from None
