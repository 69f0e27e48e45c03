"""INI configuration parsing with a strict schema.

Sections: [grid], [coefficients.sigma], [coefficients.gamma], [source],
[boundary], [scattering], [solver], [study].  Unknown sections or keys are
rejected.  Every section is optional; defaults give a unit slab with unit
coefficients, isotropic scattering and zero inflow.

_TABLE states each key once, with its parser.  load_config parses only the
keys a file sets and passes them to the objects it builds, so a default
lives on its object: SolverOptions, StudySpec, KernelSpec, ProblemSpec
(inflow), CoefficientField.sinusoid and Config (quadrature sizes).  The
defaults no object owns (grid length and n_cells, the constant field's
value) sit in _TABLE as (parser, default) pairs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .errors import ValidationError
from .problem import FLOOR_CELLS, CoefficientField, Grid1D, KernelSpec, ProblemSpec
from .transport import SolverOptions

__all__ = ["StudySpec", "Config", "load_config"]


@dataclass(frozen=True)
class StudySpec:
    eps: tuple = ()
    p_norms: tuple = (1.0, 4.0)
    mms: str | None = None
    meshes: tuple = (32, 64, 128, 256)
    reference: str | None = None
    floor_cells: int = FLOOR_CELLS

    def __post_init__(self):
        # p = inf is the sup norm; p >= 1 also rejects nan
        if not all(p >= 1.0 for p in self.p_norms):
            raise ValidationError(
                f"[study] p_norms = {self.p_norms}: every p must be at least 1"
            )
        if self.reference not in (None, "cosh"):
            raise ValidationError(
                f"[study] reference = {self.reference!r} is not a known "
                "reference (cosh)"
            )
        if len(set(self.meshes)) != len(self.meshes):
            raise ValidationError(
                f"[study] meshes = {self.meshes}: a repeated mesh has no order"
            )
        if len(set(self.p_norms)) != len(self.p_norms):
            raise ValidationError(
                f"[study] p_norms = {self.p_norms}: a repeated p would repeat "
                "its err_l column"
            )


@dataclass(frozen=True)
class Config:
    problem: ProblemSpec
    solver: SolverOptions
    study: StudySpec
    kernel: KernelSpec
    n_ordinates: int = 16
    n_polar: int = 8
    n_azimuth: int = 16


def _number(raw, key, where):
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"[{where}] {key} = {raw!r} is not a number") from exc


def _float(raw, key, where):
    value = _number(raw, key, where)
    if not math.isfinite(value):
        raise ValidationError(f"[{where}] {key} = {raw!r} is not finite")
    return value


def _int(raw, key, where):
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"[{where}] {key} = {raw!r} is not an integer") from exc


def _text(raw, key, where):
    return raw


def _list(parse):
    """Parser of a whitespace-separated list of what parse reads."""
    return lambda raw, key, where: tuple(parse(tok, key, where)
                                         for tok in raw.split())


# a field section's keys depend on its kind; the tuple holds the key that
# names the kind, the noun for it in messages, the kind when the key is
# absent, and each kind's keys
_FIELD = ("kind", "coefficient", "constant", {
    "constant": {"value": (_float, 1.0)},
    "piecewise": {"breakpoints": _list(_float), "values": _list(_float)},
    "sinusoid": dict.fromkeys(("offset", "amplitude", "frequency", "phase"),
                              _float),
})
_QUADRATURE = dict.fromkeys(("n_ordinates", "n_polar", "n_azimuth"), _int)

# section -> {key: parser or (parser, default)}, or a kind tuple like _FIELD
_TABLE = {
    "grid": {"length": (_float, 1.0), "n_cells": (_int, 100)},
    "coefficients.sigma": _FIELD,
    "coefficients.gamma": _FIELD,
    "source": _FIELD,
    "boundary": dict.fromkeys(("g_left", "g_right"), _float),
    "scattering": ("kernel", "kernel", KernelSpec.kind, {
        "isotropic": _QUADRATURE,
        "linear": {**_QUADRATURE, "g_factor": _float},
    }),
    "solver": {"scheme": _text, "tolerance": _float, "max_iterations": _int,
               "acceleration": _text},
    "study": {"eps": _list(_float), "p_norms": _list(_number), "mms": _text,
              "meshes": _list(_int), "reference": _text, "floor_cells": _int},
}


def _section(name, items):
    """Parsed values of one section's keys that are set or have a table
    default; a kind-bearing section also gives its kind as "kind"."""
    keys = _TABLE[name]
    out = {}
    if isinstance(keys, tuple):
        kind_key, noun, default, kinds = keys
        unknown = set(items) - {kind_key}.union(*kinds.values())
        out["kind"] = kind = items.get(kind_key, default)
    else:
        unknown = set(items) - set(keys)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in section [{name}]")
    if isinstance(keys, tuple):
        if kind not in kinds:
            raise ValidationError(f"[{name}] unknown {noun} kind {kind!r}")
        keys = kinds[kind]
        extra = set(items) - set(keys) - {kind_key}
        if extra:
            raise ValidationError(
                f"[{name}] keys {sorted(extra)} do not apply to {kind_key} {kind!r}"
            )
    for key, parse in keys.items():
        if isinstance(parse, tuple):
            parse, out[key] = parse
        if key in items:
            out[key] = parse(items[key], key, name)
    return out


def _field(name, kw):
    kind = kw.pop("kind")
    if kind == "piecewise" and len(kw) < 2:
        raise ValidationError(f"[{name}] piecewise needs breakpoints and values")
    return getattr(CoefficientField, kind)(**kw)


def load_config(path):
    """Parse and validate a configuration file into a Config bundle."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    for name in parser.sections():
        if name not in _TABLE:
            raise ValidationError(f"unknown config section [{name}]")

    s = {name: _section(name, dict(parser.items(name))
                        if parser.has_section(name) else {})
         for name in _TABLE}
    sigma, gamma, source = (_field(name, s[name]) for name in
                            ("coefficients.sigma", "coefficients.gamma", "source"))
    sc = s["scattering"]
    kernel = KernelSpec(**{k: sc.pop(k) for k in ("kind", "g_factor") if k in sc})
    problem = ProblemSpec(grid=Grid1D(**s["grid"]), sigma=sigma, gamma=gamma,
                          source=source, **s["boundary"])
    return Config(problem=problem, solver=SolverOptions(**s["solver"]),
                  study=StudySpec(**s["study"]), kernel=kernel, **sc)
