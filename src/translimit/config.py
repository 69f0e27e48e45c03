"""INI configuration parsing with a strict schema.

Sections: [grid], [coefficients.sigma], [coefficients.gamma], [source],
[boundary], [scattering], [solver], [study].  Unknown sections or keys are
rejected.  Every section is optional; defaults give a unit slab with unit
coefficients, isotropic scattering and zero inflow.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .errors import ValidationError
from .problem import CoefficientField, Grid1D, KernelSpec, ProblemSpec
from .transport import SolverOptions

__all__ = ["StudySpec", "Config", "load_config"]

_FIELD_KEYS = {
    "kind", "value", "offset", "amplitude", "frequency", "phase",
    "breakpoints", "values",
}

_SCHEMA = {
    "grid": {"length", "n_cells"},
    "coefficients.sigma": _FIELD_KEYS,
    "coefficients.gamma": _FIELD_KEYS,
    "source": _FIELD_KEYS,
    "boundary": {"g_left", "g_right"},
    "scattering": {"kernel", "g_factor", "n_ordinates", "n_polar", "n_azimuth"},
    "solver": {"scheme", "tolerance", "max_iterations", "acceleration",
               "balance_target"},
    "study": {"eps", "p_norms", "mms", "meshes", "reference", "floor_cells"},
}


@dataclass(frozen=True)
class StudySpec:
    eps: tuple = ()
    p_norms: tuple = (1.0, 4.0)
    mms: str | None = None
    meshes: tuple = (32, 64, 128, 256)
    reference: str | None = None
    floor_cells: int = 64


@dataclass(frozen=True)
class Config:
    problem: ProblemSpec
    solver: SolverOptions
    study: StudySpec
    kernel: KernelSpec
    n_ordinates: int
    n_polar: int
    n_azimuth: int


def _float(raw, key, where):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(f"[{where}] {key} = {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ValidationError(f"[{where}] {key} = {raw!r} is not finite")
    return value


def _float_list(raw, key, where, finite=True):
    try:
        values = tuple(float(tok) for tok in raw.split())
    except ValueError as exc:
        raise ValidationError(f"[{where}] {key} must be a number list") from exc
    if finite and not all(math.isfinite(v) for v in values):
        raise ValidationError(f"[{where}] {key} = {raw!r} has a non-finite entry")
    return values


def _int(raw, key, where):
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"[{where}] {key} = {raw!r} is not an integer") from exc


def _coefficient(items, where, default_value):
    if not items:
        return CoefficientField.constant(default_value)
    kind = items.get("kind", "constant")
    allowed = {
        "constant": {"kind", "value"},
        "piecewise": {"kind", "breakpoints", "values"},
        "sinusoid": {"kind", "offset", "amplitude", "frequency", "phase"},
    }
    if kind not in allowed:
        raise ValidationError(f"[{where}] unknown kind {kind!r}")
    extra = set(items) - allowed[kind]
    if extra:
        raise ValidationError(
            f"[{where}] keys {sorted(extra)} do not apply to kind {kind!r}"
        )
    if kind == "constant":
        return CoefficientField.constant(
            _float(items.get("value", default_value), "value", where)
        )
    if kind == "piecewise":
        if "breakpoints" not in items or "values" not in items:
            raise ValidationError(f"[{where}] piecewise needs breakpoints and values")
        return CoefficientField.piecewise(
            _float_list(items["breakpoints"], "breakpoints", where),
            _float_list(items["values"], "values", where),
        )
    return CoefficientField.sinusoid(
        offset=_float(items.get("offset", 0.0), "offset", where),
        amplitude=_float(items.get("amplitude", 0.0), "amplitude", where),
        frequency=_float(items.get("frequency", 1.0), "frequency", where),
        phase=_float(items.get("phase", 0.0), "phase", where),
    )


def load_config(path):
    """Parse and validate a configuration file into a Config bundle."""
    if not os.path.isfile(path):
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse config {path}: {exc}") from exc

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for name, items in sections.items():
        if name not in _SCHEMA:
            raise ValidationError(f"unknown config section [{name}]")
        extra = set(items) - _SCHEMA[name]
        if extra:
            raise ValidationError(f"unknown keys {sorted(extra)} in section [{name}]")

    grid_items = sections.get("grid", {})
    grid = Grid1D(
        length=_float(grid_items.get("length", 1.0), "length", "grid"),
        n_cells=_int(grid_items.get("n_cells", 100), "n_cells", "grid"),
    )

    sigma = _coefficient(sections.get("coefficients.sigma", {}),
                         "coefficients.sigma", 1.0)
    gamma = _coefficient(sections.get("coefficients.gamma", {}),
                         "coefficients.gamma", 1.0)
    source = _coefficient(sections.get("source", {}), "source", 1.0)

    bnd = sections.get("boundary", {})
    g_left = _float(bnd.get("g_left", 0.0), "g_left", "boundary")
    g_right = _float(bnd.get("g_right", 0.0), "g_right", "boundary")

    sc = sections.get("scattering", {})
    kernel_kind = sc.get("kernel", "isotropic")
    if "g_factor" in sc and kernel_kind != "linear":
        raise ValidationError(
            f"[scattering] keys ['g_factor'] do not apply to kernel {kernel_kind!r}"
        )
    kernel = KernelSpec(
        kind=kernel_kind,
        g_factor=_float(sc.get("g_factor", 0.0), "g_factor", "scattering"),
    )
    n_ordinates = _int(sc.get("n_ordinates", 16), "n_ordinates", "scattering")
    n_polar = _int(sc.get("n_polar", 8), "n_polar", "scattering")
    n_azimuth = _int(sc.get("n_azimuth", 16), "n_azimuth", "scattering")

    sv = sections.get("solver", {})
    solver = SolverOptions(
        scheme=sv.get("scheme", "diamond"),
        tolerance=_float(sv.get("tolerance", 1e-10), "tolerance", "solver"),
        max_iterations=_int(sv.get("max_iterations", 200), "max_iterations", "solver"),
        acceleration=sv.get("acceleration", "dsa"),
        balance_target=_float(sv.get("balance_target", 1e-10), "balance_target",
                              "solver"),
    )

    st = sections.get("study", {})
    # p = inf is the sup norm; p >= 1 also rejects nan
    p_norms = _float_list(st.get("p_norms", "1 4"), "p_norms", "study",
                          finite=False)
    if not all(p >= 1.0 for p in p_norms):
        raise ValidationError(
            f"[study] p_norms = {st['p_norms']!r}: every p must be at least 1"
        )
    reference = st.get("reference")
    if reference not in (None, "cosh"):
        raise ValidationError(
            f"[study] reference = {reference!r} is not a known reference (cosh)"
        )
    meshes = tuple(_int(tok, "meshes", "study")
                   for tok in st.get("meshes", "32 64 128 256").split())
    if len(set(meshes)) != len(meshes):
        raise ValidationError(
            f"[study] meshes = {st['meshes']!r}: a repeated mesh has no order"
        )
    study = StudySpec(
        eps=_float_list(st["eps"], "eps", "study") if "eps" in st else (),
        p_norms=p_norms,
        mms=st.get("mms"),
        meshes=meshes,
        reference=reference,
        floor_cells=_int(st.get("floor_cells", 64), "floor_cells", "study"),
    )

    problem = ProblemSpec(
        grid=grid, sigma=sigma, gamma=gamma, source=source,
        g_left=g_left, g_right=g_right,
    )
    return Config(
        problem=problem, solver=solver, study=study, kernel=kernel,
        n_ordinates=n_ordinates, n_polar=n_polar, n_azimuth=n_azimuth,
    )
