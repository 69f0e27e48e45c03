"""The benchmark's workloads: inputs drawn from a seed, the commands one
operation runs, and the checks the outputs of each operation must pass.

Checks rest on properties of the method (first-order decay of the
quantities the paper bounds, L2 convergence to the limit) or on closed forms
for the linear kernel, never on stored copies of earlier output.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

FIRST_ORDER = (0.85, 1.15)
# mu du/dx stays uniformly bounded, so its fitted slope sits near zero
DERIV_SLOPE_MAX = 0.1
# closed-form checks of the linear kernel, relative to the value checked
CLOSED_FORM_RTOL = 1e-9
EIG_ATOL = 1e-9

# seed ranges; every value inside them keeps the checks true
PHASE_RANGE = (0.0, 2.0 * math.pi)
G_RANGE = (0.25, 0.75)

SMOOTH_EPS = tuple(2.0**-k for k in range(1, 10))
JUMP_EPS = tuple(2.0**-k for k in range(1, 8))
TENSOR_CELLS = 65536


@dataclass
class Outcome:
    """Verdict on one operation.

    problems lists checks that failed unexpectedly (the program's output is
    wrong); failure names the known fault an operation trips, if any.
    """

    problems: list = field(default_factory=list)
    failure: str | None = None


@dataclass
class Workload:
    name: str
    params: dict
    config_text: str
    commands: list  # argv lists; "{config}" and "{out}" are filled in
    check: object  # check(out_dir, return_codes, params) -> Outcome


def _sweep(eps):
    return " ".join(repr(e) for e in eps)


def _sinusoid_sigma(phase):
    return (
        "[coefficients.sigma]\nkind = sinusoid\noffset = 1.0\n"
        f"amplitude = 0.5\nfrequency = 1.0\nphase = {phase!r}\n"
    )


def _sigma_at_centers(n_cells, phase):
    x = (np.arange(n_cells) + 0.5) * (1.0 / n_cells)
    return 1.0 + 0.5 * np.sin(2.0 * np.pi * 1.0 * x + phase)


def _load_json(path, outcome):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"cannot read {os.path.basename(path)}: {exc}")
        return None


def _check_exit_codes(codes, outcome):
    for code in codes:
        if code != 0:
            outcome.problems.append(f"command exited with code {code}")


def _check_window(slopes, names, outcome):
    lo, hi = FIRST_ORDER
    for name in names:
        fit = slopes.get(name)
        if fit is None:
            outcome.problems.append(f"slope {name} missing from slopes.json")
        elif not lo <= fit["slope"] <= hi:
            outcome.problems.append(
                f"slope {name} = {fit['slope']:.4f} outside [{lo}, {hi}]"
            )


def _check_sweep(payload, eps, outcome):
    got = payload.get("eps", [])
    if len(got) != len(eps) or not np.allclose(got, eps, rtol=1e-15, atol=0):
        outcome.problems.append(f"study covered eps {got}, expected {list(eps)}")
        return
    # the study's mesh rule h <= eps/4 over the unit slab
    for e, n in zip(eps, payload.get("n_cells", [])):
        if n * e < 4.0:
            outcome.problems.append(f"eps={e:g} ran on {n} cells, h > eps/4")


def check_smooth(out, codes, params):
    outcome = Outcome()
    _check_exit_codes(codes, outcome)
    payload = _load_json(os.path.join(out, "slopes.json"), outcome)
    if payload is None:
        return outcome
    _check_sweep(payload, SMOOTH_EPS, outcome)
    slopes = payload.get("slopes", {})
    _check_window(slopes, ("err_total", "err_fluct", "remainder", "bdry",
                           "err_l1", "err_l4"), outcome)
    deriv = slopes.get("deriv", {}).get("slope")
    if deriv is None or abs(deriv) > DERIV_SLOPE_MAX:
        outcome.problems.append(f"deriv slope {deriv} not within "
                                f"+-{DERIV_SLOPE_MAX} of 0")
    return outcome


def _read_report(path, outcome):
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"cannot read report.csv: {exc}")
        return None
    return {name: table[:, i] for i, name in enumerate(header)}


def check_jump(out, codes, params):
    outcome = Outcome()
    _check_exit_codes(codes, outcome)
    payload = _load_json(os.path.join(out, "slopes.json"), outcome)
    report = _read_report(os.path.join(out, "report.csv"), outcome)
    if payload is None or report is None:
        return outcome
    _check_sweep(payload, JUMP_EPS, outcome)
    # err_fluct and bdry do not involve the limit, so they decay at first
    # order whatever diffusivity the study compares against
    _check_window(payload.get("slopes", {}), ("err_fluct", "bdry"), outcome)
    total = report.get("err_total")
    if total is None or total.size != len(JUMP_EPS):
        outcome.problems.append("report.csv lacks a full err_total column")
    elif not np.all(np.diff(total) < 0.0):
        rising = int(np.argmax(np.diff(total) >= 0.0))
        outcome.failure = (
            f"err_total does not decrease: {total[rising]:.4g} at "
            f"eps={JUMP_EPS[rising]:g} -> {total[rising + 1]:.4g} at "
            f"eps={JUMP_EPS[rising + 1]:g}"
        )
    return outcome


def _check_spectrum(report, g, one_minus_g_mult, where, outcome):
    lam = np.sort(np.asarray(report.get("eigenvalues", []), dtype=float))
    n_zero = int(np.sum(np.abs(lam) <= EIG_ATOL))
    n_mid = int(np.sum(np.abs(lam - (1.0 - g)) <= EIG_ATOL))
    n_one = int(np.sum(np.abs(lam - 1.0) <= EIG_ATOL))
    if (n_zero, n_mid) != (1, one_minus_g_mult) or n_zero + n_mid + n_one != lam.size:
        outcome.problems.append(
            f"{where} spectrum of I-K is not {{0, 1-g (x{one_minus_g_mult}), 1}}: "
            f"{n_zero} zero, {n_mid} at 1-g, {n_one} at 1 of {lam.size}"
        )
    c_k = report.get("c_K")
    if c_k is None or abs(c_k * (1.0 - g) - 1.0) > CLOSED_FORM_RTOL:
        outcome.problems.append(f"{where} c_K = {c_k}, expected 1/(1-g) = "
                                f"{1.0 / (1.0 - g):.17g}")
    if not report.get("all_passed") or report.get("null_space_dim") != 1:
        outcome.problems.append(f"{where} certification did not pass cleanly")


def check_tensor(out, codes, params):
    outcome = Outcome()
    _check_exit_codes(codes, outcome)
    g = params["g"]
    cert = _load_json(os.path.join(out, "certification.json"), outcome)
    if cert is not None:
        _check_spectrum(cert, g, 1, "slab", outcome)
        _check_spectrum(cert.get("sphere", {}), g, 3, "sphere", outcome)

    sigma = _sigma_at_centers(TENSOR_CELLS, params["phase"])
    summary = _load_json(os.path.join(out, "tensor_summary.json"), outcome)
    if summary is not None:
        expected = 1.0 / (3.0 * (1.0 - g) * sigma.max())
        lb = summary.get("coercivity_lb")
        if lb is None or abs(lb / expected - 1.0) > CLOSED_FORM_RTOL:
            outcome.problems.append(
                f"coercivity_lb = {lb}, expected 1/(3(1-g) max sigma) = {expected:.17g}"
            )
    try:
        table = np.loadtxt(os.path.join(out, "tensor.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"cannot read tensor.csv: {exc}")
        return outcome
    if table.shape != (TENSOR_CELLS, 8):
        outcome.problems.append(f"tensor.csv has shape {table.shape}, "
                                f"expected {(TENSOR_CELLS, 8)}")
        return outcome
    # columns x, a11, a12, a13, a22, a23, a33, min_eig
    a = 1.0 / (3.0 * (1.0 - g) * sigma)
    diag = table[:, [1, 4, 6, 7]]
    diag_err = float(np.max(np.abs(diag / a[:, None] - 1.0)))
    if diag_err > CLOSED_FORM_RTOL:
        outcome.problems.append(
            f"a11, a22, a33, min_eig differ from 1/(3(1-g) sigma) by {diag_err:.3e}"
        )
    off_err = float(np.max(np.abs(table[:, [2, 3, 5]]) / a[:, None]))
    if off_err > CLOSED_FORM_RTOL:
        outcome.problems.append(f"off-diagonal entries reach {off_err:.3e} of a11")
    return outcome


def build(name, seed):
    """The workload called name, with its free parameters drawn from seed."""
    rng = random.Random(seed)
    phase = rng.uniform(*PHASE_RANGE)
    g = rng.uniform(*G_RANGE)
    if name == "smooth-deep":
        params = {"phase": phase}
        text = (
            "[grid]\nlength = 1.0\nn_cells = 64\n\n" + _sinusoid_sigma(phase)
            + "\n[coefficients.gamma]\nkind = constant\nvalue = 1.0\n"
            "\n[source]\nkind = constant\nvalue = 1.0\n"
            "\n[scattering]\nkernel = isotropic\nn_ordinates = 16\n"
            f"\n[study]\neps = {_sweep(SMOOTH_EPS)}\np_norms = 1 4\n"
        )
        commands = [["study", "--config", "{config}", "--out", "{out}"]]
        return Workload(name, params, text, commands, check_smooth)
    if name == "jump-aniso":
        # fixed inputs: this workload trips a fault that does not depend on
        # the seed, so its failed share must not depend on it either
        params = {"sigma_left": 1.0, "sigma_right": 4.0, "g": 0.5}
        text = (
            "[grid]\nlength = 1.0\nn_cells = 64\n"
            "\n[coefficients.sigma]\nkind = piecewise\nbreakpoints = 0.5\n"
            "values = 1.0 4.0\n"
            "\n[coefficients.gamma]\nkind = constant\nvalue = 1.0\n"
            "\n[source]\nkind = constant\nvalue = 1.0\n"
            "\n[scattering]\nkernel = linear\ng_factor = 0.5\nn_ordinates = 64\n"
            f"\n[study]\neps = {_sweep(JUMP_EPS)}\np_norms = 1 4\n"
        )
        commands = [["study", "--config", "{config}", "--out", "{out}"]]
        return Workload(name, params, text, commands, check_jump)
    if name == "limit-tensor":
        params = {"phase": phase, "g": g}
        text = (
            f"[grid]\nlength = 1.0\nn_cells = {TENSOR_CELLS}\n\n"
            + _sinusoid_sigma(phase)
            + f"\n[scattering]\nkernel = linear\ng_factor = {g!r}\n"
            "n_ordinates = 16\nn_polar = 24\nn_azimuth = 48\n"
        )
        commands = [["certify", "--config", "{config}", "--out", "{out}"],
                    ["tensor", "--config", "{config}", "--out", "{out}"]]
        return Workload(name, params, text, commands, check_tensor)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("smooth-deep", "jump-aniso", "limit-tensor")
