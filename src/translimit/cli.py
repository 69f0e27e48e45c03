"""Command-line interface.

Subcommands mirror the verification pipeline: certify the scattering
assumptions, dump the diffusion tensor, run single solves, and run the
eps-sweep convergence study.  All numeric output files carry full double
precision; console summaries are rounded.  Exit codes: 0 success,
2 validation error, 3 convergence failure, 4 certification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import convergence_study, norms, space_velocity_norm
from .config import load_config
from .diffusion import solve_diffusion
from .errors import (
    CertificationError,
    ConvergenceError,
    TranslimitError,
    ValidationError,
)
from .problem import Grid1D, manufactured_case, mms_diffusion_source, \
    mms_transport_source
from .transport import solve_transport
from .velocity_space import (
    build_angular_quadrature,
    build_sphere_quadrature,
    certify_assumptions,
    diffusion_moment,
    diffusion_tensor,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_CERTIFICATION = 4


# rows per % call in _write_csv: larger blocks are no faster, and their
# float objects and text would raise the tensor command's peak RSS
CSV_BLOCK_ROWS = 256


def _write_csv(path, header, rows):
    """Write a numeric table as %.17g text, one % call per block of rows.

    rows is an (n, len(header)) array or any iterable of equal-length rows;
    "%.17g" % x and f"{x:.17g}" give the same bytes for every double.
    """
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=float)
    table = table.reshape(len(table), len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, args, config_path, outputs):
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    payload = {
        "command": list(args),
        "config": os.path.abspath(config_path),
        "config_sha256": digest,
        "versions": {
            "translimit": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, payload)
    return path


def _out_dir(ns):
    os.makedirs(ns.out, exist_ok=True)
    return ns.out


def cmd_certify(ns, argv):
    cfg = load_config(ns.config)
    out = _out_dir(ns)
    slab = cfg.problem.kernel.build(build_angular_quadrature(cfg.n_ordinates))
    sphere = cfg.problem.kernel.build(
        build_sphere_quadrature(cfg.n_polar, cfg.n_azimuth)
    )
    slab_report = certify_assumptions(slab)
    sphere_report = certify_assumptions(sphere)
    payload = slab_report.as_dict()
    payload["sphere"] = sphere_report.as_dict()
    path = os.path.join(out, "certification.json")
    _write_json(path, payload)
    outputs = [path]
    outputs.append(_write_manifest(out, argv, ns.config, outputs))
    ok = slab_report.all_passed and sphere_report.all_passed
    c_k = payload["c_K"]
    print(f"certification: {'pass' if ok else 'FAIL'}  "
          f"c_K={c_k if c_k is not None else 'inf'}  "
          f"null_space_dim={payload['null_space_dim']}")
    for msg in slab_report.diagnostics + sphere_report.diagnostics:
        print(f"  diagnostic: {msg}")
    return EXIT_OK if ok else EXIT_CERTIFICATION


def cmd_tensor(ns, argv):
    cfg = load_config(ns.config)
    out = _out_dir(ns)
    quad = build_sphere_quadrature(cfg.n_polar, cfg.n_azimuth)
    op = cfg.problem.kernel.build(quad)
    xc = cfg.problem.grid.centers
    tensor = diffusion_tensor(op, cfg.problem.sigma(xc))

    # every cell tensor is moment / sigma, so one eigen-solve gives them all
    mat = tensor.matrices
    min_eig = np.linalg.eigvalsh(tensor.moment)[0] / tensor.sigma
    rows = np.column_stack([xc, mat[:, 0, 0], mat[:, 0, 1], mat[:, 0, 2],
                            mat[:, 1, 1], mat[:, 1, 2], mat[:, 2, 2], min_eig])
    path = os.path.join(out, "tensor.csv")
    _write_csv(path, ["x", "a11", "a12", "a13", "a22", "a23", "a33", "min_eig"], rows)
    summary = os.path.join(out, "tensor_summary.json")
    _write_json(summary, {
        "coercivity_lb": tensor.coercivity_lb,
        "c_K": certify_assumptions(op).c_K,
        "n_cells": tensor.n_cells,
    })
    outputs = [path, summary]
    outputs.append(_write_manifest(out, argv, ns.config, outputs))
    print(f"tensor: {tensor.n_cells} cells, coercivity >= "
          f"{tensor.coercivity_lb:.6g}, wrote {path}")
    return EXIT_OK


def _mms_diffusion_cmd(cfg, op, ns, out, argv):
    case = manufactured_case(cfg.study.mms, cfg.problem.grid.length)
    if not case.is_diffusion:
        raise ValidationError(
            f"manufactured case {cfg.study.mms!r} is not a diffusion case"
        )
    src = mms_diffusion_source(case, cfg.problem.sigma, cfg.problem.gamma, op)
    rows = []
    errs = []
    for n in cfg.study.meshes:
        grid = Grid1D(cfg.problem.grid.length, n)
        problem = dataclasses.replace(cfg.problem, grid=grid, source=src)
        sol = solve_diffusion(problem, op)
        err = float(np.max(np.abs(sol.u_nodes - case.ubar(grid.edges))))
        errs.append(err)
        order = (math.log2(errs[-2] / err) if len(errs) > 1 else float("nan"))
        rows.append([n, grid.h, err, order])
        print(f"mms n={n:5d}  max_nodal_error={err:.6e}"
              + (f"  order={order:.3f}" if len(errs) > 1 else ""))
    path = os.path.join(out, "mms_table.csv")
    _write_csv(path, ["n_cells", "h", "max_nodal_error", "order"], rows)
    _write_manifest(out, argv, ns.config, outputs=[path])
    return EXIT_OK


def _solve_diffusion_cmd(cfg, ns, out, argv):
    op = cfg.problem.kernel.build(build_angular_quadrature(cfg.n_ordinates))
    if cfg.study.mms:
        return _mms_diffusion_cmd(cfg, op, ns, out, argv)
    sol = solve_diffusion(cfg.problem, op)
    grid = sol.grid
    nodes = grid.edges
    # gradient interpolated to the nodes so one CSV covers all fields
    grad_nodes = np.empty(nodes.size)
    grad_nodes[1:-1] = 0.5 * (sol.grad[:-1] + sol.grad[1:])
    grad_nodes[0] = -sol.flux[0] / sol.a11[0]
    grad_nodes[-1] = -sol.flux[-1] / sol.a11[-1]
    path = os.path.join(out, "diffusion_solution.csv")
    _write_csv(path, ["x", "u0", "grad_u0", "flux"],
               zip(nodes, sol.u_nodes, grad_nodes, sol.flux))
    outputs = [path]

    if cfg.study.reference == "cosh":
        for name, fld in (("sigma", cfg.problem.sigma),
                          ("gamma", cfg.problem.gamma),
                          ("source", cfg.problem.source)):
            if fld.kind != "constant":
                raise ValidationError(
                    f"cosh reference needs constant coefficients ({name} is "
                    f"{fld.kind})"
                )
        s = cfg.problem.sigma.value
        g = cfg.problem.gamma.value
        f = cfg.problem.source.value
        L = grid.length
        kappa = math.sqrt(g * s / diffusion_moment(op)[0, 0])
        exact = (f / g) * (1.0 - np.cosh(kappa * (nodes - L / 2))
                           / np.cosh(kappa * L / 2))
        max_err = float(np.max(np.abs(sol.u_nodes - exact)))
        print(f"reference max nodal error: {max_err:.6e}")
        ref_path = os.path.join(out, "reference_error.json")
        _write_json(ref_path, {"reference": "cosh", "max_nodal_error": max_err})
        outputs.append(ref_path)

    outputs.append(_write_manifest(out, argv, ns.config, outputs))
    print(f"diffusion solve: {grid.n_cells} cells, wrote {path}")
    return EXIT_OK


def _mms_transport_cmd(cfg, ns, out, argv):
    case = manufactured_case(cfg.study.mms, cfg.problem.grid.length)
    if not case.is_transport:
        raise ValidationError(
            f"manufactured case {cfg.study.mms!r} is not a transport case"
        )
    quad = build_angular_quadrature(cfg.n_ordinates)
    rows = []
    errs = []
    for n in cfg.study.meshes:
        grid = Grid1D(cfg.problem.grid.length, n)
        problem = dataclasses.replace(cfg.problem, grid=grid, scaling="unscaled")
        op = problem.kernel.build(quad)
        src = mms_transport_source(case, problem.sigma, problem.gamma, op, grid)
        sol = solve_transport(problem, 1.0, quad, cfg.solver,
                              source_override=src, operator=op)
        exact = case.u(grid.centers[:, None], quad.nodes[None, :])
        err = space_velocity_norm(sol.u - exact, grid, quad, 2)
        errs.append(err)
        order = (math.log2(errs[-2] / err) if len(errs) > 1 else float("nan"))
        rows.append([n, grid.h, err, order])
        print(f"mms n={n:5d}  l2_error={err:.6e}"
              + (f"  order={order:.3f}" if len(errs) > 1 else ""))
    path = os.path.join(out, "mms_table.csv")
    _write_csv(path, ["n_cells", "h", "l2_error", "order"], rows)
    _write_manifest(out, argv, ns.config, outputs=[path])
    return EXIT_OK


def _solve_transport_cmd(cfg, ns, out, argv):
    if cfg.study.mms:
        return _mms_transport_cmd(cfg, ns, out, argv)
    quad = build_angular_quadrature(cfg.n_ordinates)
    op = cfg.problem.kernel.build(quad)
    log_path = os.path.join(out, "iteration_log.json")
    try:
        sol = solve_transport(cfg.problem, ns.eps, quad, cfg.solver, operator=op)
    except ConvergenceError as exc:
        _write_json(log_path, exc.log.as_dict())
        _write_manifest(out, argv, ns.config, [log_path])
        raise
    grid = sol.grid
    xc = grid.centers
    # one row per (cell, ordinate), cells outermost
    rows = np.column_stack([np.repeat(xc, quad.n),
                            np.tile(quad.nodes, grid.n_cells), sol.u.ravel()])
    path = os.path.join(out, "transport_solution.csv")
    _write_csv(path, ["x", "mu", "u"], rows)
    avg_path = os.path.join(out, "transport_average.csv")
    _write_csv(avg_path, ["x", "u_bar"], zip(xc, sol.u_bar))
    _write_json(log_path, sol.log.as_dict())
    outputs = [path, avg_path, log_path]
    outputs.append(_write_manifest(out, argv, ns.config, outputs))

    ns_set = norms(sol, ns.eps, cfg.problem.sigma(xc), cfg.problem.gamma(xc),
                   op, grid, ps=cfg.study.p_norms)
    print(f"transport solve: eps={ns.eps:g}, {sol.log.iterations} iterations, "
          f"balance residual {sol.log.balance_residual:.3e}")
    print(f"  l2={ns_set.l2:.6g}  energy={ns_set.energy:.6g}  "
          f"outflow={ns_set.bdry_plus:.6g}")
    for p, v in ns_set.lp.items():
        print(f"  l{p:g}={v:.6g}")
    return EXIT_OK


def cmd_solve(ns, argv):
    cfg = load_config(ns.config)
    out = _out_dir(ns)
    if ns.mode == "diffusion":
        return _solve_diffusion_cmd(cfg, ns, out, argv)
    return _solve_transport_cmd(cfg, ns, out, argv)


def cmd_study(ns, argv):
    cfg = load_config(ns.config)
    out = _out_dir(ns)
    if not cfg.study.eps:
        raise ValidationError("study requires an eps list in [study]")
    quad = build_angular_quadrature(cfg.n_ordinates)
    try:
        report = convergence_study(
            cfg.problem, cfg.study.eps, quad, cfg.solver,
            ps=cfg.study.p_norms, jobs=ns.jobs,
            floor_cells=cfg.study.floor_cells,
        )
        failure = None
    except ConvergenceError as exc:
        report = getattr(exc, "partial_report", None)
        failure = exc
        if report is None:
            raise

    csv_path = os.path.join(out, "report.csv")
    report.to_csv(csv_path)
    slopes_path = os.path.join(out, "slopes.json")
    _write_json(slopes_path, report.slopes_payload())
    plot_paths = report.write_plot_files(out)
    outputs = [csv_path, slopes_path, *plot_paths]
    outputs.append(_write_manifest(out, argv, ns.config, outputs))

    for note in report.notes:
        print(f"note: {note}")
    for name, fit in report.slopes.items():
        print(f"slope {name}: {fit.slope:.4f} (stderr {fit.stderr:.4f})")
    if failure is not None:
        print(f"study aborted: {failure}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="translimit",
        description="Scaled slab transport, its diffusion limit, and "
                    "convergence-rate measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the INI config")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("certify", help="certify the scattering operator")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("tensor", help="dump the per-cell diffusion tensor")
    common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("solve", help="run one transport or diffusion solve")
    common(p)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--mode", choices=("transport", "diffusion"), required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("study", help="run the eps-sweep convergence study")
    common(p)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns, ["translimit", *argv])
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: run 'translimit {ns.command} --help' for details",
              file=sys.stderr)
        return EXIT_VALIDATION
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except TranslimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
