"""Command-line interface.

Subcommands mirror the verification pipeline: certify the scattering
assumptions, dump the diffusion tensor, run single solves, and run the
eps-sweep convergence study.  This is the one module that writes files:
the library returns records, and each JSON file holds its record's fields
(see _json_data).  All numeric output files carry full double
precision: each CSV value is the exact %.17g text of its double, formatted
a block of rows at a time by whole-array arithmetic (see csvtext).  Console
summaries are rounded.  Each command that writes a file also writes one
manifest.json, listing exactly the files it wrote.  Exit codes: 0 success,
2 validation error (an unreadable config, an unwritable --out and a problem
too large for memory included), 3 convergence failure, 4 certification
failure.
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
import scipy

from . import __version__
from .analysis import convergence_study, norms, space_velocity_norm
from .config import load_config
from .csvtext import rows_text
from .diffusion import solve_diffusion
from .errors import (
    CertificationError,
    ConvergenceError,
    TranslimitError,
    ValidationError,
)
from .problem import Grid1D, manufactured_case, mms_diffusion_source, \
    mms_transport_source
from .transport import outflow_trace, solve_transport
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


# rows per block in _write_csv: 512 rows of 8 columns format fastest, and
# their 1.1 MiB of transient arrays keep the tensor command's traced peak at
# 2.4 MiB, near its 2.1 MiB assembly peak, where 1024 rows raise it to 3.5 MiB
CSV_BLOCK_ROWS = 512


def _write_csv(path, header, rows, written):
    """Write a numeric table as %.17g text, one block of CSV_BLOCK_ROWS
    rows at a time, and append path to the list written.

    rows is an (n, len(header)) array or any iterable of equal-length rows;
    "%.17g" % x and f"{x:.17g}" give the same bytes for every double.
    """
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=float)
    table = table.reshape(len(table), len(header))
    _write_csv_blocks(path, header, (table[start:start + CSV_BLOCK_ROWS]
                                     for start in range(0, len(table), CSV_BLOCK_ROWS)),
                      written)


def _write_csv_blocks(path, header, blocks, written):
    """Write the 2-D arrays blocks, in order, as the rows of one table, as
    _write_csv does, and append path to the list written.  A block is
    formed only when the one before it has been written.

    csvtext.rows_text formats each block with whole-array arithmetic, byte
    for byte as '%.17g' would: its scaled products are within 5e-15 of
    exact, and the values it cannot round with certainty (a fraction within
    1e-9 of 1/2), those outside [1e-200, 1e200] (0, subnormals, inf, nan)
    and blocks of fewer than csvtext.MIN_VALUES values take '%.17g' itself.
    """
    with open(path, "wb") as fh:
        written.append(path)
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            fh.write(rows_text(block))


def _json_data(value):
    """value as strict-JSON data: a dataclass as the dict of its fields, an
    ndarray, tuple or list as a list, a numpy scalar as the Python number and
    a non-finite float as None, converting dicts and lists item by item."""
    # numbers first: they are most of the items (np.float64 is a float)
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (np.ndarray, np.generic)):
        return _json_data(value.tolist())
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _json_data(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_data(item) for item in value]
    return value


def _write_json(path, record, written):
    """Write record, converted by _json_data, as strict JSON with sorted
    keys, and append path to the list written.  A record dataclass is
    written as its fields, so a field added to it reaches the file."""
    text = json.dumps(_json_data(record), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        written.append(path)
        fh.write(text)


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
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), payload, written=[])


def _slab_operator(cfg):
    return cfg.kernel.build(build_angular_quadrature(cfg.n_ordinates))


def _sphere_operator(cfg):
    return cfg.kernel.build(build_sphere_quadrature(cfg.n_polar, cfg.n_azimuth))


def cmd_certify(cfg, ns, written):
    slab_report = certify_assumptions(_slab_operator(cfg))
    sphere_report = certify_assumptions(_sphere_operator(cfg))

    def record(report):
        return dict(_json_data(report), all_passed=report.all_passed)

    _write_json(os.path.join(ns.out, "certification.json"),
                dict(record(slab_report), sphere=record(sphere_report)), written)
    ok = slab_report.all_passed and sphere_report.all_passed
    print(f"certification: {'pass' if ok else 'FAIL'}  "
          f"c_K={slab_report.c_K}  "
          f"null_space_dim={slab_report.null_space_dim}")
    for msg in slab_report.diagnostics + sphere_report.diagnostics:
        print(f"  diagnostic: {msg}")
    for msg in slab_report.warnings + sphere_report.warnings:
        print(f"  warning: {msg}")
    return EXIT_OK if ok else EXIT_CERTIFICATION


def cmd_tensor(cfg, ns, written):
    """Write tensor.csv, one row per cell, and tensor_summary.json.

    The sphere operator is assembled without an n x n table (see
    assemble_scattering), and the rows are formed and written one block of
    CSV_BLOCK_ROWS cells at a time, in one block array, so no (n_cells, 8)
    table is held.
    """
    op = _sphere_operator(cfg)
    xc = cfg.problem.grid.centers
    tensor = diffusion_tensor(op, cfg.problem.sigma(xc))

    # the tensor of cell c is moment / sigma[c]: its upper triangle, row by
    # row, is a11 a12 a13 a22 a23 a33 and its least eigenvalue is
    # eigenvalues[0] / sigma[c]
    upper = tensor.moment[np.triu_indices(3)]
    least = tensor.eigenvalues[0]

    def blocks():
        # each block is written before the next one refills the array
        table = np.empty((min(CSV_BLOCK_ROWS, tensor.n_cells), 8))
        for start in range(0, tensor.n_cells, CSV_BLOCK_ROWS):
            cells = slice(start, start + CSV_BLOCK_ROWS)
            sigma = tensor.sigma[cells]
            block = table[:sigma.size]
            block[:, 0] = xc[cells]
            np.divide(upper, sigma[:, None], out=block[:, 1:7])
            np.divide(least, sigma, out=block[:, 7])
            yield block

    path = os.path.join(ns.out, "tensor.csv")
    _write_csv_blocks(path, ["x", "a11", "a12", "a13", "a22", "a23", "a33", "min_eig"],
                      blocks(), written)
    _write_json(os.path.join(ns.out, "tensor_summary.json"), {
        "coercivity_lb": tensor.coercivity_lb,
        "c_K": certify_assumptions(op).c_K,
        "n_cells": tensor.n_cells,
    }, written)
    print(f"tensor: {tensor.n_cells} cells, coercivity >= "
          f"{tensor.coercivity_lb:.6g}, wrote {path}")
    return EXIT_OK


def _mms_table(cfg, ns, written, error_name, mesh_error):
    """Mesh-refinement table of mesh_error(grid) over the study meshes, with
    the observed order log2(err[i-1] / err[i]) / log2(n[i] / n[i-1]) of
    each refinement; nan when either error is 0, as an exact solve has no
    order."""
    rows = []
    for n in cfg.study.meshes:
        grid = Grid1D(cfg.problem.grid.length, n)
        err = mesh_error(grid)
        order = float("nan")
        if rows and rows[-1][2] != 0.0 and err != 0.0:
            n_prev, _, err_prev, _ = rows[-1]
            order = math.log2(err_prev / err) / math.log2(n / n_prev)
        rows.append([n, grid.h, err, order])
        print(f"mms n={n:5d}  {error_name}={err:.6e}"
              + (f"  order={order:.3f}" if len(rows) > 1 else ""))
    _write_csv(os.path.join(ns.out, "mms_table.csv"),
               ["n_cells", "h", error_name, "order"], rows, written)
    return EXIT_OK


def _mms_diffusion_cmd(cfg, op, ns, written):
    case = manufactured_case(cfg.study.mms, cfg.problem.grid.length)
    src = mms_diffusion_source(case, cfg.problem.sigma, cfg.problem.gamma, op)

    def max_nodal_error(grid):
        problem = dataclasses.replace(cfg.problem, grid=grid, source=src)
        sol = solve_diffusion(problem, op)
        return float(np.max(np.abs(sol.u_nodes - case.ubar(grid.edges))))

    return _mms_table(cfg, ns, written, "max_nodal_error", max_nodal_error)


def _solve_diffusion_cmd(cfg, ns, written):
    op = _slab_operator(cfg)
    if cfg.study.mms:
        return _mms_diffusion_cmd(cfg, op, ns, written)
    if cfg.study.reference == "cosh":
        for name, fld in (("sigma", cfg.problem.sigma),
                          ("gamma", cfg.problem.gamma),
                          ("source", cfg.problem.source)):
            if fld.kind != "constant":
                raise ValidationError(
                    f"cosh reference needs constant coefficients ({name} is "
                    f"{fld.kind})"
                )
    sol = solve_diffusion(cfg.problem, op)
    grid = sol.grid
    nodes = grid.edges
    # gradient interpolated to the nodes so one CSV covers all fields
    grad_nodes = np.empty(nodes.size)
    grad_nodes[1:-1] = 0.5 * (sol.grad[:-1] + sol.grad[1:])
    grad_nodes[0] = -sol.flux[0] / sol.a11[0]
    grad_nodes[-1] = -sol.flux[-1] / sol.a11[-1]
    path = os.path.join(ns.out, "diffusion_solution.csv")
    _write_csv(path, ["x", "u0", "grad_u0", "flux"],
               zip(nodes, sol.u_nodes, grad_nodes, sol.flux), written)

    if cfg.study.reference == "cosh":
        s = cfg.problem.sigma.value
        g = cfg.problem.gamma.value
        f = cfg.problem.source.value
        L = grid.length
        kappa = math.sqrt(g * s / diffusion_moment(op)[0, 0])
        exact = (f / g) * (1.0 - np.cosh(kappa * (nodes - L / 2))
                           / np.cosh(kappa * L / 2))
        max_err = float(np.max(np.abs(sol.u_nodes - exact)))
        print(f"reference max nodal error: {max_err:.6e}")
        _write_json(os.path.join(ns.out, "reference_error.json"),
                    {"reference": "cosh", "max_nodal_error": max_err}, written)

    print(f"diffusion solve: {grid.n_cells} cells, wrote {path}")
    return EXIT_OK


def _mms_transport_cmd(cfg, op, ns, written):
    case = manufactured_case(cfg.study.mms, cfg.problem.grid.length)
    quad = op.quadrature

    def l2_error(grid):
        problem = dataclasses.replace(cfg.problem, grid=grid)
        src = mms_transport_source(case, problem.sigma, problem.gamma, op, grid)
        sol = solve_transport(problem, 1.0, op, cfg.solver, source_override=src)
        exact = case.u(grid.centers[:, None], quad.nodes[None, :])
        return space_velocity_norm(sol.u - exact, grid, quad, 2)

    return _mms_table(cfg, ns, written, "l2_error", l2_error)


def _solve_transport_cmd(cfg, ns, written):
    op = _slab_operator(cfg)
    if cfg.study.mms:
        return _mms_transport_cmd(cfg, op, ns, written)
    quad = op.quadrature
    log_path = os.path.join(ns.out, "iteration_log.json")
    try:
        sol = solve_transport(cfg.problem, ns.eps, op, cfg.solver)
    except ConvergenceError as exc:
        _write_json(log_path, exc.log, written)
        raise
    grid = sol.grid
    xc = grid.centers
    # one row per (cell, ordinate), cells outermost
    rows = np.column_stack([np.repeat(xc, quad.n),
                            np.tile(quad.nodes, grid.n_cells), sol.u.ravel()])
    _write_csv(os.path.join(ns.out, "transport_solution.csv"), ["x", "mu", "u"],
               rows, written)
    _write_csv(os.path.join(ns.out, "transport_average.csv"), ["x", "u_bar"],
               zip(xc, sol.u_bar), written)
    _write_json(log_path, sol.log, written)

    cells = cfg.problem.cell_fields
    ns_set = norms(sol.u, ns.eps, cells["sigma"], cells["gamma"], op, grid,
                   ps=cfg.study.p_norms)
    print(f"transport solve: eps={ns.eps:g}, {sol.log.iterations} iterations, "
          f"balance residual {sol.log.balance_residual:.3e}")
    print(f"  l2={ns_set.l2:.6g}  energy={ns_set.energy:.6g}  "
          f"outflow={outflow_trace(sol).norm():.6g}")
    for p, v in ns_set.lp.items():
        print(f"  l{p:g}={v:.6g}")
    return EXIT_OK


def cmd_solve(cfg, ns, written):
    if ns.eps != 1.0 and (cfg.study.mms or ns.mode == "diffusion"):
        raise ValidationError(
            f"--eps {ns.eps:g}: the diffusion limit and the [study] mms table "
            "solve the unscaled problem, so --eps must be 1")
    if ns.mode == "diffusion":
        return _solve_diffusion_cmd(cfg, ns, written)
    return _solve_transport_cmd(cfg, ns, written)


def cmd_study(cfg, ns, written):
    if not cfg.study.eps:
        raise ValidationError("study requires an eps list in [study]")
    op = _slab_operator(cfg)
    try:
        report = convergence_study(
            cfg.problem, cfg.study.eps, op, cfg.solver,
            ps=cfg.study.p_norms, floor_cells=cfg.study.floor_cells,
        )
        failure = None
    except ConvergenceError as exc:
        report = exc.partial_report
        failure = exc

    _write_csv(os.path.join(ns.out, "report.csv"), ["eps", *report.columns],
               zip(report.eps, *report.columns.values()), written)
    # report.csv holds the columns; slopes.json holds every other field
    slopes = _json_data(report)
    del slopes["columns"]
    _write_json(os.path.join(ns.out, "slopes.json"), slopes, written)
    # one (log10 eps, log10 value) file per column, over its positive values
    for name, values in report.columns.items():
        path = os.path.join(ns.out, f"plot_{name}.dat")
        with open(path, "w", encoding="utf-8") as fh:
            written.append(path)
            fh.writelines("%.17g %.17g\n" % (math.log10(e), math.log10(v))
                          for e, v in zip(report.eps, values) if v > 0.0)

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
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    # every path the command writes; the manifest lists them once it ends,
    # also when it ends in a convergence or certification failure
    written = []
    try:
        cfg = load_config(ns.config)
        os.makedirs(ns.out, exist_ok=True)
        try:
            return ns.func(cfg, ns, written)
        finally:
            if written:
                _write_manifest(ns.out, ["translimit", *argv], ns.config,
                                written)
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
    except OSError as exc:
        print(f"error: cannot write the outputs in --out {ns.out}: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory, the problem is too large for this "
              f"host: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
