#!/usr/bin/env python3
"""Show that every output check of the benchmark can fail.

Runs one operation of each workload, then hands each check a copy of the
outputs with one deliberate perturbation and reports whether it caught it.
Exits 1 if any perturbation passes unnoticed.

    python3 bench/check_selftest.py [--seed 0]
"""

import argparse
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy is imported

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    change(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def edit_csv(path, change):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    change(table)
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


def set_slope(name, value):
    def change(p):
        p["slopes"][name]["slope"] = value
    return lambda out: edit_json(os.path.join(out, "slopes.json"), change)


def shift_eigenvalue(where, target, delta):
    def change(p):
        report = p if where == "slab" else p["sphere"]
        lam = report["eigenvalues"]
        i = int(np.argmin(np.abs(np.asarray(lam) - target)))
        lam[i] += delta
    return lambda out: edit_json(os.path.join(out, "certification.json"), change)


def scale_entry(path_name, key, factor):
    def change(p):
        p[key] *= factor
    return lambda out: edit_json(os.path.join(out, path_name), change)


def tensor_cell(column, value_fn):
    def change(table):
        table[1000, column] = value_fn(table[1000])
    return lambda out: edit_csv(os.path.join(out, "tensor.csv"), change)


def err_total_column(make):
    def change(table):
        table[:, 1] = make(table[:, 1])
    return lambda out: edit_csv(os.path.join(out, "report.csv"), change)


def cases(wl):
    """(description, perturbation, exit codes, expect) per check; expect is
    "problem" (flagged as wrong), "failure" (the known fault) or "pass"."""
    ok = [0] * len(wl.commands)
    bad = [1] + ok[1:]
    if wl.name == "smooth-deep":
        return [
            ("command exit code 1", None, bad, "problem"),
            ("err_total slope 0.5", set_slope("err_total", 0.5), ok, "problem"),
            ("remainder slope 1.3", set_slope("remainder", 1.3), ok, "problem"),
            ("bdry slope 0.6", set_slope("bdry", 0.6), ok, "problem"),
            ("deriv slope 0.5", set_slope("deriv", 0.5), ok, "problem"),
        ]
    if wl.name == "jump-aniso":
        return [
            ("command exit code 1", None, bad, "problem"),
            ("err_fluct slope 0.5", set_slope("err_fluct", 0.5), ok, "problem"),
            ("bdry slope 1.4", set_slope("bdry", 1.4), ok, "problem"),
            ("err_total made to halve along the sweep",
             err_total_column(lambda c: c[0] * 0.5 ** np.arange(c.size)), ok, "pass"),
            ("err_total rising at the last eps",
             err_total_column(lambda c: np.append(0.5 ** np.arange(c.size - 1), 1.0)),
             ok, "failure"),
        ]
    g = wl.params["g"]
    return [
        ("certify exit code 4", None, [4, 0], "problem"),
        ("slab 1-g eigenvalue moved by 1e-6",
         shift_eigenvalue("slab", 1.0 - g, 1e-6), ok, "problem"),
        ("sphere 1-g eigenvalue moved to 1",
         shift_eigenvalue("sphere", 1.0 - g, g), ok, "problem"),
        ("c_K scaled by 1 + 1e-6",
         scale_entry("certification.json", "c_K", 1.0 + 1e-6), ok, "problem"),
        ("coercivity_lb scaled by 1 + 1e-6",
         scale_entry("tensor_summary.json", "coercivity_lb", 1.0 + 1e-6), ok, "problem"),
        ("one a22 scaled by 1 + 1e-6",
         tensor_cell(4, lambda row: row[4] * (1.0 + 1e-6)), ok, "problem"),
        ("one min_eig scaled by 1 - 1e-6",
         tensor_cell(7, lambda row: row[7] * (1.0 - 1e-6)), ok, "problem"),
        ("one a13 set to 1e-6 a11",
         tensor_cell(3, lambda row: row[1] * 1e-6), ok, "problem"),
    ]


def verdict(outcome):
    if outcome.problems:
        return "problem"
    return "failure" if outcome.failure else "pass"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    translimit = run.import_translimit()
    missed = 0
    for name in workloads.NAMES:
        wl = workloads.build(name, args.seed)
        work = os.path.join(run.OUT_ROOT, "selftest", name)
        os.makedirs(work, exist_ok=True)
        config = os.path.join(work, "config.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(wl.config_text)
        pristine = os.path.join(work, "op")
        _, outcome = run.run_op(translimit.cli, wl, config, pristine)
        print(f"{name}: unperturbed output -> {verdict(outcome)}"
              + (f" ({outcome.failure})" if outcome.failure else ""))
        for text, perturb, codes, expect in cases(wl):
            copy = os.path.join(work, "perturbed")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(pristine, copy)
            if perturb is not None:
                perturb(copy)
            got = verdict(wl.check(copy, codes, wl.params))
            missed += got != expect
            print(f"  {'ok  ' if got == expect else 'MISS'} {text}: "
                  f"expected {expect}, got {got}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
