"""Fixed reference work that measures how fast the host runs right now.

The host lends the benchmark a share of a CPU whose speed drifts: the same
study took 0.76 s in one minute and 2.2 s in the next, in CPU time as well
as in wall time, so the slowdown is not waiting but a slower core. A raw
wall time then measures the host more than the program. The run therefore
times a reference work between every two operations, and reports each
operation's wall time scaled by the reference's quiet-period time over the
mean of the reference times just before and just after it. Set-up is scaled
by the references before and after the set-up probes. When the host
runs at its quiet-period speed the scaled time equals the wall time.

The reference work is written here and is independent of translimit, so
that it costs the same on every commit. It mimics the kind of work each
workload does, because the host's slowdowns do not hit every kind alike:
the studies spend their time in per-cell Python loops over small numpy
arrays; limit-tensor in LAPACK eigendecompositions, in one small eigen-solve
per cell and in formatting a CSV file.
"""

import os
import statistics
import time

import numpy as np

N_CELLS = 512
N_ORDINATES = 16

# per workload: (sweeps over N_CELLS cells, dense eigendecompositions,
# 3x3 eigen-solves, CSV rows written)
MIX = {
    "smooth-deep": (45, 0, 0, 0),
    "jump-aniso": (45, 0, 0, 0),
    "limit-tensor": (10, 8, 12000, 15000),
}
# wall time of one batch of the study mix on the reference host in a quiet
# period; the limit-tensor mix is sized to take as long (0.94-1.0 of the
# study mix, timed side by side)
QUIET_S = 0.25
DENSE_N = 384


def _sweeps(repeats):
    rng = np.random.default_rng(0)
    mu = np.linspace(-1.0, 1.0, N_ORDINATES)
    pos = mu > 0.0
    neg = ~pos
    h = 1.0 / N_CELLS
    sigma = 1.0 + rng.random(N_CELLS)
    emission = rng.random((N_CELLS, N_ORDINATES))
    cells = np.empty((N_CELLS, N_ORDINATES))
    edges = np.zeros((N_CELLS + 1, N_ORDINATES))
    a_p = mu[pos] / h
    a_n = -mu[neg] / h
    for _ in range(repeats):
        for i in range(N_CELLS):
            e_in = edges[i, pos]
            e_out = ((a_p - 0.5 * sigma[i]) * e_in + emission[i, pos]) / (
                a_p + 0.5 * sigma[i])
            cells[i, pos] = 0.5 * (e_in + e_out)
            edges[i + 1, pos] = e_out
        for i in range(N_CELLS - 1, -1, -1):
            e_in = edges[i + 1, neg]
            e_out = ((a_n - 0.5 * sigma[i]) * e_in + emission[i, neg]) / (
                a_n + 0.5 * sigma[i])
            cells[i, neg] = 0.5 * (e_in + e_out)
            edges[i, neg] = e_out
    return float(cells.sum())


def _dense(repeats):
    a = np.random.default_rng(1).random((DENSE_N, DENSE_N))
    a = a + a.T
    for _ in range(repeats):
        np.linalg.eigh(a)


def _small(count):
    mats = np.random.default_rng(2).random((count, 3, 3))
    mats = mats + mats.transpose(0, 2, 1)
    for mat in mats:
        np.linalg.eigvalsh(mat)


def _csv(rows, path):
    table = np.random.default_rng(3).random((rows, 8))
    with open(path, "w", encoding="utf-8") as fh:
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    os.remove(path)


def reference_work(workload, scratch):
    """Wall time of one batch of the workload's reference work; scratch is
    a file path it may write and removes again."""
    sweeps, dense, small, rows = MIX[workload]
    start = time.perf_counter()
    _sweeps(sweeps)
    _dense(dense)
    _small(small)
    if rows:
        _csv(rows, scratch)
    return time.perf_counter() - start


def scale(wall, references):
    """wall scaled to the quiet-period host speed, by the mean of the
    reference times taken around it."""
    return wall * QUIET_S / statistics.fmean(references)
