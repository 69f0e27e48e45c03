import csv
import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from translimit import (
    CertReport,
    ConvergenceReport,
    FitResult,
    IterationLog,
    KernelSpec,
    build_angular_quadrature,
    build_sphere_quadrature,
    diffusion_tensor,
    solve_transport,
)
from translimit.cli import CSV_BLOCK_ROWS, _json_data, _write_csv, main
from translimit.config import load_config
from translimit.csvtext import MIN_VALUES
from conftest import cell_equation_residual, poison_sweep, spec_kernel

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

ISO = """
[grid]
n_cells = 16
[scattering]
n_ordinates = 8
n_polar = 4
n_azimuth = 8
"""

LINEAR_HALF = """
[grid]
n_cells = 16
[scattering]
kernel = linear
g_factor = 0.5
n_ordinates = 8
n_polar = 4
n_azimuth = 8
"""

LINEAR_ONE = LINEAR_HALF.replace("g_factor = 0.5", "g_factor = 1.0")

# a 16-cell slab whose 1e308 inflow ends the solve in a non-finite change
OVERFLOWING_INFLOW = """
[grid]
n_cells = 16
[scattering]
n_ordinates = 4
[boundary]
g_left = 1e308
"""

SMOOTH_STUDY = """
[grid]
n_cells = 64
[coefficients.sigma]
kind = sinusoid
offset = 1.0
amplitude = 0.5
frequency = 1.0
[scattering]
n_ordinates = 8
[study]
eps = 0.5 0.25 0.125 0.0625
floor_cells = 32
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def check_mms_table(rows, error_name, meshes, length=1.0):
    """Mesh column, h = L/n, and the observed order
    order[i] = log2(err[i-1] / err[i]) / log2(n[i] / n[i-1])."""
    assert [int(r["n_cells"]) for r in rows] == meshes
    assert list(rows[0]) == ["n_cells", "h", error_name, "order"]
    errs = [float(r[error_name]) for r in rows]
    for n, r in zip(meshes, rows):
        assert float(r["h"]) == length / n
    assert math.isnan(float(rows[0]["order"]))
    for i in range(1, len(rows)):
        assert float(rows[i]["order"]) == (math.log2(errs[i - 1] / errs[i])
                                           / math.log2(meshes[i] / meshes[i - 1]))


def reference_write_csv(path, header, rows):
    """The per-value writer that _write_csv replaced, kept as its oracle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


SPECIAL_FLOATS = st.sampled_from([
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e16, 1e17, -1e17, 9007199254740993.0, 1.7976931348623157e308,
    0.1, 1.0 / 3.0,
])


@st.composite
def float_tables(draw):
    """A float table of random bit patterns with drawn special values.  Its
    row count is drawn on both sides of the fewest rows that the writer
    formats as arrays (csvtext.MIN_VALUES values) and up to three blocks."""
    n_cols = draw(st.integers(1, 8))
    fewest = -(-MIN_VALUES // n_cols)
    n_rows = draw(st.sampled_from([0, 1, fewest - 1, fewest, CSV_BLOCK_ROWS - 1,
                                   CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                   2 * CSV_BLOCK_ROWS + fewest])
                  | st.integers(0, 40) | st.integers(0, 3 * CSV_BLOCK_ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, 2**64, size=(n_rows, n_cols), dtype=np.uint64,
                         endpoint=False).view(np.float64)
    if table.size:
        for value in draw(st.lists(st.floats(allow_subnormal=True)
                                   | SPECIAL_FLOATS, max_size=30)):
            table.flat[draw(st.integers(0, table.size - 1))] = value
    return table


def powers_of_ten():
    """10^k for k in [-200, 200], as the nearest doubles."""
    return np.array([float(f"1e{k}") for k in range(-200, 201)])


def largest_below_powers_of_ten():
    """The largest double below each 10^k, k in [-200, 200]; the 11 within
    half a unit of the 17th digit of 10^k carry to 10^17."""
    below = []
    for k, near in zip(range(-200, 201), powers_of_ten()):
        below.append(near if Fraction(near) < Fraction(10) ** k
                     else np.nextafter(near, 0.0))
    return np.array(below)


def dyadic_ties():
    """m 2^-k, odd m < 2^53, whose exact decimal has 18 significant digits
    ending in 5: each lies half-way between two 17-digit decimals."""
    rng = np.random.default_rng(7)
    ties = []
    for k in range(2, 26):
        low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        for m in rng.integers(low, high, size=40):
            m = int(m) | 1
            if len(str(m * 5**k)) == 18:
                ties.append(math.ldexp(m, -k))
    return np.array(ties)


def edge_values():
    """+-1e-200, +-1e200 and their neighbours, subnormals, +-0, nan, +-inf."""
    edges = np.array([1e-200, 1e200])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                            [5e-324, 2.2250738585072009e-308, 1e-310, 0.0,
                             math.nan, math.inf]])
    return np.concatenate([edges, -edges])


FAMILIES = {
    "dyadic_ties": dyadic_ties,
    "powers_of_ten": powers_of_ten,
    "power_neighbours": lambda: np.concatenate([
        np.nextafter(powers_of_ten(), 0.0), np.nextafter(powers_of_ten(), np.inf)]),
    "largest_below_powers": largest_below_powers_of_ten,
    "range_edges": edge_values,
}


class TestWriteCsv:
    """The block writer is byte-identical to the per-value writer."""

    @staticmethod
    def assert_same_bytes(tmp_dir, header, block_rows, reference_rows):
        got, want = tmp_dir / "block.csv", tmp_dir / "reference.csv"
        written = []
        _write_csv(got, header, block_rows, written)
        reference_write_csv(want, header, reference_rows)
        assert got.read_bytes() == want.read_bytes()
        assert written == [got]

    @settings(max_examples=60, deadline=None)
    @given(table=float_tables())
    def test_float_table(self, tmp_path_factory, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        self.assert_same_bytes(tmp_path_factory.mktemp("csv"), header,
                               table, table.tolist())

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-2**62, 2**62),
                                   st.floats() | SPECIAL_FLOATS,
                                   st.floats() | SPECIAL_FLOATS), max_size=12))
    def test_integer_column_rows(self, tmp_path_factory, rows):
        # as in the MMS tables: [n_cells, h, error, order] lists with an int
        self.assert_same_bytes(tmp_path_factory.mktemp("csv"),
                               ["n", "h", "err"], [list(r) for r in rows], rows)

    @settings(max_examples=20, deadline=None)
    @given(table=float_tables())
    def test_zip_of_columns(self, tmp_path_factory, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        self.assert_same_bytes(tmp_path_factory.mktemp("csv"), header,
                               zip(*table.T), zip(*table.T))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_value_family(self, tmp_path, family):
        # both signs, in blocks of whole and of partial width at and above
        # the fewest values formatted as arrays
        values = FAMILIES[family]()
        values = np.concatenate([values, -values])
        for n_cols in (8, 3):
            table = np.resize(values, (max(-(-values.size // n_cols),
                                           3 * MIN_VALUES // n_cols), n_cols))
            header = [f"c{j}" for j in range(n_cols)]
            self.assert_same_bytes(tmp_path, header, table, table.tolist())

    def test_row_width_must_match_header(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "bad.csv", ["a", "b"], np.ones((3, 3)), [])


class TestCertify:
    def test_isotropic_passes(self, tmp_path):
        cfg = write(tmp_path, ISO)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "certification.json").read_text())
        assert abs(payload["c_K"] - 1.0) < 1e-10
        assert payload["all_passed"] is True
        assert set(payload["passed"]) == {
            "self_adjoint", "contraction", "null_space", "solvability",
        }
        assert abs(payload["sphere"]["c_K"] - 1.0) < 1e-10
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "certification.json" in manifest["outputs"]
        assert manifest["versions"]["scipy"] == scipy.__version__
        assert manifest["config_sha256"] == hashlib.sha256(
            Path(cfg).read_bytes()).hexdigest()

    def test_linear_half_passes_with_c_k_two(self, tmp_path):
        cfg = write(tmp_path, LINEAR_HALF)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "certification.json").read_text())
        assert abs(payload["c_K"] - 2.0) < 1e-10

    def test_assembly_warnings_are_written_and_printed(self, tmp_path, capsys):
        # the linear kernel at g = 0.5 is negative between nearly opposed
        # directions; that is recorded but does not gate certification
        cfg = write(tmp_path, LINEAR_HALF)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "certification.json").read_text())
        assert payload["warnings"] == ["kernel takes negative values (min -0.383235)"]
        assert payload["sphere"]["warnings"] == ["kernel takes negative values (min -0.5)"]
        out = capsys.readouterr().out
        assert "  warning: kernel takes negative values (min -0.383235)\n" in out
        assert "  warning: kernel takes negative values (min -0.5)\n" in out

    def test_g_one_fails_with_exit_code_four(self, tmp_path, capsys):
        cfg = write(tmp_path, LINEAR_ONE)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 4
        payload = json.loads((tmp_path / "certification.json").read_text())
        assert payload["null_space_dim"] == 2
        assert payload["all_passed"] is False
        # the degenerate kernel's c_K is inf: null in strict JSON, inf on
        # the console
        assert payload["c_K"] is None
        assert "c_K=inf  null_space_dim=2" in capsys.readouterr().out

    def test_g_factor_under_isotropic_kernel_exits_two(self, tmp_path, capsys):
        # without kernel = linear the g_factor would be dropped silently
        cfg = write(tmp_path, LINEAR_HALF.replace("kernel = linear\n", ""))
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "g_factor" in capsys.readouterr().err
        assert not (tmp_path / "certification.json").exists()


class TestTensor:
    def test_non_finite_sigma_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # sin(2 pi 1e308 x) overflows to sin(inf) = nan at every center
        cfg = write(tmp_path, """
[grid]
n_cells = 8
[coefficients.sigma]
kind = sinusoid
offset = 1
amplitude = 0.5
frequency = 1e308
""")
        out = tmp_path / "out"
        assert main(["tensor", "--config", cfg, "--out", str(out)]) == 2
        assert "sigma values must be finite" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_piecewise_sigma_tensor(self, tmp_path):
        cfg = write(tmp_path, """
[grid]
n_cells = 16
[coefficients.sigma]
kind = piecewise
breakpoints = 0.5
values = 1.0 4.0
[scattering]
n_polar = 4
n_azimuth = 8
""")
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "tensor.csv")
        assert len(rows) == 16
        a11 = np.array([float(r["a11"]) for r in rows])
        np.testing.assert_allclose(a11[:8], 1.0 / 3.0, atol=1e-10)
        np.testing.assert_allclose(a11[8:], 1.0 / 12.0, atol=1e-10)
        summary = json.loads((tmp_path / "tensor_summary.json").read_text())
        assert summary["coercivity_lb"] > 0

    def test_min_eig_matches_per_cell_eigensolve(self, tmp_path):
        # min_eig comes from one eigen-solve of the moment divided by sigma;
        # a per-cell solve of the written tensor agrees to a few ulps
        cfg = write(tmp_path, LINEAR_HALF.replace("n_cells = 16", """n_cells = 16
[coefficients.sigma]
kind = sinusoid
offset = 1.0
amplitude = 0.5"""))
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "tensor.csv")
        for r in rows:
            a = {k: float(v) for k, v in r.items()}
            mat = np.array([[a["a11"], a["a12"], a["a13"]],
                            [a["a12"], a["a22"], a["a23"]],
                            [a["a13"], a["a23"], a["a33"]]])
            np.testing.assert_allclose(a["min_eig"], np.linalg.eigvalsh(mat)[0],
                                       rtol=1e-15)

    def test_certification_gate(self, tmp_path):
        cfg = write(tmp_path, LINEAR_ONE)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    def test_rows_written_block_by_block_keep_every_byte(self, tmp_path):
        # two whole blocks of CSV_BLOCK_ROWS and a partial one, against the
        # per-value writer on the whole (n_cells, 8) table
        n_cells = 2 * CSV_BLOCK_ROWS + 88
        cfg = write(tmp_path, LINEAR_HALF.replace("n_cells = 16", f"""n_cells = {n_cells}
[coefficients.sigma]
kind = sinusoid
offset = 1.0
amplitude = 0.5"""))
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path)]) == 0
        c = load_config(cfg)
        xc = c.problem.grid.centers
        tensor = diffusion_tensor(c.kernel.build(
            build_sphere_quadrature(c.n_polar, c.n_azimuth)), c.problem.sigma(xc))
        table = np.column_stack([
            xc, tensor.moment[np.triu_indices(3)] / tensor.sigma[:, None],
            tensor.eigenvalues[0] / tensor.sigma])
        reference_write_csv(tmp_path / "reference.csv",
                            ["x", "a11", "a12", "a13", "a22", "a23", "a33", "min_eig"],
                            table.tolist())
        assert ((tmp_path / "tensor.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_tracemalloc_peak_of_the_65536_cell_tensor(self, tmp_path):
        # the benchmark's limit-tensor config: a 1152-direction sphere rule
        # and 65536 cells.  A whole 1152^2 kernel table is 10.1 MiB and the
        # (65536, 8) row table 4 MiB; the tiled assembly's one row block is
        # 1.1 MiB, and this command peaks at 2.4 MiB
        cfg = write(tmp_path, """
[grid]
length = 1.0
n_cells = 65536
[coefficients.sigma]
kind = sinusoid
offset = 1.0
amplitude = 0.5
frequency = 1.0
phase = 0.8
[scattering]
kernel = linear
g_factor = 0.6
n_ordinates = 16
n_polar = 24
n_azimuth = 48
""")
        tracemalloc.start()
        try:
            assert main(["tensor", "--config", cfg, "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSolve:
    def test_diffusion_cosh_reference(self, tmp_path):
        cfg = write(tmp_path, """
[grid]
n_cells = 256
[study]
reference = cosh
""")
        rc = main(["solve", "--config", cfg, "--mode", "diffusion",
                   "--out", str(tmp_path)])
        assert rc == 0
        ref = json.loads((tmp_path / "reference_error.json").read_text())
        assert ref["max_nodal_error"] < 1e-4
        rows = read_csv(tmp_path / "diffusion_solution.csv")
        assert len(rows) == 257
        assert float(rows[0]["u0"]) == 0.0 and float(rows[-1]["u0"]) == 0.0

    def test_diffusion_cosh_reference_linear_kernel(self, tmp_path):
        g = 0.5
        text = (CONFIGS / "cosh_benchmark.ini").read_text()
        cfg = write(tmp_path, text + "\n[scattering]\nkernel = linear\n"
                    f"g_factor = {g}\n")
        rc = main(["solve", "--config", cfg, "--mode", "diffusion",
                   "--out", str(tmp_path)])
        assert rc == 0
        # closed form of -(1/(3(1-g))) u'' + u = 1, u(0) = u(1) = 0
        kappa = math.sqrt(3.0 * (1.0 - g) * 1.0 * 1.0)
        rows = read_csv(tmp_path / "diffusion_solution.csv")
        x = np.array([float(r["x"]) for r in rows])
        u0 = np.array([float(r["u0"]) for r in rows])
        exact = 1.0 - np.cosh(kappa * (x - 0.5)) / np.cosh(kappa * 0.5)
        assert np.max(np.abs(u0 - exact)) < 1e-5
        ref = json.loads((tmp_path / "reference_error.json").read_text())
        assert ref["max_nodal_error"] < 1e-5

    def test_cosh_reference_with_varying_sigma_writes_nothing(self, tmp_path,
                                                               capsys):
        # the coefficients are checked before the solve, so no file is left
        # behind that no manifest lists
        text = (CONFIGS / "cosh_benchmark.ini").read_text().replace(
            "[coefficients.sigma]\nkind = constant\nvalue = 1.0",
            "[coefficients.sigma]\nkind = sinusoid\noffset = 1.0\namplitude = 0.5")
        assert "sinusoid" in text
        out = tmp_path / "out"
        rc = main(["solve", "--config", write(tmp_path, text),
                   "--mode", "diffusion", "--out", str(out)])
        assert rc == 2
        assert "constant coefficients" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unknown_reference_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "[study]\nreference = cosh-typo\n")
        rc = main(["solve", "--config", cfg, "--mode", "diffusion",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "cosh-typo" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    def test_transport_divergence_exits_three(self, tmp_path, capsys, monkeypatch):
        # a sweep that turns non-finite mid-solve, as a diverging iteration
        # does: the solve stops at the first non-finite average
        calls = poison_sweep(monkeypatch, 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--mode", "transport", "--eps", "0.001953125",
                       "--config", str(CONFIGS / "smooth_study.ini"),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert len(calls) == 5
        assert "non-finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # the failed solve still leaves its log, listed in the manifest
        log = json.loads((tmp_path / "iteration_log.json").read_text())
        assert log["converged"] is False
        assert log["iterations"] > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["iteration_log.json"]

    def test_transport_solution_dumps(self, tmp_path):
        cfg = write(tmp_path, ISO)
        rc = main(["solve", "--config", cfg, "--mode", "transport",
                   "--eps", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "transport_solution.csv")
        assert len(rows) == 16 * 8
        assert set(rows[0]) == {"x", "mu", "u"}
        avg = read_csv(tmp_path / "transport_average.csv")
        assert set(avg[0]) == {"x", "u_bar"}
        log = json.loads((tmp_path / "iteration_log.json").read_text())
        assert {"residuals", "spectral_radius_estimate", "iterations",
                "max_optical_thickness"} <= set(log)
        # byte-identical to the nested per-cell, per-ordinate rows the
        # command used to build, written by the per-value writer
        config = load_config(cfg)
        quad = build_angular_quadrature(config.n_ordinates)
        sol = solve_transport(config.problem, 0.5, config.kernel.build(quad),
                              config.solver)
        reference = []
        for i, x in enumerate(sol.grid.centers):
            for j, m in enumerate(quad.nodes):
                reference.append([x, m, sol.u[i, j]])
        reference_write_csv(tmp_path / "reference.csv", ["x", "mu", "u"],
                            reference)
        assert ((tmp_path / "transport_solution.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_transport_mms_table(self, tmp_path):
        cfg = write(tmp_path, """
[scattering]
n_ordinates = 8
[study]
mms = transport-trig
meshes = 32 64 128
""")
        rc = main(["solve", "--config", cfg, "--mode", "transport",
                   "--eps", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "mms_table.csv")
        assert len(rows) == 3
        check_mms_table(rows, "l2_error", [32, 64, 128])
        assert float(rows[-1]["order"]) >= 1.9

    def test_diffusion_mms_table(self, tmp_path):
        cfg = write(tmp_path, """
[coefficients.sigma]
kind = sinusoid
offset = 1.0
amplitude = 0.5
[study]
mms = diffusion-sin
meshes = 32 64 128
""")
        rc = main(["solve", "--config", cfg, "--mode", "diffusion",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "mms_table.csv")
        check_mms_table(rows, "max_nodal_error", [32, 64, 128])
        assert float(rows[-1]["order"]) >= 1.9

    def test_diffusion_mms_with_non_finite_sigma_exits_two(self, tmp_path, capsys):
        # the manufactured source takes sigma', here cos(inf): the field is
        # reported, with no numpy RuntimeWarning on stderr before it
        cfg = write(tmp_path, """
[coefficients.sigma]
kind = sinusoid
offset = 1.0
amplitude = 0.5
frequency = 1e308
[study]
mms = diffusion-sin
meshes = 16 32
""")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--config", cfg, "--mode", "diffusion",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "sigma is not finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("meshes", [[32, 96], [64, 32]])
    def test_mms_order_of_any_mesh_pair(self, tmp_path, meshes):
        # the order divides by log2 of the mesh ratio, so it is the
        # method's second order whether the meshes triple or halve
        cfg = write(tmp_path, f"""
[scattering]
n_ordinates = 8
[study]
mms = transport-trig
meshes = {meshes[0]} {meshes[1]}
""")
        rc = main(["solve", "--config", cfg, "--mode", "transport",
                   "--eps", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "mms_table.csv")
        check_mms_table(rows, "l2_error", meshes)
        assert 1.9 <= float(rows[-1]["order"]) <= 2.1

    def test_repeated_mms_mesh_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, """
[scattering]
n_ordinates = 8
[study]
mms = transport-trig
meshes = 32 32
""")
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg, "--mode", "transport",
                   "--eps", "1.0", "--out", str(out)])
        assert rc == 2
        assert "repeated mesh" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, case", [("transport", "diffusion-sin"),
                                            ("diffusion", "transport-trig")])
    def test_mms_case_of_the_other_mode_exits_two(self, tmp_path, capsys,
                                                  mode, case):
        cfg = write(tmp_path, f"""
[scattering]
n_ordinates = 8
[study]
mms = {case}
meshes = 32 64
""")
        rc = main(["solve", "--config", cfg, "--mode", mode,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert f"is not a {mode} case" in capsys.readouterr().err
        assert not (tmp_path / "mms_table.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("meshes", ["1 2 4 8", "2 1 4"])
    def test_mms_exact_solve_has_nan_order(self, tmp_path, meshes):
        # the 1-cell solve is exact at its only (boundary) nodes: log2 of
        # err / 0 or 0 / err raised and ended the run with no table
        cfg = write(tmp_path, f"""
[study]
mms = diffusion-parabola
meshes = {meshes}
""")
        rc = main(["solve", "--config", cfg, "--mode", "diffusion",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "mms_table.csv")
        errs = [float(r["max_nodal_error"]) for r in rows]
        assert errs[[int(r["n_cells"]) for r in rows].index(1)] == 0.0
        for i in range(1, len(rows)):
            order = float(rows[i]["order"])
            assert math.isnan(order) == (errs[i - 1] == 0.0 or errs[i] == 0.0)

    def test_transport_mms_rejects_eps_other_than_one(self, tmp_path, capsys):
        # the table always solved at eps = 1, whatever --eps said
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(CONFIGS / "mms_transport.ini"),
                   "--mode", "transport", "--eps", "0.1", "--out", str(out)])
        assert rc == 2
        assert "--eps" in capsys.readouterr().err
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("eps", ["0.1", "-3", "nan"])
    def test_diffusion_rejects_eps_other_than_one(self, tmp_path, capsys, eps):
        # the diffusion solve used to ignore --eps and exit 0
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(CONFIGS / "cosh_benchmark.ini"),
                   "--mode", "diffusion", "--eps", eps, "--out", str(out)])
        assert rc == 2
        assert "--eps" in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_missing_config_exits_two(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "nope.ini"),
                   "--mode", "transport", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("mode, eps, old, new", [
        ("transport", "inf", "", ""),
        ("transport", "0.125", "length = 1.0", "length = inf"),
        ("transport", "0.125", "offset = 1.0", "offset = inf"),
        ("diffusion", "1.0", "[source]\nkind = constant\nvalue = 1.0",
         "[source]\nkind = constant\nvalue = nan"),
        # finite parameters whose field is nan on the grid: sin(inf)
        ("diffusion", "1.0", "[source]\nkind = constant\nvalue = 1.0",
         "[source]\nkind = sinusoid\noffset = 1.0\nfrequency = 1e308"),
        ("transport", "0.125", "[source]\nkind = constant\nvalue = 1.0",
         "[source]\nkind = sinusoid\noffset = 1.0\nfrequency = 1e308"),
        ("diffusion", "1.0", "frequency = 1.0", "frequency = 1e308"),
        ("transport", "0.125", "frequency = 1.0", "frequency = 1e308"),
    ], ids=["eps", "length", "offset", "source", "source-field-diffusion",
            "source-field-transport", "sigma-field-diffusion",
            "sigma-field-transport"])
    def test_non_finite_input_exits_two(self, tmp_path, capsys, mode, eps, old,
                                        new):
        # each used to end in a scipy ValueError traceback (exit 1), with a
        # nan solution written and exit 0, or in a diverged solve (exit 3)
        text = (CONFIGS / "smooth_study.ini").read_text()
        assert old in text
        out = tmp_path / "out"
        # the message is the whole report: no numpy RuntimeWarning from
        # evaluating the field goes to stderr before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--mode", mode, "--eps", eps, "--config",
                       write(tmp_path, text.replace(old, new)), "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not any(out.glob("*"))

    def test_sigma_overflowing_at_eps_names_the_scaling(self, tmp_path, capsys):
        # sigma = 1e10 is finite; sigma / eps overflows at eps = 1e-300, which
        # used to print numpy's overflow warning and blame the data
        cfg = write(tmp_path, """
[grid]
n_cells = 16
[coefficients.sigma]
kind = constant
value = 1e10
""")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--mode", "transport", "--eps", "1e-300",
                       "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: sigma / eps is not finite at eps = 1e-300"
        assert [line for line in err[1:] if not line.startswith("usage:")] == []
        assert caught == []
        assert not any(out.glob("*"))


class TestStudy:
    def test_smooth_study_outputs(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY)
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "report.csv")
        assert len(rows) == 4
        assert list(rows[0]) == ["eps", "err_total", "err_fluct", "bdry",
                                 "deriv", "remainder", "err_l1", "err_l4",
                                 "energy_ratio", "max_abs"]
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert slopes["rate_asserted"] is True
        assert slopes["notes"] == []
        assert "err_total" in slopes["slopes"]
        # one (log10 eps, log10 value) file per report column
        assert sorted(p.name for p in tmp_path.glob("plot_*.dat")) == sorted(
            f"plot_{name}.dat" for name in list(rows[0])[1:])
        for name in list(rows[0])[1:]:
            assert (tmp_path / f"plot_{name}.dat").read_text() == "".join(
                "%.17g %.17g\n" % (math.log10(float(r["eps"])),
                                    math.log10(float(r[name])))
                for r in rows if float(r[name]) > 0.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "report.csv" in manifest["outputs"]

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["study", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["study", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "slopes.json").read_bytes() == (out2 / "slopes.json").read_bytes()

    def test_discontinuous_flagged(self, tmp_path):
        cfg = write(tmp_path, """
[coefficients.sigma]
kind = piecewise
breakpoints = 0.5
values = 1.0 4.0
[scattering]
n_ordinates = 8
[study]
eps = 0.5 0.25 0.125 0.0625
floor_cells = 32
""")
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert slopes["rate_asserted"] is False
        assert any("rate not asserted" in n for n in slopes["notes"])

    def test_non_geometric_eps_exits_two(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY.replace(
            "eps = 0.5 0.25 0.125 0.0625", "eps = 0.5 0.3 0.2 0.1"))
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_single_eps_exits_two(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY.replace(
            "eps = 0.5 0.25 0.125 0.0625", "eps = 0.5"))
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_eps_exits_two(self, tmp_path):
        cfg = write(tmp_path, ISO)
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", [["study"],
                                         ["solve", "--mode", "transport"]])
    @pytest.mark.parametrize("p", ["0", "-1", "0.5", "nan"])
    def test_p_norm_below_one_exits_two(self, tmp_path, capsys, command, p):
        # an L^p norm needs p >= 1; p = 0 would also divide by zero
        cfg = write(tmp_path, SMOOTH_STUDY + f"p_norms = 1 {p}\n")
        assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "p_norms" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.ini"]

    def test_sup_norm_column(self, tmp_path):
        # p = inf is a norm exponent, not a non-finite input
        cfg = write(tmp_path, SMOOTH_STUDY + "p_norms = 1 inf\n")
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "report.csv")
        assert len(rows) == 4
        assert [k for k in rows[0] if k.startswith("err_l")] == ["err_l1",
                                                                 "err_linf"]
        assert all(float(r["err_linf"]) >= float(r["err_l1"]) for r in rows)

    def test_overflowing_inflow_exits_three_with_its_log(self, tmp_path, capsys):
        # np.linalg.norm overflows on the 5e307 inflow, so every change was
        # nan, neither above nor below a bound, until a 0.0 change reported
        # the solve converged with energy nan
        cfg = write(tmp_path, OVERFLOWING_INFLOW)
        rc = main(["solve", "--mode", "transport", "--eps", "0.5",
                   "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "non-finite change" in capsys.readouterr().err
        log = json.loads((tmp_path / "out" / "iteration_log.json").read_text())
        assert log["converged"] is False
        # strict JSON writes the non-finite residual as null
        assert log["residuals"][-1] is None
        assert all(math.isfinite(r) for r in log["residuals"][:-1])
        assert len(log["residuals"]) == log["iterations"]

    def test_overflowing_inflow_writes_strict_json(self, tmp_path):
        # the log of the overflowing solve held Infinity and NaN, which
        # strict JSON readers reject
        cfg = write(tmp_path, OVERFLOWING_INFLOW)
        out = tmp_path / "out"
        assert main(["solve", "--mode", "transport", "--eps", "0.5",
                     "--config", cfg, "--out", str(out)]) == 3

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        paths = sorted(out.glob("*.json"))
        assert [p.name for p in paths] == ["iteration_log.json", "manifest.json"]
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject)
        log = json.loads((out / "iteration_log.json").read_text())
        assert log["balance_residual"] is None

    def test_convergence_failure_exits_three_with_partial(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY + """
[solver]
acceleration = none
max_iterations = 30
""")
        rc = main(["study", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3
        assert (tmp_path / "report.csv").exists()

    def test_first_row_abort_keeps_every_column(self, tmp_path, monkeypatch):
        # the first row's first sweep turns non-finite, so the study aborts
        # before any row finishes; the header must not depend on that
        poison_sweep(monkeypatch, 1)
        cfg = write(tmp_path, SMOOTH_STUDY)
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 3
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines == ["eps,err_total,err_fluct,bdry,deriv,remainder,"
                         "err_l1,err_l4,energy_ratio,max_abs"]
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert slopes["slopes"] == {} and slopes["notes"] == []

    def test_mesh_too_large_for_an_array_exits_two_before_any_solve(
            self, tmp_path, capsys, monkeypatch):
        # eps = 1e-300 asks for 4e300 cells: numpy raised "Maximum allowed
        # size exceeded" from the first row's cell centers, a traceback
        import translimit.analysis as analysis

        solved = []
        monkeypatch.setattr(analysis, "solve_transport",
                            lambda *a, **k: solved.append(a))
        monkeypatch.setattr(analysis, "solve_diffusion",
                            lambda *a, **k: solved.append(a))
        cfg = write(tmp_path, "[study]\neps = 1e-300 5e-301 2.5e-301 1.25e-301\n")
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 2
        assert "n_cells = 4.0000e+300 exceeds the largest array size" in (
            capsys.readouterr().err)
        assert solved == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["study"], ["solve", "--mode", "transport", "--eps", "0.5"]])
    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch,
                                     command):
        import translimit.transport as transport

        def allocation(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.2 EiB for an array")

        monkeypatch.setattr(transport, "SweepPlan", allocation)
        cfg = write(tmp_path, SMOOTH_STUDY)
        rc = main([*command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "out of memory" in err and "Unable to allocate" in err
        assert "Traceback" not in err

    def test_builds_the_operator_once(self, tmp_path, monkeypatch):
        # every eps row shares the operator the command builds
        built = []
        build = KernelSpec.build
        monkeypatch.setattr(KernelSpec, "build",
                            lambda self, q: built.append(q) or build(self, q))
        cfg = write(tmp_path, SMOOTH_STUDY)
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "report.csv")) == 4
        assert len(built) == 1


MANIFEST_CASES = {
    "certify": (["certify"], ISO, 0),
    "certify-g-one": (["certify"], LINEAR_ONE, 4),
    "tensor": (["tensor"], ISO, 0),
    "study": (["study"], SMOOTH_STUDY, 0),
    "study-aborted": (["study"], SMOOTH_STUDY + """
[solver]
acceleration = none
max_iterations = 30
""", 3),
    "diffusion-cosh": (["solve", "--mode", "diffusion"],
                       (CONFIGS / "cosh_benchmark.ini").read_text(), 0),
    "transport": (["solve", "--mode", "transport", "--eps", "0.5"], ISO, 0),
    "transport-diverges": (["solve", "--mode", "transport",
                            "--eps", repr(2.0**-12)],
                           (CONFIGS / "smooth_study.ini").read_text() + """
[solver]
acceleration = none
max_iterations = 10
""", 3),
    "mms": (["solve", "--mode", "transport", "--eps", "1"], """
[scattering]
n_ordinates = 8
[study]
mms = transport-trig
meshes = 32 64
""", 0),
}


class TestOutputDirectory:
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        # os.makedirs raised FileExistsError: a traceback and exit 1
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["certify", "--config", write(tmp_path, ISO),
                   "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "certification.json").mkdir(parents=True)
        rc = main(["certify", "--config", write(tmp_path, ISO),
                   "--out", str(out)])
        assert rc == 2
        assert str(out / "certification.json") in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unwritable_manifest_exits_two(self, tmp_path, capsys):
        # the manifest is written in a finally block once the command ends
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        rc = main(["certify", "--config", write(tmp_path, ISO),
                   "--out", str(out)])
        assert rc == 2
        assert str(out / "manifest.json") in capsys.readouterr().err
        assert (out / "certification.json").is_file()


def field_names(record_type):
    return {f.name for f in dataclasses.fields(record_type)}


class TestJsonData:
    def test_numpy_scalars_become_python_numbers(self):
        data = _json_data([np.float64(0.5), np.int64(3), np.bool_(True)])
        assert data == [0.5, 3, True]
        assert [type(v) for v in data] == [float, int, bool]

    def test_ndarray_becomes_nested_lists(self):
        data = _json_data(np.array([[1.0, np.nan], [np.inf, 2.0]]))
        assert data == [[1.0, None], [None, 2.0]]
        assert type(data[0][0]) is float

    def test_nested_tuples_become_lists(self):
        assert _json_data((1, (2.0, (np.float64(-np.inf),)))) == [1, [2.0, [None]]]

    def test_fit_result_inside_a_dict(self):
        data = _json_data({"err": FitResult(slope=1.0, intercept=np.float64(0.5),
                                             stderr=float("nan"))})
        assert data == {"err": {"slope": 1.0, "intercept": 0.5, "stderr": None}}
        assert json.loads(json.dumps(data, allow_nan=False)) == data

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       np.float64("nan"), np.float64("-inf")])
    def test_non_finite_floats_become_null(self, value):
        assert _json_data({"v": [value]}) == {"v": [None]}


class TestJsonRecords:
    """Each JSON file holds its record's fields, so a field added to a
    record reaches its file."""

    def test_iteration_log_holds_the_log_fields(self, tmp_path):
        cfg = write(tmp_path, ISO)
        assert main(["solve", "--config", cfg, "--mode", "transport",
                     "--eps", "0.5", "--out", str(tmp_path)]) == 0
        log = json.loads((tmp_path / "iteration_log.json").read_text())
        assert set(log) == field_names(IterationLog)

    def test_unconverged_log_holds_the_log_fields(self, tmp_path):
        cfg = write(tmp_path, OVERFLOWING_INFLOW)
        assert main(["solve", "--config", cfg, "--mode", "transport",
                     "--out", str(tmp_path)]) == 3
        log = json.loads((tmp_path / "iteration_log.json").read_text())
        assert set(log) == field_names(IterationLog)
        assert log["converged"] is False

    def test_certification_holds_both_reports_fields(self, tmp_path):
        cfg = write(tmp_path, LINEAR_HALF)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "certification.json").read_text())
        sphere = payload.pop("sphere")
        assert set(payload) == field_names(CertReport) | {"all_passed"}
        assert set(sphere) == field_names(CertReport) | {"all_passed"}
        assert payload["all_passed"] is sphere["all_passed"] is True

    def test_slopes_holds_the_report_fields_but_columns(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY)
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert set(slopes) == field_names(ConvergenceReport) - {"columns"}
        assert set(slopes["slopes"]["err_total"]) == field_names(FitResult)


class TestManifest:
    @pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
    def test_lists_exactly_the_files_written(self, tmp_path, case):
        command, text, code = MANIFEST_CASES[case]
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        argv = [*command, "--config", cfg, "--out", str(out)]
        assert main(argv) == code
        manifest = json.loads((out / "manifest.json").read_text())
        files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert files
        assert manifest["outputs"] == files
        assert manifest["command"] == ["translimit", *argv]


class TestThickCasesConverge:
    """Inputs on which the DSA-accelerated source iteration diverged now
    converge; each solution is checked through the discrete cell equations,
    which do not depend on the solver."""

    def test_64_cells_at_eps_2_to_the_minus_9(self, tmp_path):
        path = CONFIGS / "smooth_study.ini"
        eps = 2.0**-9
        assert main(["solve", "--mode", "transport", "--eps", repr(eps),
                     "--config", str(path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "iteration_log.json").read_text())["converged"]
        config = load_config(str(path))
        op = config.kernel.build(build_angular_quadrature(config.n_ordinates))
        sol = solve_transport(config.problem, eps, op, config.solver)
        assert config.problem.grid.n_cells == 64
        assert cell_equation_residual(sol, config.problem, eps,
                                      spec_kernel(config.kernel)) <= 1e-9

    def test_64_cells_at_eps_2_to_the_minus_12(self):
        # sigma_t h reaches 96, where the finite-volume DSA amplifies a
        # rounding-level residual
        config = load_config(str(CONFIGS / "smooth_study.ini"))
        op = config.kernel.build(build_angular_quadrature(config.n_ordinates))
        eps = 2.0**-12
        sol = solve_transport(config.problem, eps, op, config.solver)
        assert sol.log.converged
        assert sol.log.iterations <= 40
        assert cell_equation_residual(sol, config.problem, eps,
                                      spec_kernel(config.kernel)) <= 1e-9

    def test_sigma_four_and_a_half_study(self, tmp_path, monkeypatch):
        import translimit.analysis as analysis

        text = (CONFIGS / "smooth_study.ini").read_text().replace(
            "kind = sinusoid\noffset = 1.0\namplitude = 0.5\nfrequency = 1.0",
            "kind = constant\nvalue = 4.5").replace(
            "eps = 0.5 0.25 0.125 0.0625 0.03125 0.015625",
            "eps = 0.5 0.25 0.125 0.0625 0.03125 0.015625 0.0078125")
        assert "value = 4.5" in text and "0.0078125" in text
        solved = []
        original = analysis.solve_transport

        def keep(problem, eps, op, options=None):
            sol = original(problem, eps, op, options)
            solved.append((sol, problem, eps, op))
            return sol

        monkeypatch.setattr(analysis, "solve_transport", keep)
        cfg = write(tmp_path, text)
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "report.csv")) == 7
        assert len(solved) == 7
        kernel = spec_kernel(load_config(cfg).kernel)
        for sol, problem, eps, op in solved:
            assert cell_equation_residual(sol, problem, eps, kernel) <= 1e-9
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert 0.85 <= slopes["slopes"]["err_total"]["slope"] <= 1.15
