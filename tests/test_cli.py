import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translimit import build_angular_quadrature, solve_transport
from translimit.cli import CSV_BLOCK_ROWS, _write_csv, main
from translimit.config import load_config

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
ROW_COUNTS = st.sampled_from([0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                              CSV_BLOCK_ROWS + 1]) | st.integers(0, 40)


@st.composite
def float_tables(draw):
    """A float table of random bit patterns with drawn special values."""
    n_rows = draw(ROW_COUNTS)
    n_cols = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, 2**64, size=(n_rows, n_cols), dtype=np.uint64,
                         endpoint=False).view(np.float64)
    if table.size:
        for value in draw(st.lists(st.floats(allow_subnormal=True)
                                   | SPECIAL_FLOATS, max_size=30)):
            table.flat[draw(st.integers(0, table.size - 1))] = value
    return table


class TestWriteCsv:
    """The block writer is byte-identical to the per-value writer."""

    @staticmethod
    def assert_same_bytes(tmp_dir, header, block_rows, reference_rows):
        got, want = tmp_dir / "block.csv", tmp_dir / "reference.csv"
        _write_csv(got, header, block_rows)
        reference_write_csv(want, header, reference_rows)
        assert got.read_bytes() == want.read_bytes()

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

    def test_row_width_must_match_header(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "bad.csv", ["a", "b"], np.ones((3, 3)))


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
        assert manifest["config_sha256"] == hashlib.sha256(
            Path(cfg).read_bytes()).hexdigest()

    def test_linear_half_passes_with_c_k_two(self, tmp_path):
        cfg = write(tmp_path, LINEAR_HALF)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "certification.json").read_text())
        assert abs(payload["c_K"] - 2.0) < 1e-10

    def test_g_one_fails_with_exit_code_four(self, tmp_path):
        cfg = write(tmp_path, LINEAR_ONE)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 4
        payload = json.loads((tmp_path / "certification.json").read_text())
        assert payload["null_space_dim"] == 2
        assert payload["all_passed"] is False


class TestTensor:
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

    def test_transport_divergence_exits_three(self, tmp_path, capsys):
        # 64 cells at eps = 2^-9 are optically thick (sigma_t h ~ 8), where
        # the DSA diverges; the solve stops at the first non-finite average
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--mode", "transport", "--eps", "0.001953125",
                       "--config", str(CONFIGS / "smooth_study.ini"),
                       "--out", str(tmp_path)])
        assert rc == 3
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
        assert {"residuals", "spectral_radius_estimate", "iterations"} <= set(log)
        # byte-identical to the nested per-cell, per-ordinate rows the
        # command used to build, written by the per-value writer
        config = load_config(cfg)
        quad = build_angular_quadrature(config.n_ordinates)
        sol = solve_transport(config.problem, 0.5, quad, config.solver,
                              operator=config.problem.kernel.build(quad))
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
        assert float(rows[-1]["order"]) >= 1.9

    def test_missing_config_exits_two(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "nope.ini"),
                   "--mode", "transport", "--out", str(tmp_path)])
        assert rc == 2


class TestStudy:
    def test_smooth_study_outputs(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY)
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "report.csv")
        assert len(rows) == 4
        assert set(rows[0]) == {"eps", "err_total", "err_fluct", "bdry",
                                "deriv", "remainder", "err_l1", "err_l4"}
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert slopes["rate_asserted"] is True
        assert "err_total" in slopes["slopes"]
        assert (tmp_path / "plot_err_total.dat").exists()
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

    def test_convergence_failure_exits_three_with_partial(self, tmp_path):
        cfg = write(tmp_path, SMOOTH_STUDY + """
[solver]
acceleration = none
max_iterations = 30
""")
        rc = main(["study", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3
        assert (tmp_path / "report.csv").exists()
