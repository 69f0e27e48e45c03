import math
from pathlib import Path

import pytest

from translimit import StudySpec, ValidationError, load_config
from translimit.cli import main

FULL = """
[grid]
length = 1.0
n_cells = 128

[coefficients.sigma]
kind = sinusoid
offset = 1.0
amplitude = 0.5
frequency = 1.0

[coefficients.gamma]
kind = constant
value = 1.0

[source]
kind = constant
value = 1.0

[boundary]
g_left = 0.0
g_right = 0.25

[scattering]
kernel = linear
g_factor = 0.5
n_ordinates = 8
n_polar = 4
n_azimuth = 8

[solver]
scheme = diamond
tolerance = 1e-11
max_iterations = 300
acceleration = dsa

[study]
eps = 0.5 0.25 0.125 0.0625
p_norms = 1 4
floor_cells = 32
"""


def write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path, FULL))
        p = cfg.problem
        assert p.grid.n_cells == 128
        assert p.sigma.kind == "sinusoid" and p.sigma.amplitude == 0.5
        assert p.gamma.value == 1.0
        assert p.g_right == 0.25
        assert cfg.kernel.kind == "linear" and cfg.kernel.g_factor == 0.5
        assert cfg.n_ordinates == 8
        assert cfg.solver.tolerance == 1e-11
        assert cfg.solver.max_iterations == 300
        assert cfg.study.eps == (0.5, 0.25, 0.125, 0.0625)
        assert cfg.study.floor_cells == 32

    def test_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[grid]\nn_cells = 10\n"))
        assert cfg.problem.sigma.value == 1.0
        assert cfg.problem.gamma.value == 1.0
        assert cfg.problem.source.value == 1.0
        assert cfg.kernel.kind == "isotropic"
        assert cfg.problem.g_left == 0.0
        assert cfg.solver.scheme == "diamond"
        assert cfg.n_ordinates == 16
        assert cfg.study.eps == ()

    def test_piecewise_field(self, tmp_path):
        text = """
[coefficients.sigma]
kind = piecewise
breakpoints = 0.5
values = 1.0 4.0
"""
        cfg = load_config(write(tmp_path, text))
        assert cfg.problem.sigma.values == (1.0, 4.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(str(tmp_path / "absent.ini"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown config section"):
            load_config(write(tmp_path, "[mystery]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown keys"):
            load_config(write(tmp_path, "[grid]\nwidth = 1\n"))

    def test_kind_mismatched_keys(self, tmp_path):
        text = "[coefficients.sigma]\nkind = constant\namplitude = 1\n"
        with pytest.raises(ValidationError, match="do not apply"):
            load_config(write(tmp_path, text))

    def test_study_scaling_rejected(self, tmp_path):
        # eps alone scales the data; the eps-independent problem is eps = 1
        with pytest.raises(ValidationError, match=r"unknown keys \['scaling'\]"):
            load_config(write(tmp_path, "[study]\nscaling = unscaled\n"))

    def test_g_factor_needs_the_linear_kernel(self, tmp_path):
        for text in ("[scattering]\ng_factor = 0.5\n",
                     "[scattering]\nkernel = isotropic\ng_factor = 0.0\n"):
            with pytest.raises(ValidationError,
                               match="do not apply to kernel 'isotropic'"):
                load_config(write(tmp_path, text))
        cfg = load_config(write(tmp_path, "[scattering]\nkernel = linear\n"))
        assert cfg.kernel.g_factor == 0.0

    def test_meshes_must_be_integers(self, tmp_path, capsys):
        # a fractional mesh size was truncated and run without a word
        with pytest.raises(ValidationError,
                           match=r"\[study\] meshes = '16.9' is not an integer"):
            load_config(write(tmp_path, "[study]\nmeshes = 16.9 32.2\n"))
        assert load_config(write(tmp_path, "[study]\nmeshes = 16 32\n")).study.meshes == (16, 32)
        mms = Path(__file__).resolve().parents[1] / "demos" / "configs" / "mms_transport.ini"
        text = mms.read_text().replace("meshes = 32 64 128 256", "meshes = 16.9 32.2")
        assert "meshes = 16.9 32.2" in text
        cfg = write(tmp_path, text)
        assert main(["solve", "--mode", "transport", "--eps", "1", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "meshes" in capsys.readouterr().err

    def test_repeated_mesh_rejected(self, tmp_path):
        # a repeated mesh has no order: log2(n / n) = 0 would divide by zero
        with pytest.raises(ValidationError, match="repeated mesh"):
            load_config(write(tmp_path, "[study]\nmeshes = 32 64 32\n"))
        assert load_config(write(tmp_path, "[study]\nmeshes = 64 32\n")).study.meshes == (64, 32)

    def test_repeated_p_norm_rejected(self, tmp_path, capsys):
        # p_norms = 4 4 ran one err_l4 column and exited 0
        with pytest.raises(ValidationError, match=r"p_norms = \(4.0, 4.0\)"):
            load_config(write(tmp_path, "[study]\np_norms = 4 4\n"))
        with pytest.raises(ValidationError, match="repeated p"):
            load_config(write(tmp_path, "[study]\np_norms = 1 4 4.0\n"))
        assert load_config(write(tmp_path, "[study]\np_norms = 4 1\n")).study.p_norms == (4.0, 1.0)
        cfg = write(tmp_path, "[study]\neps = 0.5 0.25 0.125 0.0625\np_norms = 4 4\n")
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 2
        assert "p_norms" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_number(self, tmp_path):
        with pytest.raises(ValidationError, match="not a number"):
            load_config(write(tmp_path, "[grid]\nlength = tall\n"))

    @pytest.mark.parametrize("text", [
        "[grid]\nlength = inf\n",
        "[source]\nvalue = nan\n",
        "[coefficients.sigma]\nkind = sinusoid\noffset = inf\n",
        "[boundary]\ng_left = -inf\n",
        "[study]\neps = 0.5 inf\n",
        "[coefficients.gamma]\nkind = piecewise\nbreakpoints = nan\nvalues = 1 2\n",
    ], ids=["length", "source", "offset", "g-left", "eps-list", "breakpoints"])
    def test_non_finite_number_rejected(self, tmp_path, text):
        with pytest.raises(ValidationError, match="finite"):
            load_config(write(tmp_path, text))

    def test_p_norms_allow_inf(self, tmp_path):
        cfg = load_config(write(tmp_path, "[study]\np_norms = 1 inf\n"))
        assert cfg.study.p_norms == (1.0, float("inf"))
        with pytest.raises(ValidationError, match="p_norms"):
            load_config(write(tmp_path, "[study]\np_norms = 1 nan\n"))

    def test_piecewise_requires_both_lists(self, tmp_path):
        text = "[coefficients.sigma]\nkind = piecewise\nbreakpoints = 0.5\n"
        with pytest.raises(ValidationError):
            load_config(write(tmp_path, text))

    def test_balance_target_is_an_unknown_key(self, tmp_path, capsys):
        # the tolerance gates the balance too, so the solver has no
        # separate balance threshold
        path = write(tmp_path, "[solver]\nbalance_target = 1e-10\n")
        assert main(["certify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "unknown keys ['balance_target']" in capsys.readouterr().err

    def test_table_kernel_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="table_path"):
            load_config(write(tmp_path, "[scattering]\ntable_path = k.txt\n"))
        with pytest.raises(ValidationError, match="unknown kernel kind"):
            load_config(write(tmp_path, "[scattering]\nkernel = table\n"))

    def test_gamma_zero_rejected_at_validation(self, tmp_path):
        text = "[coefficients.gamma]\nkind = constant\nvalue = 0.0\n"
        with pytest.raises(ValidationError, match="gamma"):
            load_config(write(tmp_path, text))

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        # a 0xff byte ended in a UnicodeDecodeError traceback (exit 1)
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[grid]\nlength = 1\xff\n")
        with pytest.raises(ValidationError, match="cannot read config"):
            load_config(str(path))
        out = tmp_path / "out"
        assert main(["certify", "--config", str(path), "--out", str(out)]) == 2
        assert "utf-8" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_path_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read config"):
            load_config(str(tmp_path))


# each section with every key written out at its documented default, and
# the section that leaves all of them out
WRITTEN_DEFAULTS = {
    "grid": ("[grid]\nlength = 1.0\nn_cells = 100\n", ""),
    "sigma": ("[coefficients.sigma]\nkind = constant\nvalue = 1\n", ""),
    "gamma": ("[coefficients.gamma]\nkind = constant\nvalue = 1\n", ""),
    "source": ("[source]\nkind = constant\nvalue = 1\n", ""),
    "sinusoid": ("[source]\nkind = sinusoid\noffset = 0\namplitude = 0\n"
                 "frequency = 1\nphase = 0\n", "[source]\nkind = sinusoid\n"),
    "boundary": ("[boundary]\ng_left = 0\ng_right = 0\n", ""),
    "scattering": ("[scattering]\nkernel = isotropic\nn_ordinates = 16\n"
                   "n_polar = 8\nn_azimuth = 16\n", ""),
    "linear": ("[scattering]\nkernel = linear\ng_factor = 0\n",
               "[scattering]\nkernel = linear\n"),
    "solver": ("[solver]\nscheme = diamond\ntolerance = 1e-10\n"
               "max_iterations = 200\nacceleration = dsa\n", ""),
    "study": ("[study]\np_norms = 1 4\nmeshes = 32 64 128 256\n"
              "floor_cells = 64\n", ""),
}


class TestDefaults:
    @pytest.mark.parametrize("written, omitted", WRITTEN_DEFAULTS.values(),
                             ids=WRITTEN_DEFAULTS.keys())
    def test_written_defaults_load_as_omitted_keys(self, tmp_path, written,
                                                   omitted):
        assert (load_config(write(tmp_path, written, "written.ini"))
                == load_config(write(tmp_path, omitted, "omitted.ini")))

    @pytest.mark.parametrize("kwargs, match", [
        ({"p_norms": (1.0, 0.5)}, "p_norms"),
        ({"p_norms": (1.0, math.nan)}, "p_norms"),
        ({"reference": "sinh"}, "reference"),
        ({"meshes": (32, 64, 32)}, "repeated mesh"),
        ({"p_norms": (1.0, math.inf, math.inf)}, "repeated p"),
    ], ids=["p-below-one", "p-nan", "reference", "repeated-mesh", "repeated-p"])
    def test_study_spec_checks(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            StudySpec(**kwargs)

    def test_study_spec_accepts_its_defaults_and_sup_norm(self):
        assert StudySpec().p_norms == (1.0, 4.0)
        assert StudySpec(p_norms=(1.0, math.inf), reference="cosh").reference == "cosh"
