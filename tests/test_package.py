import ast
import os
import subprocess
import sys
from pathlib import Path

import translimit
from translimit import (
    analysis,
    config,
    diffusion,
    errors,
    problem,
    transport,
    velocity_space,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(*args):
    """The completed run of a fresh interpreter, given args, that imports
    this checkout's translimit."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def cold_import(code):
    """The stdout of code run in a fresh interpreter that imports this
    checkout's translimit."""
    out = fresh_python("-c", code)
    out.check_returncode()
    return out.stdout.strip()


def test_every_exported_name_resolves():
    missing = [name for name in translimit.__all__ if not hasattr(translimit, name)]
    assert missing == []


def test_exports_are_the_modules_public_names():
    modules = (errors, velocity_space, problem, diffusion, transport, analysis,
               config)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(translimit.__all__) == sorted(["__version__", *names])


def test_module_entry_point_help_names_every_command():
    out = fresh_python("-m", "translimit", "--help")
    assert out.returncode == 0
    assert all(command in out.stdout
               for command in ("certify", "tensor", "solve", "study"))


def test_module_entry_point_passes_on_the_exit_code(tmp_path):
    # sys.exit(main()) turns a validation error into exit 2
    out = fresh_python("-m", "translimit", "study", "--config",
                       str(tmp_path / "missing.ini"), "--out", str(tmp_path / "out"))
    assert out.returncode == 2
    assert "cannot read config" in out.stderr


def test_cli_import_starts_no_process_machinery():
    # the study runs serially, so nothing may start worker processes
    assert cold_import(
        "import sys, translimit.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    ) == "[]"


def test_cli_import_builds_no_formatting_table():
    # cached tables, the CSV formatter's among them, are built on first use
    # (its by the first large block), so a command's start-up does not pay
    # for them; every module-level cache of the package is checked
    sizes = ast.literal_eval(cold_import(
        "import sys, translimit.cli; "
        "print({f'{m}.{n}': f.cache_info().currsize "
        "for m in sorted(sys.modules) if m.startswith('translimit') "
        "for n, f in vars(sys.modules[m]).items() if hasattr(f, 'cache_info')})"
    ))
    assert "translimit.csvtext._tables" in sizes
    assert {name: size for name, size in sizes.items() if size} == {}


def modules_with(match):
    """The names of the modules under src/translimit with a syntax node
    for which match(node) is true."""
    return {
        path.stem
        for path in (SRC / "translimit").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if match(node)
    }


def test_only_cli_and_config_open_files():
    # config reads the config file; cli writes every output and hashes the
    # config for the manifest.  The library returns records, so no other
    # module opens a file.
    assert modules_with(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"
    ) == {"cli", "config"}


def test_only_problem_reads_the_inflow_data():
    # scaled_fields checks g_left and g_right and scales them into the one
    # inflow vector that the solver and the analysis read; no other module
    # reads them, as attributes or as keys
    names = ("g_left", "g_right")
    assert modules_with(
        lambda node: isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Subscript)
        and getattr(node.slice, "value", None) in names
    ) == {"problem"}


LINEAR_SPHERE = """
[grid]
n_cells = 16
[scattering]
kernel = linear
g_factor = 0.5
n_ordinates = 8
n_polar = 4
n_azimuth = 8
"""


def loads_scipy_linalg_after(tmp_path, *commands):
    """Whether a fresh interpreter that runs the cli commands, in order, on
    a small linear-kernel config ends with scipy.linalg imported."""
    config = tmp_path / "linear.ini"
    config.write_text(LINEAR_SPHERE)
    paths = ["--config", str(config), "--out", str(tmp_path / "out")]
    runs = "; ".join(f"assert cli.main({[*command, *paths]!r}) == 0"
                     for command in commands)
    # the commands print their summaries first
    return cold_import(
        f"import sys, translimit.cli as cli; {runs}; "
        "print('scipy.linalg' in sys.modules)").splitlines()[-1] == "True"


def test_cli_import_leaves_scipy_linalg_unloaded():
    # the LAPACK routines load on the first solve (translimit._lapack)
    assert cold_import(
        "import sys, translimit.cli; print('scipy.linalg' in sys.modules)"
    ) == "False"


def test_certify_and_tensor_run_without_scipy_linalg(tmp_path):
    assert not loads_scipy_linalg_after(tmp_path, ["certify"], ["tensor"])


def test_transport_solve_loads_scipy_linalg(tmp_path):
    assert loads_scipy_linalg_after(tmp_path, ["solve", "--mode", "transport"])


def test_only_the_lapack_module_imports_scipy_linalg():
    # transport, diffusion and krylov read their routines from _lapack, so
    # scipy.linalg stays out of every import but the first solve's
    def is_linalg(name):
        return name == "scipy.linalg" or name.startswith("scipy.linalg.")

    assert modules_with(
        lambda node: isinstance(node, ast.Import)
        and any(is_linalg(alias.name) for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (is_linalg(node.module or "") or node.module == "scipy"
             and any(alias.name == "linalg" for alias in node.names))
        or isinstance(node, ast.Attribute) and node.attr == "linalg"
        and getattr(node.value, "id", None) == "scipy"
    ) == {"_lapack"}
