"""The benchmark's traced run wraps functions by the names its modules use.

bench/tracing.py looks each (module, attribute) of WRAPPED up on the
translimit package and swaps the attribute in place.  A rename inside the
package would only surface when the traced benchmark runs, and a wrapped
name kept only as a dead import would silently zero its layer; these tests
make both fail here instead.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import translimit
import translimit.cli  # noqa: F401  (cli is not imported by the package)
from conftest import make_problem

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

TINY = """
[grid]
n_cells = 16
[scattering]
kernel = linear
g_factor = 0.5
n_ordinates = 4
n_polar = 4
n_azimuth = 8
[study]
eps = 0.5 0.25 0.125 0.0625
floor_cells = 16
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attribute, span", tracing.WRAPPED,
                         ids=[f"{m}.{a}" for m, a, _ in tracing.WRAPPED])
def test_wrapped_name_resolves(module, attribute, span):
    owner, attr = tracing._resolve(translimit, module, attribute)
    # Instrumented reads the attribute from the owner's own namespace
    assert attr in vars(owner), f"translimit.{module} has no {attribute}"
    assert callable(vars(owner)[attr])


def test_sweep_called_once_per_iteration_with_emission_second(monkeypatch, quad8, iso8):
    # transport.sweep.calls and .cell_updates assume that solve_transport
    # calls transport.sweep through the module once per iteration, with the
    # (n_ordinates, n_cells) march-order emission as its second positional
    # argument
    original = translimit.transport.sweep
    shapes = []
    updates = []

    def counting(*args, **kwargs):
        shapes.append(np.shape(args[1]))
        updates.append(tracing._cell_updates(args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(translimit.transport, "sweep", counting)
    sol = translimit.solve_transport(make_problem(n_cells=12), 0.5, iso8)
    assert len(shapes) == sol.log.iterations > 1
    assert set(shapes) == {(quad8.n, 12)}
    assert updates == [12 * quad8.n] * len(shapes)


def test_every_wrapped_name_is_called(monkeypatch, tmp_path):
    # the benchmark's commands reach every wrapped (module, attribute)
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module, attribute, _ in tracing.WRAPPED:
        owner, attr = tracing._resolve(translimit, module, attribute)
        monkeypatch.setattr(owner, attr,
                            counting((module, attribute), vars(owner)[attr]))
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    for command in ("study", "certify", "tensor"):
        out = tmp_path / command
        assert translimit.cli.main([command, "--config", str(config),
                                    "--out", str(out)]) == 0
    never = [f"{m}.{a}" for m, a, _ in tracing.WRAPPED if not calls[(m, a)]]
    assert never == []
