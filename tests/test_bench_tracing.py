"""The benchmark's traced run wraps functions by the names its modules use.

bench/tracing.py looks each (module, attribute) of WRAPPED up on the
translimit package and swaps the attribute in place.  A rename inside the
package would only surface when the traced benchmark runs; this test makes
it fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

import translimit
import translimit.cli  # noqa: F401  (cli is not imported by the package)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
