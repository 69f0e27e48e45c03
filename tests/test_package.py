import os
import subprocess
import sys
from pathlib import Path

import translimit

SRC = Path(__file__).resolve().parents[1] / "src"


def cold_import(code):
    """The stdout of code run in a fresh interpreter that imports this
    checkout's translimit."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip()


def test_every_exported_name_resolves():
    missing = [name for name in translimit.__all__ if not hasattr(translimit, name)]
    assert missing == []


def test_cli_import_starts_no_process_machinery():
    # the study runs serially, so nothing may start worker processes
    assert cold_import(
        "import sys, translimit.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    ) == "[]"


def test_cli_import_builds_no_formatting_table():
    # the CSV formatter's tables are built by the first large block, so a
    # command's start-up does not pay for them
    assert cold_import(
        "import translimit.cli, translimit.csvtext as t; "
        "print(t._tables.cache_info().currsize)"
    ) == "0"
