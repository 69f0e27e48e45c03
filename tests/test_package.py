import os
import subprocess
import sys
from pathlib import Path

import translimit

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    missing = [name for name in translimit.__all__ if not hasattr(translimit, name)]
    assert missing == []


def test_cli_import_starts_no_process_machinery():
    # the study runs serially, so nothing may start worker processes
    code = ("import sys, translimit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
