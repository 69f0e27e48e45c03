"""One set-up of a workload process, timed by the parent from its spawn.

Does what the workload process does before its first operation: import
translimit with numpy and scipy, load the config, create the output
directory. Then prints "ready" and exits.

    python3 bench/setup_probe.py <checkout root> <config> <output dir>
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

root, config, out = sys.argv[1:4]
sys.path.insert(0, os.path.join(root, "src"))

import translimit.cli  # noqa: E402  (imports numpy and scipy)

translimit.cli.load_config(config)
os.makedirs(out, exist_ok=True)
sys.stdout.write("ready\n")
sys.stdout.flush()
