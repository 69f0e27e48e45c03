"""Spans around calls into translimit's modules, recorded from outside.

Each public function is wrapped under the name its caller looks it up by:
`analysis` calls `solve_transport` through its own namespace, so the wrapper
goes on `translimit.analysis.solve_transport`, not on the transport module.
Spans are kept in memory (name, start, end, parent index) and written out
once the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); the attribute is looked up on the module
# object, or on the class named before a dot
WRAPPED = (
    ("cli", "load_config", "config"),
    ("cli", "convergence_study", "analysis.study"),
    ("cli", "certify_assumptions", "velocity_space.certify"),
    ("cli", "diffusion_tensor", "velocity_space.tensor"),
    ("problem", "KernelSpec.build", "problem.kernel_build"),
    ("problem", "assemble_scattering", "velocity_space.assemble"),
    ("analysis", "solve_transport", "transport.solve"),
    ("analysis", "solve_diffusion", "diffusion.limit"),
    ("analysis", "certify_assumptions", "velocity_space.certify"),
    ("analysis", "pinv_apply", "velocity_space.pinv"),
    ("analysis", "first_order_corrector", "analysis.corrector"),
    ("analysis", "expansion_remainder", "analysis.corrector"),
    ("analysis", "split_mean_fluctuation", "analysis.norms"),
    ("analysis", "space_velocity_norm", "analysis.norms"),
    ("analysis", "outflow_trace", "analysis.norms"),
    ("analysis", "directional_derivative", "analysis.norms"),
    ("transport", "sweep", "transport.sweep"),
    ("transport", "particle_balance", "transport.balance"),
    ("transport", "factor_operator", "diffusion.dsa"),
    ("transport", "solve_cells", "diffusion.dsa"),
    ("transport", "certify_assumptions", "velocity_space.certify"),
    ("velocity_space", "certify_assumptions", "velocity_space.certify"),
    ("velocity_space", "pinv_apply", "velocity_space.pinv"),
)

ROOT = "cli"


def _cell_updates(args, kwargs):
    """n_cells x ordinates of one sweep, from its emission argument."""
    emission = args[1] if len(args) > 1 else kwargs["emission"]
    n, m = np.shape(emission)
    return n * m


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.cell_updates = 0
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "transport.sweep":
                self.cell_updates += _cell_updates(args, kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def reset(self):
        self.spans = []
        self.cell_updates = 0

    def layers(self):
        """Per span name: number of calls and self time (duration minus the
        duration of direct children; children nest, so they never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return calls, self_s


def _resolve(package, module, attribute):
    owner = getattr(package, module)
    if "." in attribute:
        cls, attribute = attribute.split(".")
        owner = getattr(owner, cls)
    return owner, attribute


class Instrumented:
    """Context manager that puts the wrappers in place and takes them out."""

    def __init__(self, package, tracer):
        self.package = package
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for module, attribute, name in WRAPPED:
            owner, attr = _resolve(self.package, module, attribute)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original))
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
