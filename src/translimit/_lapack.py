"""The LAPACK routines of the transport and diffusion solves, loaded on first
use.

Importing this module costs nothing.  The first read of one of its
routines imports scipy.linalg.lapack (scipy.linalg with it, most of a cold
start's import time and memory) and stores every routine in this module's
dict, so each later read is one module-attribute lookup.  certify and
tensor call none of them, so they run on numpy alone; the first transport,
diffusion or GMRES solve loads them.
"""

_ROUTINES = ("dpbtrf", "dpbtrs", "dtbtrs", "dtrtrs")


def __getattr__(name):
    if name not in _ROUTINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import lapack

    globals().update((routine, getattr(lapack, routine)) for routine in _ROUTINES)
    return globals()[name]
