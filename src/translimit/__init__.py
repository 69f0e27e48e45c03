"""Slab transport in the diffusive scaling, its diffusion limit, and the
numerical verification of the convergence estimates connecting them."""

__version__ = "0.1.0"

from . import analysis, config, diffusion, errors, problem, transport, velocity_space
from .errors import *  # noqa: F401,F403
from .velocity_space import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .diffusion import *  # noqa: F401,F403
from .transport import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403

# the public names are each module's own __all__
__all__ = ["__version__"] + [
    name
    for module in (errors, velocity_space, problem, diffusion, transport,
                   analysis, config)
    for name in module.__all__
]
