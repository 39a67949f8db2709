"""Positional-encoding kernels built on traveling-wave (circular roll) dynamics.

Provides the discrete roll encoding, its continuous spectral extension,
rotary encodings with both classic and roll-induced frequency schedules,
a numerically checked correspondence between the two, multiplexed
(superposed-wave) variants, a pluggable attention layer, and smoothness
diagnostics over the circular latent topology.  Each module's ``__all__``
is the one list of its public names; the package's is their union.
"""

from . import attention, multiplex, regularizer, roll_core, rope, spectral
from .attention import *  # noqa: F403
from .multiplex import *  # noqa: F403
from .regularizer import *  # noqa: F403
from .roll_core import *  # noqa: F403
from .rope import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (attention, multiplex, regularizer, roll_core, rope, spectral)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
