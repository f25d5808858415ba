"""Finite-blocklength laboratory for source resolution under f-divergences.

Build explicit encoder-decoder pairs that compress a block source into at
most M outcomes, measure the f-divergence they induce exactly, and bracket
it between matching finite-n achievability and converse bounds; exhaustive
small-instance searches and a rate-distortion solver provide independent
checks.
"""

from . import config, construction, divergence, errors, oracle, probability, rdp, spectrum

# Each public name is declared once, in its module's __all__.  The union is
# taken before the star imports, after which `divergence` names the function.
__all__ = sorted(
    {
        name
        for module in (config, construction, divergence, errors, oracle, probability, rdp, spectrum)
        for name in module.__all__
    }
)

from .config import *  # noqa: E402, F403
from .construction import *  # noqa: E402, F403
from .divergence import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .oracle import *  # noqa: E402, F403
from .probability import *  # noqa: E402, F403
from .rdp import *  # noqa: E402, F403
from .spectrum import *  # noqa: E402, F403

__version__ = "0.1.0"
