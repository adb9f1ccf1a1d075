"""Fixed-order H-infinity controller synthesis by nonsmooth optimization.

Two-stage approach: minimize the closed-loop spectral abscissa until the
loop is stable, then locally minimize the closed-loop H-infinity norm over
controllers of the chosen order, with randomized multi-start.  Both stages
run a BFGS / bundle / gradient-sampling stack built for nonsmooth,
nonconvex objectives.

The public names are those of each submodule's `__all__`.
"""

from . import analysis, bench, errors, fileio, gradients, optimize, statespace, synthesis
from .analysis import *  # noqa: F403
from .bench import *  # noqa: F403
from .errors import *  # noqa: F403
from .fileio import *  # noqa: F403
from .gradients import *  # noqa: F403
from .optimize import *  # noqa: F403
from .statespace import *  # noqa: F403
from .synthesis import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *statespace.__all__,
    *analysis.__all__,
    *gradients.__all__,
    *optimize.__all__,
    *synthesis.__all__,
    *fileio.__all__,
    *bench.__all__,
    *errors.__all__,
]
