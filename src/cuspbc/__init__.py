"""cuspbc: Coulomb cusp conditions, Robin boundary conditions, radial
eigensolvers, and cusp-constrained basis sets for two-particle coalescence
problems in atomic units."""

import logging

from .cusp import (CoalescencePair, CuspSeries, LocalWavefunction,
                   cusp_a, cusp_b, cusp_series, cusp_limit_first,
                   cusp_limit_second, local_psi, local_u, validity_radius)
from .environment import Environment, PointCharge, spherical_average_w, w0, w_exact, w_multipole
from .errors import CuspbcError, InputError, NumericalError
from .gridfn import RadialFunction
from .radial import (RadialProblem, RobinBoundary, SystemAsymptotics,
                     asymptotic_tail, hydrogen_reference, log_grid,
                     robin_inner, robin_outer, solve_matrix,
                     solve_matrix_selfconsistent, solve_shooting)
from .special import kummer_1f1, legendre_p, pochhammer, spherical_harmonic

__version__ = "0.1.0"

# debug events of the solvers go to the "cuspbc" logger, silent by default
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "CoalescencePair", "CuspSeries", "LocalWavefunction", "cusp_a", "cusp_b",
    "cusp_series", "cusp_limit_first", "cusp_limit_second", "local_psi",
    "local_u", "validity_radius", "Environment", "PointCharge",
    "spherical_average_w", "w0", "w_exact", "w_multipole", "CuspbcError",
    "InputError", "NumericalError", "RadialFunction", "RadialProblem",
    "RobinBoundary", "SystemAsymptotics", "asymptotic_tail",
    "hydrogen_reference", "log_grid", "robin_inner", "robin_outer",
    "solve_matrix", "solve_matrix_selfconsistent", "solve_shooting",
    "kummer_1f1", "legendre_p", "pochhammer", "spherical_harmonic",
    "__version__",
]
