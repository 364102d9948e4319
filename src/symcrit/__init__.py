"""Symmetric critical points of quasi-linear energies on invariant grids.

The package discretizes energies of the form

    f(u) = integral j(u, |Du|) + |u|^p / p - |u|^q / q

on group-invariant domains, finds mountain-pass critical points either in
the full space or restricted to the fixed subspace of a symmetry group,
and verifies numerically that restricted critical points are critical for
the unrestricted energy.  Submodules, in dependency order: grid, group,
integrand, functional, symmetrize, solver, verify, config, cli.  The top
level holds the types, the builders and one function per subcommand;
every other function is reached at its module path.
"""

from . import (cli, config, functional, grid, group, integrand, solver,
               symmetrize, verify)
from .errors import (ConfigurationError, DomainMismatchError, GeometryError,
                     NumericalFailureError, ParameterError, SymcritError,
                     SymmetryCompatibilityError, UnsupportedDomainError)
from .functional import EnergyModel
from .grid import Domain, GridFunction, build_domain
from .group import SymmetryGroup, build_group
from .integrand import Integrand, builtin, check_conditions
from .solver import SolveConfig, SolveReport, compare_levels, run
from .symmetrize import check_axioms
from .verify import palais_check

__version__ = "0.1.0"

__all__ = [
    # submodules
    "cli", "config", "functional", "grid", "group", "integrand", "solver",
    "symmetrize", "verify",
    # errors
    "ConfigurationError", "DomainMismatchError", "GeometryError",
    "NumericalFailureError", "ParameterError", "SymcritError",
    "SymmetryCompatibilityError", "UnsupportedDomainError",
    # types
    "Domain", "GridFunction", "SymmetryGroup", "EnergyModel", "Integrand",
    "SolveConfig", "SolveReport",
    # builders
    "build_domain", "build_group", "builtin",
    # one function per subcommand: solve, verify-point, compare-levels,
    # check-axioms, check-integrand
    "run", "palais_check", "compare_levels", "check_axioms",
    "check_conditions",
]
