"""Symmetric critical points of quasi-linear energies on invariant grids.

The package discretizes energies of the form

    f(u) = integral j(u, |Du|) + |u|^p / p - |u|^q / q

on group-invariant domains, finds mountain-pass critical points either in
the full space or restricted to the fixed subspace of a symmetry group,
and verifies numerically that restricted critical points are critical for
the unrestricted energy.  Submodules, in dependency order: grid, group,
integrand, functional, symmetrize, solver, verify, config, cli.
"""

from . import (cli, config, functional, grid, group, integrand, solver,
               symmetrize, verify)
from .errors import (ConfigurationError, DomainMismatchError, GeometryError,
                     HypothesisViolationError, NumericalFailureError,
                     ParameterError, SymcritError,
                     SymmetryCompatibilityError, UnsupportedDomainError)
from .functional import EnergyModel, energy
from .grid import Domain, GridFunction, build_domain
from .group import SymmetryGroup, average, build_group
from .integrand import Integrand, builtin, check_conditions
from .solver import SolveConfig, SolveReport, compare_levels, init_endpoints, run
from .symmetrize import check_axioms, cone_project, polarize, schwarz
from .verify import dense_test_sweep, palais_check

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "Domain",
    "DomainMismatchError",
    "EnergyModel",
    "GeometryError",
    "GridFunction",
    "HypothesisViolationError",
    "Integrand",
    "NumericalFailureError",
    "ParameterError",
    "SolveConfig",
    "SolveReport",
    "SymcritError",
    "SymmetryCompatibilityError",
    "SymmetryGroup",
    "UnsupportedDomainError",
    "average",
    "build_domain",
    "build_group",
    "builtin",
    "check_axioms",
    "check_conditions",
    "cli",
    "compare_levels",
    "cone_project",
    "config",
    "dense_test_sweep",
    "energy",
    "functional",
    "grid",
    "group",
    "init_endpoints",
    "integrand",
    "palais_check",
    "polarize",
    "run",
    "schwarz",
    "solver",
    "symmetrize",
    "verify",
]
