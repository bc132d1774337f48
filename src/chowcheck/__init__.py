"""Exact-arithmetic verification of graded quotient rings, plane-curve
divisor lattices, and symmetry characters on algebraic surfaces.

The package is organised in layers:

- :mod:`chowcheck.exactla` and :mod:`chowcheck.modrank`: integer and
  rational linear algebra (exact ranks, kernels and pieces from one
  verified GF(p) lift, Hermite form, lattice membership) plus modular rank certificates from one entry
  point over GF(p), behind a primality gate: a pure-Python kernel for
  sparse rows and a numpy kernel for dense ones.  numpy is loaded only
  when a dense GF(p) elimination runs, so importing the package, or
  checking a ring with a monomial Jacobian ideal or a sparse certificate
  slice, never loads it.
- :mod:`chowcheck.poly`: sparse multivariate polynomials over the
  rationals and small algebraic towers, with an exact parser.
- :mod:`chowcheck.jacobian`: graded quotients by Jacobian ideals,
  Hilbert functions, smoothness, multiplication maps, socle pairings.
- :mod:`chowcheck.curves`: coordinate-line sections of plane curves,
  divisor relation lattices, torsion orders of point differences.
- :mod:`chowcheck.pencil`: the deformed quartic family, its blown-up
  cubic pencil, and the tangent and parameter identities.
- :mod:`chowcheck.characters`: diagonal automorphisms, character
  spectra of graded pieces, and the orbit-scan Picard bound.
- :mod:`chowcheck.scenario` / :mod:`chowcheck.runner` /
  :mod:`chowcheck.report` / :mod:`chowcheck.cli`: scenario files, the
  check registry, deterministic reports, and the command line driver.
"""

from .characters import (CharacterSpectrum, DiagonalAutomorphism, NotInvariant,
                         NotSmooth, PicardBoundResult, character_spectrum,
                         check_invariance, galois_orbit, picard_upper_bound)
from .curves import (DivisorCycle, EquivalenceOrder, LineIsComponent,
                     NonRationalIntersection, ParameterNotEliminated,
                     RelationLattice, UnknownLabel, binary_form_cycle,
                     hyperplane_relations, minimal_equivalence_order,
                     rational_roots, restrict_to_line,
                     squarefree_decomposition)
from .jacobian import (GradedPiece, HypersurfaceRing, IdealNotMonomial,
                       MultiplicationMap, SocleNotOneDimensional,
                       functional_kernel_map, hilbert_function,
                       is_smooth_artinian, is_surjective,
                       left_kernel_via_duality, macaulay_pairing_check,
                       multiplication_map, uniform_mult_rank_bound)
from .pencil import (PencilScenario, default_scenario, membership_identity,
                     report_degenerate_parameters, scenario_steps,
                     tangent_identity, verify_blowup_factorization,
                     verify_concurrency, verify_hyperelliptic_condition,
                     verify_tangent_lines)
from .poly import (NotDivisible, PolyParseError, PolyRing, ProjectivePoint,
                   SparsePoly, check_parametrization, exact_divide,
                   multiplicity_at_point, parse_poly, partial_derivative,
                   substitute)
from .report import Report, StepResult
from .runner import CheckConfigError, ScenarioContext, UnknownCheck, run_scenario
from .scenario import CheckSpec, ParseError, ScenarioFile, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "CharacterSpectrum", "CheckConfigError", "CheckSpec", "DiagonalAutomorphism",
    "DivisorCycle", "EquivalenceOrder", "GradedPiece", "HypersurfaceRing",
    "IdealNotMonomial", "LineIsComponent", "MultiplicationMap",
    "NonRationalIntersection", "NotDivisible", "NotInvariant", "NotSmooth",
    "ParameterNotEliminated", "ParseError", "PencilScenario",
    "PicardBoundResult", "PolyParseError", "PolyRing", "ProjectivePoint",
    "RelationLattice", "Report", "ScenarioContext", "ScenarioFile",
    "SocleNotOneDimensional", "SparsePoly", "StepResult", "UnknownCheck",
    "UnknownLabel", "binary_form_cycle",
    "character_spectrum", "check_invariance", "check_parametrization",
    "default_scenario", "exact_divide", "functional_kernel_map",
    "galois_orbit", "hilbert_function", "hyperplane_relations",
    "is_smooth_artinian", "is_surjective", "left_kernel_via_duality",
    "load_scenario", "macaulay_pairing_check",
    "membership_identity", "minimal_equivalence_order", "multiplication_map",
    "multiplicity_at_point", "parse_poly", "parse_scenario",
    "partial_derivative", "picard_upper_bound", "rational_roots",
    "report_degenerate_parameters", "restrict_to_line", "run_scenario",
    "scenario_steps", "squarefree_decomposition", "substitute",
    "tangent_identity", "uniform_mult_rank_bound",
    "verify_blowup_factorization", "verify_concurrency",
    "verify_hyperelliptic_condition", "verify_tangent_lines",
]
