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
  Hilbert functions, smoothness, multiplication maps, socle pairings,
  each answered as one ``Rank`` that carries its proof.
- :mod:`chowcheck.curves`: coordinate-line sections of plane curves,
  divisor relation lattices, torsion orders of point differences.
- :mod:`chowcheck.pencil`: the deformed quartic family, its blown-up
  cubic pencil, and the tangent and parameter identities.
- :mod:`chowcheck.characters`: diagonal automorphisms, character
  spectra of graded pieces, and the orbit-scan Picard bound.
- :mod:`chowcheck.scenario` / :mod:`chowcheck.runner` /
  :mod:`chowcheck.report` / :mod:`chowcheck.cli`: scenario files, the
  check registry, deterministic reports, and the command line driver.

Importing the package loads none of these modules.  Each public name
below (``__all__``) imports its module the first time it is read, and
the runner imports :mod:`~chowcheck.characters`, :mod:`~chowcheck.curves`
and :mod:`~chowcheck.pencil` when a check or scenario object first needs
them.  A cold ``chowcheck verify`` therefore compiles and loads only the
modules its checks run: a dense ring's smoothness and Hilbert table load
none of those three, shioda never loads ``pencil``, and the quartic
family never loads ``characters``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; each module is imported the
# first time one of its names is read, so a cold process compiles only
# the modules its checks run
_EXPORTS = {
    name: module
    for module, names in {
        "characters": "CharacterSpectrum DiagonalAutomorphism NotInvariant "
                      "NotSmooth PicardBoundResult character_spectrum "
                      "check_invariance galois_orbit picard_upper_bound",
        "curves": "DivisorCycle EquivalenceOrder LineIsComponent "
                  "NonRationalIntersection ParameterNotEliminated "
                  "RelationLattice UnknownLabel binary_form_cycle "
                  "hyperplane_relations minimal_equivalence_order "
                  "rational_roots restrict_to_line squarefree_decomposition",
        "jacobian": "GradedPiece HypersurfaceRing IdealNotMonomial "
                    "MultiplicationMap Rank SocleNotOneDimensional "
                    "functional_kernel_map hilbert_function "
                    "is_smooth_artinian left_kernel_via_duality "
                    "macaulay_pairing_check multiplication_map "
                    "uniform_mult_rank_bound",
        "pencil": "PencilScenario default_scenario membership_identity "
                  "report_degenerate_parameters scenario_steps "
                  "tangent_identity verify_blowup_factorization "
                  "verify_concurrency verify_hyperelliptic_condition "
                  "verify_tangent_lines",
        "poly": "NotDivisible PolyParseError PolyRing ProjectivePoint "
                "SparsePoly check_parametrization exact_divide "
                "multiplicity_at_point parse_poly partial_derivative "
                "substitute",
        "report": "InputError Report StepResult",
        "runner": "CheckConfigError ScenarioContext UnknownCheck run_scenario",
        "scenario": "CheckSpec ParseError ScenarioFile load_scenario "
                    "parse_scenario",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
