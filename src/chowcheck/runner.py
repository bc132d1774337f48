"""Execute parsed scenarios: a registry of named checks over shared state.

A scenario declares objects (a graded ring, an automorphism, curves
with labeled points, optionally overrides for the built-in quartic
pencil) and an ordered list of checks.  The context builds each object
lazily and caches it, so a scenario pays only for what its checks use.

Input problems (unknown check kinds, missing or malformed attributes,
references to undeclared objects, a ``prime`` that is not a usable
prime) raise :class:`UnknownCheck` or :class:`CheckConfigError` and
abort the run; mathematical failures inside a check become failing step
results and the run continues.  :func:`run_check` runs one check; the
command line's ring queries use it on a synthesized check without a line.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import lcm

from . import characters, curves, jacobian, modrank, pencil
from .poly import (PolyParseError, PolyRing, ProjectivePoint,
                   check_parametrization, multiplicity_at_point, parse_poly,
                   substitute)
from .report import Report, StepResult
from .scenario import ScenarioFile

_FAILURE_ERRORS = (ArithmeticError, characters.NotInvariant,
                   characters.NotSmooth, curves.ParameterNotEliminated,
                   curves.UnknownLabel, jacobian.IdealNotMonomial)


class UnknownCheck(ValueError):
    """A check kind no registered implementation handles."""


class CheckConfigError(ValueError):
    """A check's attributes are missing, malformed, or dangling."""


class ScenarioContext:
    """Lazily built shared objects for one scenario run."""

    def __init__(self, scn: ScenarioFile):
        self.scn = scn
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def ring(self):
        def build():
            if self.scn.ring is None:
                raise CheckConfigError("this check needs a [ring] section")
            return PolyRing.rationals(tuple(self.scn.ring["variables"]))
        return self._get("ring", build)

    def ring_poly(self):
        def build():
            try:
                return parse_poly(self.scn.ring["poly"], self.ring())
            except PolyParseError as exc:
                raise CheckConfigError(f"bad [ring] poly: {exc}") from None
        return self._get("ring_poly", build)

    def automorphism(self):
        def build():
            if self.scn.automorphism is None:
                raise CheckConfigError("this check needs an [automorphism] section")
            exponents = self.scn.automorphism["exponents"]
            if len(exponents) != self.ring().nvars:
                raise CheckConfigError(
                    f"[automorphism] has {len(exponents)} exponents, "
                    f"[ring] has {self.ring().nvars} variables")
            try:
                return characters.DiagonalAutomorphism(
                    exponents, self.scn.automorphism["modulus"])
            except ValueError as exc:
                raise CheckConfigError(f"bad [automorphism]: {exc}") from None
        return self._get("automorphism", build)

    def hypersurface(self):
        """Graded quotient ring; symmetric blocks when an automorphism
        is declared and the form is an eigenvector (faster exact path)."""
        def build():
            f = self.ring_poly()
            symmetry = None
            if (self.scn.automorphism is not None
                    and characters.check_invariance(f, self.automorphism())):
                sigma = self.automorphism()
                symmetry = (sigma.exponents, sigma.modulus)
            try:
                return jacobian.HypersurfaceRing(f, symmetry=symmetry)
            except ValueError as exc:
                # the constructor raises only for a form it cannot take
                raise CheckConfigError(f"bad [ring] poly: {exc}") from None
        return self._get("hring", build)

    def curve_decl(self, label):
        decl = self.scn.curves.get(label)
        if decl is None:
            raise CheckConfigError(f"curve {label!r} is not declared")
        if len(decl.plane) != 3:
            raise CheckConfigError(
                f"curve {label!r}: a plane needs exactly three coordinates, "
                f"got {' '.join(decl.plane)}")
        return decl

    def curve_poly(self, label):
        def build():
            decl = self.curve_decl(label)
            ring = PolyRing.rationals(tuple(decl.variables))
            try:
                f = parse_poly(decl.poly, ring)
            except PolyParseError as exc:
                raise CheckConfigError(
                    f"bad poly for curve {label!r}: {exc}") from None
            missing = [v for v in decl.plane if v not in ring.index]
            if missing:
                raise CheckConfigError(
                    f"curve {label!r}: plane coordinates {missing} are not "
                    "among its variables")
            if not f.is_homogeneous(decl.plane):
                raise CheckConfigError(
                    f"bad poly for curve {label!r}: not homogeneous in the "
                    f"plane coordinates {' '.join(decl.plane)}")
            return f
        return self._get(("curve", label), build)

    def curve_labels(self, label):
        """Point names keyed by normalized plane coordinates."""
        def build():
            decl = self.curve_decl(label)
            return {ProjectivePoint(coords).coords: name
                    for name, coords in decl.points.items()}
        return self._get(("labels", label), build)

    def curve_point(self, curve_label, point_label):
        decl = self.curve_decl(curve_label)
        if point_label not in decl.points:
            raise CheckConfigError(
                f"point {point_label!r} is not declared on curve {curve_label!r}")
        return ProjectivePoint(decl.points[point_label]).coords

    def pencil(self):
        return self._get("pencil", lambda: _build_pencil(self.scn.pencil_overrides))


def _build_pencil(overrides):
    base = pencil.default_scenario()
    if not overrides:
        return base
    amb, blow = base.ambient_ring, base.blowup_ring

    def parse_in(key, ring):
        try:
            return parse_poly(overrides[key], ring)
        except PolyParseError as exc:
            raise CheckConfigError(f"bad [pencil] {key}: {exc}") from None

    lines = list(base.lines)
    rebuilt = False
    for i in range(4):
        key = f"line{i}"
        if key in overrides:
            lines[i] = parse_in(key, amb)
            rebuilt = True
    family = pencil.family_from_lines(lines, amb) if rebuilt else base.family
    strict = (parse_in("strict_transform", blow)
              if "strict_transform" in overrides else base.strict_transform)
    declared = (parse_in("declared_quadratic", blow)
                if "declared_quadratic" in overrides else base.declared_quadratic)
    if declared.total_degree(("lam",)) > 1:
        raise CheckConfigError("bad [pencil] declared_quadratic: it must be "
                               "linear in lam")
    closed = list(base.closed_form)
    if "closed_form_num" in overrides:
        closed[0] = parse_in("closed_form_num", blow)
    if "closed_form_den" in overrides:
        closed[1] = parse_in("closed_form_den", blow)
    return pencil.PencilScenario(
        amb, family, lines, blow, base.substitution, base.blowup_factor,
        strict, base.tower_ring, base.points, base.tangent_table,
        base.concurrency_point, declared, closed, base.cycle_signature,
        citations=base.citations)


def _line(spec):
    """`` (line N)`` for a check read from a file; synthesized checks have none."""
    return f" (line {spec.line})" if spec.line else ""


def _bad(spec, problem):
    return CheckConfigError(f"check {spec.kind!r}{_line(spec)}: {problem}")


def _attr(spec, name, default=None, required=False):
    if name in spec.attrs:
        return spec.attrs[name]
    if required:
        raise _bad(spec, f"needs attribute {name!r}")
    return default


def _attr_int(spec, name, default=None, required=False):
    raw = _attr(spec, name, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise _bad(spec, f"{name}={raw!r} is not an integer") from None


def _attr_degree(spec, name):
    """A required degree of a graded piece: a nonnegative integer."""
    degree = _attr_int(spec, name, required=True)
    if degree < 0:
        raise _bad(spec, f"{name}={degree} is negative")
    return degree


def _attr_prime(spec, default=None):
    """The ``prime`` attribute, gated even on routes that never use it."""
    prime = _attr_int(spec, "prime", default=default)
    if prime is not None:
        modrank.require_prime(prime)
    return prime


def _attr_fraction(spec, name, default=None, required=False):
    raw = _attr(spec, name, required=required)
    if raw is None:
        return default
    try:
        return Fraction(raw)
    except ValueError:
        raise _bad(spec, f"{name}={raw!r} is not a rational number") from None


def _attr_ints(spec, name, required=False):
    raw = _attr(spec, name, required=required)
    if raw is None:
        return None
    try:
        return [int(tok) for tok in raw.split()]
    except ValueError:
        raise _bad(spec, f"{name}={raw!r} is not a list of integers") from None


CHECKS = {}


def _register(kind):
    def wrap(func):
        CHECKS[kind] = func
        return func
    return wrap


def _step(spec, name, ok, details, witness, values=None, route=None):
    """The check's verdict: a pass, or a fail that carries ``witness``."""
    return StepResult(name, spec.kind, "pass" if ok else "fail", spec.cite,
                      details=details, witness=None if ok else witness,
                      values=values, route=route)


def _renamed(step, spec, name):
    """A pencil step under the check's name, kind and citation."""
    step.name, step.kind, step.citation = name, spec.kind, spec.cite
    return step


def _point_index(ctx, spec):
    index = _attr_int(spec, "point", required=True)
    if not 1 <= index <= len(ctx.pencil().points):
        raise _bad(spec, f"point index {index} out of range")
    return index


@_register("pencil_factorization")
def _check_pencil_factorization(ctx, spec):
    step = pencil.verify_blowup_factorization(ctx.pencil())
    return _renamed(step, spec, "pencil factorization")


@_register("pencil_membership")
def _check_pencil_membership(ctx, spec):
    index = _point_index(ctx, spec)
    step = pencil.membership_identity(ctx.pencil(), index)
    return _renamed(step, spec, f"pencil membership, point {index}")


@_register("pencil_tangent")
def _check_pencil_tangent(ctx, spec):
    index = _point_index(ctx, spec)
    step = pencil.tangent_identity(ctx.pencil(), index)
    return _renamed(step, spec, f"pencil tangent, point {index}")


@_register("pencil_concurrency")
def _check_pencil_concurrency(ctx, spec):
    step = pencil.verify_concurrency(ctx.pencil())
    return _renamed(step, spec, "pencil concurrency")


@_register("pencil_hyperelliptic")
def _check_pencil_hyperelliptic(ctx, spec):
    step = pencil.verify_hyperelliptic_condition(ctx.pencil())
    return _renamed(step, spec, "pencil parameter condition")


@_register("pencil_degenerations")
def _check_pencil_degenerations(ctx, spec):
    conditions = pencil.report_degenerate_parameters(ctx.pencil())
    details = [f"{cond}: {reason}" for cond, reason in conditions]
    values = {"conditions": len(conditions)}
    expect_zero = _attr(spec, "expect_zero")
    ok = True
    if expect_zero is not None:
        want = sorted(Fraction(tok) for tok in expect_zero.split())
        got = sorted(Fraction(cond.partition("=")[2])
                     for cond, reason in conditions
                     if reason == "lam(t) = 0" and cond.startswith("t ="))
        values["zero_parameters"] = " ".join(str(v) for v in got)
        ok = got == want
        if not ok:
            details.append(
                f"expected lam(t) = 0 exactly at t in {{{expect_zero}}}")
    return _step(spec, "pencil degenerations", ok, details,
                 "degeneration list mismatch", values)


@_register("hilbert")
def _check_hilbert(ctx, spec):
    expect = _attr_ints(spec, "expect", required=True)
    hring = ctx.hypersurface()
    table = jacobian.hilbert_function(hring)
    values = {
        "dimensions": " ".join(str(d) for d in table),
        "socle_degree": hring.socle_degree,
        "total": sum(table),
    }
    details = [f"dimensions through the socle degree: {values['dimensions']}"]
    if table != expect:
        details.append(f"expected: {' '.join(str(d) for d in expect)}")
    return _step(spec, "hilbert function", table == expect, details,
                 "dimension table mismatch", values, hring.dimension_route())


@_register("ring_dim")
def _check_ring_dim(ctx, spec):
    degree = _attr_int(spec, "degree", required=True)
    hring = ctx.hypersurface()
    dim = hring.quotient_dim(degree)
    return _step(spec, f"dimension in degree {degree}", True,
                 [f"dim = {dim} (exact)"], None, {"dim": dim},
                 hring.dimension_route())


@_register("ring_map")
def _check_ring_map(ctx, spec):
    a, b = _attr_degree(spec, "a"), _attr_degree(spec, "b")
    prime = _attr_prime(spec)
    result = jacobian.map_surjectivity(ctx.hypersurface(), a, b, prime=prime)
    values = {"rank": result.rank, "target_dim": result.target_dim,
              "mode": result.mode, "surjective": result.surjective}
    word = "surjective" if result.surjective else "not surjective"
    return _step(spec, f"multiplication {a} x {b} -> {a + b}", result.surjective,
                 [f"{word}, rank {result.rank} of {result.target_dim} "
                  f"({result.mode})"], "not surjective", values, result.route)


@_register("uniform_bound")
def _check_uniform_bound(ctx, spec):
    b = _attr_degree(spec, "b")
    expect = _attr_int(spec, "expect", required=True)
    threshold = _attr_int(spec, "threshold")
    result = jacobian.uniform_mult_rank_bound(ctx.hypersurface(), b)
    values = {
        "bound": result.bound,
        "per_variable": " ".join(str(c) for c in result.per_variable),
    }
    details = [f"every nonzero linear form multiplies degree {b} "
               f"with rank at least {result.bound}"]
    ok = result.bound == expect
    if threshold is not None:
        details.append(f"threshold {threshold}: "
                       + ("met" if result.bound >= threshold else "NOT met"))
        ok = ok and result.bound >= threshold
    if not ok:
        details.append(f"expected bound {expect}")
    return _step(spec, "uniform multiplication bound", ok, details,
                 "bound mismatch", values)


@_register("green_gotzmann")
def _check_green_gotzmann(ctx, spec):
    g_text = _attr(spec, "g", required=True)
    b = _attr_degree(spec, "b")
    expect_rank = _attr_int(spec, "expect_rank", required=True)
    try:
        g = parse_poly(g_text, ctx.ring())
    except PolyParseError as exc:
        raise _bad(spec, f"bad g: {exc}") from None
    if g.is_zero() or not g.is_homogeneous():
        raise _bad(spec, "bad g: not a nonzero homogeneous form")
    result = jacobian.functional_kernel_map(ctx.hypersurface(), g, b)
    values = {
        "rank": result.rank,
        "target_dim": result.target_dim,
        "subspace_dim": result.subspace_dim,
        "class_nonzero": result.g_class_nonzero,
    }
    details = [
        f"kernel subspace of dimension {result.subspace_dim} multiplies "
        f"onto a target of dimension {result.target_dim} with rank {result.rank}",
    ]
    ok = result.surjective and result.rank == expect_rank and result.g_class_nonzero
    if ok:
        details.append("restricted multiplication map is surjective")
    if not result.g_class_nonzero:
        details.append("the chosen class vanishes in the quotient")
    if result.rank != expect_rank:
        details.append(f"expected rank {expect_rank}")
    return _step(spec, "kernel multiplication rank", ok, details,
                 "rank mismatch", values)


def _left_kernel_step(ctx, spec, name, expect_rank=None):
    """Left kernel emptiness at degrees (a, b) by the socle duality argument.

    Shared by ``duality`` and ``no_left_kernel``; ``name`` may refer to
    ``{a}`` and ``{b}``.  A declared ``expect_rank`` must also match the
    rank of the surjectivity half.
    """
    a, b = _attr_degree(spec, "a"), _attr_degree(spec, "b")
    prime = _attr_prime(spec)
    hring = ctx.hypersurface()
    if a + b > hring.socle_degree:
        raise _bad(spec, f"a + b = {a + b} is above the socle degree "
                         f"{hring.socle_degree}")
    result = jacobian.left_kernel_via_duality(hring, a, b, prime=prime)
    surj = result.surjectivity
    values = {
        "empty": result.empty,
        "surjectivity_rank": surj.rank,
        "surjectivity_mode": surj.mode,
        "pairing_rank": result.pairing.rank,
        "pairing_mode": result.pairing.mode,
    }
    details = [
        f"multiplication onto the complementary piece has rank "
        f"{surj.rank} of {surj.target_dim} ({surj.mode})",
        f"socle pairing at degree {a} has rank {result.pairing.rank} "
        f"({result.pairing.mode})",
        f"no class of degree {a} kills all of degree {b}" if result.empty
        else "duality argument does not close",
    ]
    ok, witness = result.empty, "duality argument incomplete"
    if expect_rank is not None and surj.rank != expect_rank:
        details.append(f"expected surjectivity rank {expect_rank}")
        ok, witness = False, "rank mismatch"
    return _step(spec, name.format(a=a, b=b), ok, details, witness, values,
                 result.route)


@_register("duality")
def _check_duality(ctx, spec):
    return _left_kernel_step(ctx, spec, "left kernel via duality")


@_register("no_left_kernel")
def _check_no_left_kernel(ctx, spec):
    return _left_kernel_step(ctx, spec, "no left kernel at ({a}, {b})",
                             expect_rank=_attr_int(spec, "expect_rank"))


@_register("tau_nonzero")
def _check_tau_nonzero(ctx, spec):
    if ctx.scn.cycle is None or "tau" not in ctx.scn.cycle:
        raise _bad(spec, "needs a [cycle] section with tau")
    tau = ctx.scn.cycle["tau"]
    values = {"tau": " ".join(str(c) for c in tau)}
    ok = any(tau)
    detail = (f"declared invariant ({values['tau']}) has a nonzero entry" if ok
              else "declared invariant is zero")
    return _step(spec, "boundary invariant nonzero", ok, [detail],
                 "zero invariant", values)


@_register("invariance")
def _check_invariance(ctx, spec):
    sigma = ctx.automorphism()
    f = ctx.ring_poly()
    invariant = characters.check_invariance(f, sigma)
    values = {
        "modulus": sigma.modulus,
        "exponents": " ".join(str(e) for e in sigma.exponents),
        "twist": sigma.twist,
    }
    if invariant:
        values["character"] = sigma.character(next(iter(f.terms)))
        detail = (f"every monomial has character {values['character']} "
                  f"mod {sigma.modulus}")
    else:
        chars = sorted({sigma.character(e) for e in f.terms})
        detail = f"monomials carry distinct characters {chars}"
    return _step(spec, "automorphism invariance", invariant, [detail],
                 "not an eigenvector", values)


@_register("smooth")
def _check_smooth(ctx, spec):
    exact = _attr(spec, "mode", default="modular") == "exact"
    prime = _attr_prime(spec, default=modrank.DEFAULT_PRIME)
    result = jacobian.is_smooth_artinian(ctx.hypersurface(), prime=prime,
                                         exact=exact)
    values = {
        "smooth": result.smooth,
        "mode": result.mode,
        "checked_degree": result.checked_degree,
        "dimension": result.dimension,
    }
    where = f"degree {result.checked_degree} ({result.mode})"
    detail = (f"quotient vanishes in {where}" if result.smooth
              else f"quotient has dimension {result.dimension} in {where}")
    return _step(spec, "smoothness", result.smooth, [detail],
                 "nonzero piece above the socle", values)


def _parse_expected_cycle(spec, raw):
    expected = {}
    for chunk in raw.split():
        name, sep, mult = chunk.partition(":")
        if not sep or not name:
            raise _bad(spec, "expected cycle entries look like NAME:MULT, "
                             f"got {chunk!r}")
        try:
            expected[name] = int(mult)
        except ValueError:
            raise _bad(spec, f"bad multiplicity in {chunk!r}") from None
    return expected


def _section_cycle(ctx, curve_label, line_var, at=None):
    """Intersection cycle of a coordinate line, as name -> multiplicity."""
    decl = ctx.curve_decl(curve_label)
    f = ctx.curve_poly(curve_label)
    if line_var not in decl.plane:
        raise CheckConfigError(
            f"{line_var!r} is not a plane coordinate of curve {curve_label!r}")
    if at:
        f = substitute(f, at, f.ring)
    g, remaining = curves.restrict_to_line(f, line_var, decl.plane)
    cycle = curves.binary_form_cycle(g, uv=remaining)
    if cycle.residual_factors:
        degs = [len(c) - 1 for c, _, _ in cycle.residual_factors]
        raise curves.NonRationalIntersection(
            f"line {line_var} = 0 meets the curve in non-rational points "
            f"(irreducible factor degrees {degs})")
    labels = ctx.curve_labels(curve_label)
    named = {}
    for p, m in zip(cycle.points, cycle.multiplicities):
        coords = []
        it = iter(p.coords)
        for v in decl.plane:
            coords.append(Fraction(0) if v == line_var else next(it))
        key = ProjectivePoint(coords).coords
        name = labels.get(key, repr(ProjectivePoint(coords)))
        named[name] = named.get(name, 0) + m
    return named


def _cycle_text(named):
    return " + ".join(f"{m}*{name}" for name, m in sorted(named.items()))


@_register("intersection")
def _check_intersection(ctx, spec):
    curve_label = _attr(spec, "curve", required=True)
    line_var = _attr(spec, "line", required=True)
    expected = _parse_expected_cycle(spec, _attr(spec, "expect", required=True))
    sample = _attr_fraction(spec, "sample_t")
    named = _section_cycle(ctx, curve_label, line_var)
    mode = "symbolic"
    details = [f"section by {line_var} = 0: {_cycle_text(named)}"]
    agree = named == expected
    if agree and sample is not None:
        sampled = _section_cycle(ctx, curve_label, line_var, at={"t": sample})
        mode = f"symbolic+sampled(t={sample})"
        if sampled == expected:
            details.append(f"sample at t = {sample} gives the same cycle")
        else:
            agree = False
            details.append(f"sample at t = {sample} gives {_cycle_text(sampled)}")
    values = {"cycle": _cycle_text(named), "mode": mode}
    if not agree:
        details.append(f"expected {_cycle_text(expected)}")
    return _step(spec, f"intersection {curve_label} . ({line_var} = 0)", agree,
                 details, "cycle mismatch", values)


def _order_for(ctx, spec, curve_label, lines_raw, pair_raw):
    decl = ctx.curve_decl(curve_label)
    line_vars = lines_raw.split()
    pair = pair_raw.split()
    if len(pair) != 2:
        raise _bad(spec, "pair needs two labels")
    for v in line_vars:
        if v not in decl.plane:
            raise _bad(spec, f"{v!r} is not a plane coordinate of curve "
                             f"{curve_label!r}")
    lattice = curves.hyperplane_relations(
        ctx.curve_poly(curve_label), line_vars, decl.plane,
        labels=ctx.curve_labels(curve_label))
    found = curves.minimal_equivalence_order(lattice, pair[0], pair[1])
    return lattice, pair, found


@_register("equivalence_order")
def _check_equivalence_order(ctx, spec):
    curve_label = _attr(spec, "curve", required=True)
    expect = _attr_int(spec, "expect", required=True)
    lattice, pair, found = _order_for(
        ctx, spec, curve_label, _attr(spec, "lines", required=True),
        _attr(spec, "pair", required=True))
    values = {
        "basis": " ".join(lattice.point_basis),
        "relations": len(lattice.relations.rows()),
    }
    details = [f"relation lattice over points {values['basis']} "
               f"({values['relations']} relations)"]
    name = f"equivalence order on {curve_label}"
    if found is None:
        details.append(f"no multiple of {pair[0]} - {pair[1]} lies in the lattice")
        return _step(spec, name, False, details, "no lattice multiple", values)
    values["order"] = found.order
    values["witness"] = " ".join(str(c) for c in found.witness)
    details.append(f"rational equivalence holds at n = {found.order} "
                   f"for {pair[0]} - {pair[1]}")
    details.append("upper-bound certificate: the lattice only contains the "
                   "declared coordinate-line relations")
    if found.order != expect:
        details.append(f"expected order {expect}")
    return _step(spec, name, found.order == expect, details, "order mismatch",
                 values)


@_register("combined_order")
def _check_combined_order(ctx, spec):
    expect = _attr_int(spec, "expect", required=True)
    name = "combined equivalence order"
    orders = []
    details = []
    values = {}
    for idx in ("1", "2"):
        curve_label = _attr(spec, "curve" + idx, required=True)
        _, pair, found = _order_for(
            ctx, spec, curve_label, _attr(spec, "lines" + idx, required=True),
            _attr(spec, "pair" + idx, required=True))
        if found is None:
            details.append(f"no lattice multiple on curve {curve_label}")
            return _step(spec, name, False, details, "no lattice multiple",
                         values)
        orders.append(found.order)
        values[f"order{idx}"] = found.order
        details.append(f"curve {curve_label}: order {found.order} "
                       f"for {pair[0]} - {pair[1]}")
    combined = lcm(*orders)
    values["combined"] = combined
    details.append(f"least common multiple: {combined}")
    if combined != expect:
        details.append(f"expected {expect}")
    return _step(spec, name, combined == expect, details, "order mismatch",
                 values)


def _at_assignment(spec):
    """Parse at="name=value" (comma separated) into a substitution map."""
    raw = _attr(spec, "at")
    if raw is None:
        return {}
    out = {}
    for chunk in raw.split(","):
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _bad(spec, f"at= entries look like name=value, got {chunk!r}")
        try:
            out[name] = Fraction(value.strip())
        except ValueError:
            raise _bad(spec, f"bad value in {chunk!r}") from None
    return out


@_register("multiplicity")
def _check_multiplicity(ctx, spec):
    curve_label = _attr(spec, "curve", required=True)
    point_label = _attr(spec, "point", required=True)
    expect = _attr_int(spec, "expect", required=True)
    at = _at_assignment(spec)
    decl = ctx.curve_decl(curve_label)
    f = ctx.curve_poly(curve_label)
    if at:
        f = substitute(f, at, f.ring)
    coords = ctx.curve_point(curve_label, point_label)
    mult = multiplicity_at_point(f, coords, decl.plane)
    where = f" at {', '.join(f'{k} = {v}' for k, v in sorted(at.items()))}" if at else ""
    details = [f"vanishing order {mult} at {point_label}{where}"]
    if mult != expect:
        details.append(f"expected {expect}")
    return _step(spec, f"multiplicity of {curve_label} at {point_label}",
                 mult == expect, details, "multiplicity mismatch",
                 {"multiplicity": mult})


@_register("parametrization")
def _check_parametrization(ctx, spec):
    curve_label = _attr(spec, "curve", required=True)
    params = _attr(spec, "params", required=True).split()
    assign_raw = _attr(spec, "assign", required=True)
    at = _at_assignment(spec)
    f = ctx.curve_poly(curve_label)
    target = PolyRing.rationals(tuple(params))
    assignment = {}
    for piece in assign_raw.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, expr = piece.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _bad(spec, f"assign pieces look like var=expr, got {piece!r}")
        try:
            assignment[name] = parse_poly(expr.strip(), target)
        except PolyParseError as exc:
            raise _bad(spec, f"bad assign expr for {name!r}: {exc}") from None
    for name, value in at.items():
        assignment.setdefault(name, target.constant(value))
    for name in f.ring.names:
        if name not in assignment:
            raise _bad(spec, f"variable {name!r} is neither assigned nor "
                             "fixed with at=")
    ok, witness = check_parametrization(f, assignment, target)
    details = [f"{name} -> {assignment[name].to_text()}"
               for name in f.ring.names]
    if ok:
        details.append("composition vanishes identically")
    return _step(spec, f"parametrization of {curve_label}", ok, details,
                 witness, {"parameters": " ".join(params)})


@_register("picard_bound")
def _check_picard_bound(ctx, spec):
    expect = _attr_int(spec, "expect")
    hring = ctx.hypersurface()
    result = characters.picard_upper_bound(hring, ctx.automorphism())
    values = {
        "bound": result.bound,
        "strict_bound": result.strict_bound,
        "spectra_disjoint": result.spectra_disjoint,
        "multiplicity_free": result.multiplicity_free,
        "kept": " ".join(f"{c}:{d}" for c, d in result.kept) or "none",
        "kept_strict": " ".join(f"{c}:{d}" for c, d in result.kept_strict) or "none",
    }
    details = [
        f"computed upper bound: {result.bound}",
        f"strict-variant bound: {result.strict_bound}",
    ]
    if result.spectra_disjoint:
        details.append("outer and middle character sets are disjoint, so the "
                       "orbit rule is rigorous here")
    else:
        details.append("outer and middle character sets overlap; only the "
                       "strict-variant bound is certified")
    if expect is not None and result.bound != expect:
        details.append(f"declared expectation {expect} differs from the "
                       f"computed bound; recorded for review, not a failure")
    return _step(spec, "picard bound scan", True, details, None, values,
                 hring.dimension_route())


def run_check(ctx, spec):
    """Run one check, timed.

    A mathematical failure becomes a failing step that carries the error
    as its witness; a ``prime`` that is not usable is a configuration error.
    """
    start = time.perf_counter()
    try:
        step = CHECKS[spec.kind](ctx, spec)
    except _FAILURE_ERRORS as exc:
        step = _step(spec, f"{spec.kind}{_line(spec)}", False,
                     [f"{type(exc).__name__}: {exc}"],
                     str(exc) or type(exc).__name__)
    except modrank.BadPrime as exc:
        raise _bad(spec, str(exc)) from None
    step.duration = time.perf_counter() - start
    return step


def run_scenario(scn: ScenarioFile) -> Report:
    for spec in scn.checks:
        if spec.kind not in CHECKS:
            raise UnknownCheck(
                f"line {spec.line}: unknown check kind {spec.kind!r}")
    ctx = ScenarioContext(scn)
    steps = [run_check(ctx, spec) for spec in scn.checks]
    mode = {"arithmetic": "exact rational; modular certificates where a "
                          "step's mode says so"}
    return Report(scn.name, steps, mode=mode)
