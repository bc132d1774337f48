"""Execute parsed scenarios: a registry of named checks over shared state.

A scenario declares objects (a graded ring, an automorphism, curves
with labeled points, optionally overrides for the built-in quartic
pencil) and an ordered list of checks.  The context builds each object
lazily and caches it, so a scenario pays only for what its checks use.

Input problems (unknown check kinds, missing or malformed attributes,
references to undeclared objects, a ``prime`` that is not a usable
prime) raise :class:`UnknownCheck` or :class:`CheckConfigError` and
abort the run; mathematical failures inside a check become failing step
results and the run continues.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import lcm

from . import characters, curves, jacobian, modrank, pencil
from .poly import (NotDivisible, PolyParseError, PolyRing, ProjectivePoint,
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
            return characters.DiagonalAutomorphism(
                self.scn.automorphism["exponents"],
                self.scn.automorphism["modulus"])
        return self._get("automorphism", build)

    def hypersurface(self, symmetric=None):
        """Graded quotient ring; symmetric blocks when an automorphism
        is declared and the form is an eigenvector (faster exact path)."""
        if symmetric is None:
            symmetric = (self.scn.automorphism is not None
                         and characters.check_invariance(self.ring_poly(),
                                                         self.automorphism()))
        key = ("hring", symmetric)

        def build():
            if not symmetric:
                return jacobian.HypersurfaceRing(self.ring_poly())
            sigma = self.automorphism()
            return jacobian.HypersurfaceRing(
                self.ring_poly(), symmetry=(sigma.exponents, sigma.modulus))
        return self._get(key, build)

    def curve_decl(self, label):
        decl = self.scn.curves.get(label)
        if decl is None:
            raise CheckConfigError(f"curve {label!r} is not declared")
        return decl

    def curve_poly(self, label):
        def build():
            decl = self.curve_decl(label)
            ring = PolyRing.rationals(tuple(decl.variables))
            try:
                return parse_poly(decl.poly, ring)
            except PolyParseError as exc:
                raise CheckConfigError(
                    f"bad poly for curve {label!r}: {exc}") from None
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
    family = base.family
    if rebuilt:
        family = parse_poly("x0^4 + x1^4 - x2^4 - x3^4", amb)
        prod = parse_poly("2*t", amb)
        for line in lines:
            prod = prod * line
        family = family + prod
    strict = (parse_in("strict_transform", blow)
              if "strict_transform" in overrides else base.strict_transform)
    declared = (parse_in("declared_quadratic", blow)
                if "declared_quadratic" in overrides else base.declared_quadratic)
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


def _attr(spec, name, default=None, required=False):
    if name in spec.attrs:
        return spec.attrs[name]
    if required:
        raise CheckConfigError(
            f"check {spec.kind!r} (line {spec.line}) needs attribute {name!r}")
    return default


def _attr_int(spec, name, default=None, required=False):
    raw = _attr(spec, name, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise CheckConfigError(
            f"check {spec.kind!r} (line {spec.line}): "
            f"{name}={raw!r} is not an integer") from None


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
        raise CheckConfigError(
            f"check {spec.kind!r} (line {spec.line}): "
            f"{name}={raw!r} is not a rational number") from None


def _attr_ints(spec, name, required=False):
    raw = _attr(spec, name, required=required)
    if raw is None:
        return None
    try:
        return [int(tok) for tok in raw.split()]
    except ValueError:
        raise CheckConfigError(
            f"check {spec.kind!r} (line {spec.line}): "
            f"{name}={raw!r} is not a list of integers") from None


CHECKS = {}


def _register(kind):
    def wrap(func):
        CHECKS[kind] = func
        return func
    return wrap


def _from_step(step, spec, name=None, values=None):
    return StepResult(name or step.name, spec.kind, step.status, spec.cite,
                      details=step.details, witness=step.witness, values=values)


@_register("pencil_factorization")
def _check_pencil_factorization(ctx, spec):
    step = pencil.verify_blowup_factorization(ctx.pencil())
    return _from_step(step, spec, name="pencil factorization")


@_register("pencil_membership")
def _check_pencil_membership(ctx, spec):
    index = _attr_int(spec, "point", required=True)
    scenario = ctx.pencil()
    if not 1 <= index <= len(scenario.points):
        raise CheckConfigError(f"point index {index} out of range")
    step = pencil.membership_identity(scenario, index)
    return _from_step(step, spec, name=f"pencil membership, point {index}")


@_register("pencil_tangent")
def _check_pencil_tangent(ctx, spec):
    index = _attr_int(spec, "point", required=True)
    scenario = ctx.pencil()
    if not 1 <= index <= len(scenario.points):
        raise CheckConfigError(f"point index {index} out of range")
    step = pencil.tangent_identity(scenario, index)
    return _from_step(step, spec, name=f"pencil tangent, point {index}")


@_register("pencil_concurrency")
def _check_pencil_concurrency(ctx, spec):
    step = pencil.verify_concurrency(ctx.pencil())
    return _from_step(step, spec, name="pencil concurrency")


@_register("pencil_hyperelliptic")
def _check_pencil_hyperelliptic(ctx, spec):
    step = pencil.verify_hyperelliptic_condition(ctx.pencil())
    return _from_step(step, spec, name="pencil parameter condition")


@_register("pencil_degenerations")
def _check_pencil_degenerations(ctx, spec):
    conditions = pencil.report_degenerate_parameters(ctx.pencil())
    details = [f"{cond}: {reason}" for cond, reason in conditions]
    values = {"conditions": len(conditions)}
    expect_zero = _attr(spec, "expect_zero")
    status = "pass"
    if expect_zero is not None:
        want = sorted(Fraction(tok) for tok in expect_zero.split())
        got = sorted(Fraction(cond.partition("=")[2])
                     for cond, reason in conditions
                     if reason == "lam(t) = 0" and cond.startswith("t ="))
        values["zero_parameters"] = " ".join(str(v) for v in got)
        if got != want:
            status = "fail"
            details.append(
                f"expected lam(t) = 0 exactly at t in {{{expect_zero}}}")
    if status == "fail":
        return StepResult("pencil degenerations", spec.kind, "fail", spec.cite,
                          details=details, witness="degeneration list mismatch",
                          values=values)
    return StepResult("pencil degenerations", spec.kind, "pass", spec.cite,
                      details=details, values=values)


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
    if table == expect:
        return StepResult("hilbert function", spec.kind, "pass", spec.cite,
                          details=details, values=values)
    details.append(f"expected: {' '.join(str(d) for d in expect)}")
    return StepResult("hilbert function", spec.kind, "fail", spec.cite,
                      details=details, witness="dimension table mismatch",
                      values=values)


@_register("uniform_bound")
def _check_uniform_bound(ctx, spec):
    b = _attr_int(spec, "b", required=True)
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
    if ok:
        return StepResult("uniform multiplication bound", spec.kind, "pass",
                          spec.cite, details=details, values=values)
    details.append(f"expected bound {expect}")
    return StepResult("uniform multiplication bound", spec.kind, "fail",
                      spec.cite, details=details, witness="bound mismatch",
                      values=values)


@_register("green_gotzmann")
def _check_green_gotzmann(ctx, spec):
    g_text = _attr(spec, "g", required=True)
    b = _attr_int(spec, "b", required=True)
    expect_rank = _attr_int(spec, "expect_rank", required=True)
    try:
        g = parse_poly(g_text, ctx.ring())
    except PolyParseError as exc:
        raise CheckConfigError(f"bad g: {exc}") from None
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
    if result.surjective and result.rank == expect_rank and result.g_class_nonzero:
        details.append("restricted multiplication map is surjective")
        return StepResult("kernel multiplication rank", spec.kind, "pass",
                          spec.cite, details=details, values=values)
    if not result.g_class_nonzero:
        details.append("the chosen class vanishes in the quotient")
    if result.rank != expect_rank:
        details.append(f"expected rank {expect_rank}")
    return StepResult("kernel multiplication rank", spec.kind, "fail",
                      spec.cite, details=details, witness="rank mismatch",
                      values=values)


@_register("duality")
def _check_duality(ctx, spec):
    a = _attr_int(spec, "a", required=True)
    b = _attr_int(spec, "b", required=True)
    prime = _attr_prime(spec)
    result = jacobian.left_kernel_via_duality(ctx.hypersurface(), a, b,
                                              prime=prime)
    return _duality_step(result, spec, "left kernel via duality")


def _duality_step(result, spec, name):
    values = {
        "empty": result.empty,
        "surjectivity_rank": result.surjectivity.rank,
        "surjectivity_mode": result.surjectivity.mode,
        "pairing_rank": result.pairing.rank,
        "pairing_mode": result.pairing.mode,
    }
    details = [
        f"multiplication onto the complementary piece has rank "
        f"{result.surjectivity.rank} of {result.surjectivity.target_dim} "
        f"({result.surjectivity.mode})",
        f"socle pairing at degree {result.a} has rank {result.pairing.rank} "
        f"({result.pairing.mode})",
    ]
    if result.empty:
        details.append(
            f"no class of degree {result.a} kills all of degree {result.b}")
        return StepResult(name, spec.kind, "pass", spec.cite,
                          details=details, values=values)
    details.append("duality argument does not close")
    return StepResult(name, spec.kind, "fail", spec.cite, details=details,
                      witness="duality argument incomplete", values=values)


@_register("no_left_kernel")
def _check_no_left_kernel(ctx, spec):
    a = _attr_int(spec, "a", required=True)
    b = _attr_int(spec, "b", required=True)
    prime = _attr_prime(spec)
    expect_rank = _attr_int(spec, "expect_rank")
    result = jacobian.left_kernel_via_duality(ctx.hypersurface(), a, b,
                                              prime=prime)
    step = _duality_step(result, spec, f"no left kernel at ({a}, {b})")
    if expect_rank is not None and result.surjectivity.rank != expect_rank:
        step.details.append(f"expected surjectivity rank {expect_rank}")
        return StepResult(step.name, spec.kind, "fail", spec.cite,
                          details=step.details, witness="rank mismatch",
                          values=step.values)
    return step


@_register("tau_nonzero")
def _check_tau_nonzero(ctx, spec):
    if ctx.scn.cycle is None or "tau" not in ctx.scn.cycle:
        raise CheckConfigError("tau_nonzero needs a [cycle] section with tau")
    tau = ctx.scn.cycle["tau"]
    values = {"tau": " ".join(str(c) for c in tau)}
    if any(tau):
        return StepResult("boundary invariant nonzero", spec.kind, "pass",
                          spec.cite,
                          details=[f"declared invariant ({values['tau']}) "
                                   "has a nonzero entry"],
                          values=values)
    return StepResult("boundary invariant nonzero", spec.kind, "fail",
                      spec.cite, details=["declared invariant is zero"],
                      witness="zero invariant", values=values)


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
        exps = next(iter(f.terms))
        values["character"] = sigma.character(exps)
        return StepResult(
            "automorphism invariance", spec.kind, "pass", spec.cite,
            details=[f"every monomial has character {values['character']} "
                     f"mod {sigma.modulus}"],
            values=values)
    chars = sorted({sigma.character(e) for e in f.terms})
    return StepResult(
        "automorphism invariance", spec.kind, "fail", spec.cite,
        details=[f"monomials carry distinct characters {chars}"],
        witness="not an eigenvector", values=values)


@_register("smooth")
def _check_smooth(ctx, spec):
    exact = _attr(spec, "mode", default="modular") == "exact"
    prime = _attr_prime(spec, default=modrank.DEFAULT_PRIME)
    hring = ctx.hypersurface(symmetric=False) if not exact else ctx.hypersurface()
    result = jacobian.is_smooth_artinian(hring, prime=prime, exact=exact)
    values = {
        "smooth": result.smooth,
        "mode": result.mode,
        "checked_degree": result.checked_degree,
        "dimension": result.dimension,
    }
    if result.smooth:
        return StepResult(
            "smoothness", spec.kind, "pass", spec.cite,
            details=[f"quotient vanishes in degree {result.checked_degree} "
                     f"({result.mode})"],
            values=values)
    return StepResult(
        "smoothness", spec.kind, "fail", spec.cite,
        details=[f"quotient has dimension {result.dimension} in degree "
                 f"{result.checked_degree} ({result.mode})"],
        witness="nonzero piece above the socle", values=values)


def _parse_expected_cycle(spec, raw):
    expected = {}
    for chunk in raw.split():
        name, sep, mult = chunk.partition(":")
        if not sep or not name:
            raise CheckConfigError(
                f"check {spec.kind!r} (line {spec.line}): expected cycle "
                f"entries look like NAME:MULT, got {chunk!r}")
        try:
            expected[name] = int(mult)
        except ValueError:
            raise CheckConfigError(
                f"check {spec.kind!r} (line {spec.line}): bad multiplicity "
                f"in {chunk!r}") from None
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
    name = f"intersection {curve_label} . ({line_var} = 0)"
    if agree:
        return StepResult(name, spec.kind, "pass", spec.cite,
                          details=details, values=values)
    details.append(f"expected {_cycle_text(expected)}")
    return StepResult(name, spec.kind, "fail", spec.cite, details=details,
                      witness="cycle mismatch", values=values)


def _order_for(ctx, spec, curve_label, lines_raw, pair_raw):
    decl = ctx.curve_decl(curve_label)
    line_vars = lines_raw.split()
    pair = pair_raw.split()
    if len(pair) != 2:
        raise CheckConfigError(
            f"check {spec.kind!r} (line {spec.line}): pair needs two labels")
    for v in line_vars:
        if v not in decl.plane:
            raise CheckConfigError(
                f"{v!r} is not a plane coordinate of curve {curve_label!r}")
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
        return StepResult(name, spec.kind, "fail", spec.cite, details=details,
                          witness="no lattice multiple", values=values)
    values["order"] = found.order
    values["witness"] = " ".join(str(c) for c in found.witness)
    details.append(f"rational equivalence holds at n = {found.order} "
                   f"for {pair[0]} - {pair[1]}")
    details.append("upper-bound certificate: the lattice only contains the "
                   "declared coordinate-line relations")
    if found.order == expect:
        return StepResult(name, spec.kind, "pass", spec.cite, details=details,
                          values=values)
    details.append(f"expected order {expect}")
    return StepResult(name, spec.kind, "fail", spec.cite, details=details,
                      witness="order mismatch", values=values)


@_register("combined_order")
def _check_combined_order(ctx, spec):
    expect = _attr_int(spec, "expect", required=True)
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
            return StepResult("combined equivalence order", spec.kind, "fail",
                              spec.cite, details=details,
                              witness="no lattice multiple", values=values)
        orders.append(found.order)
        values[f"order{idx}"] = found.order
        details.append(f"curve {curve_label}: order {found.order} "
                       f"for {pair[0]} - {pair[1]}")
    combined = lcm(*orders)
    values["combined"] = combined
    details.append(f"least common multiple: {combined}")
    name = "combined equivalence order"
    if combined == expect:
        return StepResult(name, spec.kind, "pass", spec.cite, details=details,
                          values=values)
    details.append(f"expected {expect}")
    return StepResult(name, spec.kind, "fail", spec.cite, details=details,
                      witness="order mismatch", values=values)


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
            raise CheckConfigError(
                f"check {spec.kind!r} (line {spec.line}): at= entries look "
                f"like name=value, got {chunk!r}")
        try:
            out[name] = Fraction(value.strip())
        except ValueError:
            raise CheckConfigError(
                f"check {spec.kind!r} (line {spec.line}): bad value "
                f"in {chunk!r}") from None
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
    values = {"multiplicity": mult}
    where = f" at {', '.join(f'{k} = {v}' for k, v in sorted(at.items()))}" if at else ""
    details = [f"vanishing order {mult} at {point_label}{where}"]
    name = f"multiplicity of {curve_label} at {point_label}"
    if mult == expect:
        return StepResult(name, spec.kind, "pass", spec.cite, details=details,
                          values=values)
    details.append(f"expected {expect}")
    return StepResult(name, spec.kind, "fail", spec.cite, details=details,
                      witness="multiplicity mismatch", values=values)


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
            raise CheckConfigError(
                f"check {spec.kind!r} (line {spec.line}): assign pieces look "
                f"like var=expr, got {piece!r}")
        try:
            assignment[name] = parse_poly(expr.strip(), target)
        except PolyParseError as exc:
            raise CheckConfigError(f"bad assign expr for {name!r}: {exc}") from None
    for name, value in at.items():
        assignment.setdefault(name, target.constant(value))
    for name in f.ring.names:
        if name not in assignment:
            raise CheckConfigError(
                f"check {spec.kind!r} (line {spec.line}): variable {name!r} "
                "is neither assigned nor fixed with at=")
    ok, witness = check_parametrization(f, assignment, target)
    values = {"parameters": " ".join(params)}
    details = [f"{name} -> {assignment[name].to_text()}"
               for name in f.ring.names]
    name = f"parametrization of {curve_label}"
    if ok:
        details.append("composition vanishes identically")
        return StepResult(name, spec.kind, "pass", spec.cite, details=details,
                          values=values)
    return StepResult(name, spec.kind, "fail", spec.cite, details=details,
                      witness=witness, values=values)


@_register("picard_bound")
def _check_picard_bound(ctx, spec):
    expect = _attr_int(spec, "expect")
    result = characters.picard_upper_bound(ctx.hypersurface(),
                                           ctx.automorphism())
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
    return StepResult("picard bound scan", spec.kind, "pass", spec.cite,
                      details=details, values=values)


def run_scenario(scn: ScenarioFile) -> Report:
    for spec in scn.checks:
        if spec.kind not in CHECKS:
            raise UnknownCheck(
                f"line {spec.line}: unknown check kind {spec.kind!r}")
    ctx = ScenarioContext(scn)
    steps = []
    for spec in scn.checks:
        start = time.perf_counter()
        try:
            step = CHECKS[spec.kind](ctx, spec)
        except _FAILURE_ERRORS as exc:
            step = StepResult(f"{spec.kind} (line {spec.line})", spec.kind,
                              "fail", spec.cite,
                              details=[f"{type(exc).__name__}: {exc}"],
                              witness=str(exc) or type(exc).__name__)
        except modrank.BadPrime as exc:
            raise CheckConfigError(
                f"check {spec.kind!r} (line {spec.line}): {exc}") from None
        step.duration = time.perf_counter() - start
        steps.append(step)
    mode = {"arithmetic": "exact rational; modular certificates where a "
                          "step's mode says so"}
    return Report(scn.name, steps, mode=mode)
