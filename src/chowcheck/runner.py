"""Execute parsed scenarios: a registry of named checks over shared state.

A scenario declares objects (a graded ring, an automorphism, curves
with labeled points, optionally overrides for the built-in quartic
pencil) and an ordered list of checks.  The context builds each object
lazily and caches it, so a scenario pays only for what its checks use.

Each check kind declares its attributes once, in :func:`_register`: a
reader per attribute, and a default for an optional one.  Input problems
abort the run: an unknown kind raises :class:`UnknownCheck`, and an
attribute outside the kind's table, missing or unreadable raises
:class:`CheckConfigError`.  Every other input rule is checked once, where
the value is used: the library and the context's builders raise
:class:`~chowcheck.report.InputError` (a form that is not homogeneous, a
prime or coordinate they cannot take, an undeclared curve), and
:func:`run_check` alone turns it into a CheckConfigError under the
check's kind and line.  Mathematical failures become failing steps and
the run continues; any other exception is a bug.  The command line's
ring queries run a synthesized check without a line.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import lcm

from . import jacobian, modrank
from .poly import (PolyParseError, PolyRing, ProjectivePoint,
                   check_parametrization, multiplicity_at_point, parse_poly,
                   substitute)
from .report import CheckFailure, InputError, Report, StepResult
from .scenario import ScenarioFile

# characters, curves and pencil are imported by the checks that use them,
# so a scenario compiles only the modules its checks run; their failure
# exceptions are CheckFailures
_FAILURE_ERRORS = (ArithmeticError, CheckFailure)


class UnknownCheck(ValueError):
    """A check kind no registered implementation handles."""


class CheckConfigError(ValueError):
    """A check's attributes are missing, malformed, or dangling."""


class ScenarioContext:
    """Lazily built shared objects for one scenario run, and the curve
    work that checks share: each section cycle by (curve, line, sample),
    each relation lattice by (curve, lines) and each equivalence order by
    (curve, lines, pair).  A build that raises is not cached, so every
    check that asks gets its own error."""

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
                raise InputError("this check needs a [ring] section")
            return PolyRing.rationals(tuple(self.scn.ring["variables"]))
        return self._get("ring", build)

    def ring_poly(self):
        def build():
            ring = self.ring()  # refuses a scenario without [ring] keys
            try:
                return parse_poly(self.scn.ring["poly"], ring)
            except PolyParseError as exc:
                raise InputError(f"bad [ring] poly: {exc}") from None
        return self._get("ring_poly", build)

    def automorphism(self):
        """The declared automorphism; ``scenario`` has checked its modulus
        and exponent count."""
        def build():
            if self.scn.automorphism is None:
                raise InputError("this check needs an [automorphism] section")
            from . import characters
            return characters.DiagonalAutomorphism(
                self.scn.automorphism["exponents"],
                self.scn.automorphism["modulus"])
        return self._get("automorphism", build)

    def hypersurface(self):
        """Graded quotient ring of the [ring] poly."""
        return self._get("hring",
                         lambda: jacobian.HypersurfaceRing(self.ring_poly()))

    def curve_decl(self, label):
        decl = self.scn.curves.get(label)
        if decl is None:
            raise InputError(f"curve {label!r} is not declared")
        if len(decl.plane) != 3:
            raise InputError(
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
                raise InputError(
                    f"bad poly for curve {label!r}: {exc}") from None
            missing = [v for v in decl.plane if v not in ring.index]
            if missing:
                raise InputError(
                    f"curve {label!r}: plane coordinates {missing} are not "
                    "among its variables")
            if not f.is_homogeneous(decl.plane):
                raise InputError(
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
            raise InputError(
                f"point {point_label!r} is not declared on curve {curve_label!r}")
        return ProjectivePoint(decl.points[point_label]).coords

    def section(self, curve, line, sample_t=None):
        """Intersection cycle of ``line`` = 0 with the curve, or with its
        member at t = ``sample_t``, as name -> multiplicity."""
        def build():
            from . import curves
            f = self.curve_poly(curve)
            if sample_t is not None:
                f = substitute(f, {"t": sample_t}, f.ring)
            return curves.section_cycle(f, line, self.curve_decl(curve).plane,
                                        self.curve_labels(curve))
        return self._get(("section", curve, line, sample_t), build)

    def lattice(self, curve, lines):
        """Relation lattice of the curve's sections by ``lines``, in order."""
        def build():
            from . import curves
            return curves.hyperplane_relations(
                lines, lambda line: self.section(curve, line))
        return self._get(("lattice", curve, lines), build)

    def equivalence_order(self, curve, lines, pair):
        """Least multiple of the difference of the points ``pair`` in the
        lattice of ``lines``, or None."""
        def build():
            from . import curves
            return curves.minimal_equivalence_order(self.lattice(curve, lines),
                                                    *pair)
        return self._get(("order", curve, lines, pair), build)

    def pencil(self):
        """The built-in pencil with the scenario's [pencil] texts."""
        def build():
            from . import pencil
            return pencil.default_scenario(self.scn.pencil_overrides)
        return self._get("pencil", build)


def _line(spec):
    """`` (line N)`` for a check read from a file; synthesized checks have none."""
    return f" (line {spec.line})" if spec.line else ""


def _bad(spec, problem):
    return CheckConfigError(f"check {spec.kind!r}{_line(spec)}: {problem}")


def _value(parse, what):
    """A reader of the whole value by ``parse``, which raises on bad text."""
    def read(spec, name, raw):
        try:
            return parse(raw)
        except (ValueError, ZeroDivisionError):
            raise _bad(spec, f"{name}={raw!r} is not {what}") from None
    return read


_integer = _value(int, "an integer")
_rational = _value(Fraction, "a rational number")
_integers = _value(lambda raw: [int(tok) for tok in raw.split()],
                   "a list of integers")
_rationals = _value(lambda raw: [Fraction(tok) for tok in raw.split()],
                    "a list of rational numbers")


def _degree(spec, name, raw):
    """The degree of a graded piece: a nonnegative integer."""
    degree = _integer(spec, name, raw)
    if degree < 0:
        raise _bad(spec, f"{name}={degree} is negative")
    return degree


def _prime(spec, name, raw):
    """A modulus, gated even on routes that never use it."""
    prime = _integer(spec, name, raw)
    modrank.require_prime(prime)
    return prime


def _text(spec, name, raw):
    return raw


def _mode(spec, name, raw):
    if raw not in ("exact", "modular"):
        raise _bad(spec, f"{name}={raw!r} is not 'exact' or 'modular'")
    return raw


def _cycle(spec, name, raw):
    """Space-separated ``NAME:MULT`` entries, as name -> multiplicity."""
    cycle = {}
    for chunk in raw.split():
        label, sep, mult = chunk.partition(":")
        if not sep or not label:
            raise _bad(spec, "expected cycle entries look like NAME:MULT, "
                             f"got {chunk!r}")
        try:
            cycle[label] = int(mult)
        except ValueError:
            raise _bad(spec, f"bad multiplicity in {chunk!r}") from None
    return cycle


def _assignment(spec, name, raw):
    """Comma-separated ``name=value`` entries, as name -> rational."""
    out = {}
    for chunk in raw.split(","):
        var, sep, value = chunk.partition("=")
        var = var.strip()
        if not sep or not var:
            raise _bad(spec, f"{name}= entries look like name=value, "
                             f"got {chunk!r}")
        try:
            out[var] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise _bad(spec, f"bad value in {chunk!r}") from None
    return out


CHECKS = {}
ATTRIBUTES = {}
_REQUIRED = object()


def _register(kind, **table):
    """Register a check body under ``kind`` with its attribute table.

    ``table`` maps each attribute to its reader, or to ``(reader,
    default)`` when the attribute is optional.  Before the body runs, an
    unknown or missing attribute is a configuration error, and the body
    gets every attribute, read, as a keyword argument.
    """
    entries = {name: entry if isinstance(entry, tuple) else (entry, _REQUIRED)
               for name, entry in table.items()}

    def wrap(body):
        def check(ctx, spec):
            for name in spec.attrs:
                if name not in entries:
                    raise _bad(spec, f"unknown attribute {name!r}")
            values = {}
            for name, (read, default) in entries.items():
                if name in spec.attrs:
                    values[name] = read(spec, name, spec.attrs[name])
                elif default is _REQUIRED:
                    raise _bad(spec, f"needs attribute {name!r}")
                else:
                    values[name] = default
            return body(ctx, spec, **values)
        CHECKS[kind] = check
        ATTRIBUTES[kind] = entries
        return body
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


def _point_index(ctx, spec, index):
    """``index``, refused unless it numbers a point of the pencil."""
    if not 1 <= index <= len(ctx.pencil().points):
        raise _bad(spec, f"point index {index} out of range")
    return index


@_register("pencil_factorization")
def _check_pencil_factorization(ctx, spec):
    from . import pencil
    step = pencil.verify_blowup_factorization(ctx.pencil())
    return _renamed(step, spec, "pencil factorization")


@_register("pencil_membership", point=_integer)
def _check_pencil_membership(ctx, spec, point):
    from . import pencil
    index = _point_index(ctx, spec, point)
    step = pencil.membership_identity(ctx.pencil(), index)
    return _renamed(step, spec, f"pencil membership, point {index}")


@_register("pencil_tangent", point=_integer)
def _check_pencil_tangent(ctx, spec, point):
    from . import pencil
    index = _point_index(ctx, spec, point)
    step = pencil.tangent_identity(ctx.pencil(), index)
    return _renamed(step, spec, f"pencil tangent, point {index}")


@_register("pencil_concurrency")
def _check_pencil_concurrency(ctx, spec):
    from . import pencil
    step = pencil.verify_concurrency(ctx.pencil())
    return _renamed(step, spec, "pencil concurrency")


@_register("pencil_hyperelliptic")
def _check_pencil_hyperelliptic(ctx, spec):
    from . import pencil
    step = pencil.verify_hyperelliptic_condition(ctx.pencil())
    return _renamed(step, spec, "pencil parameter condition")


@_register("pencil_degenerations", expect_zero=(_rationals, None))
def _check_pencil_degenerations(ctx, spec, expect_zero):
    from . import pencil
    conditions = pencil.report_degenerate_parameters(ctx.pencil())
    details = [f"{cond}: {reason}" for cond, reason in conditions]
    values = {"conditions": len(conditions)}
    ok = True
    if expect_zero is not None:
        got = sorted(Fraction(cond.partition("=")[2])
                     for cond, reason in conditions
                     if reason == "lam(t) = 0" and cond.startswith("t ="))
        values["zero_parameters"] = " ".join(str(v) for v in got)
        ok = got == sorted(expect_zero)
        if not ok:
            details.append("expected lam(t) = 0 exactly at t in "
                           f"{{{spec.attrs['expect_zero']}}}")
    return _step(spec, "pencil degenerations", ok, details,
                 "degeneration list mismatch", values)


@_register("hilbert", expect=_integers)
def _check_hilbert(ctx, spec, expect):
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


@_register("ring_dim", degree=_integer)
def _check_ring_dim(ctx, spec, degree):
    hring = ctx.hypersurface()
    dim = hring.quotient_dim(degree)
    return _step(spec, f"dimension in degree {degree}", True,
                 [f"dim = {dim} (exact)"], None, {"dim": dim},
                 hring.dimension_route())


@_register("ring_map", a=_degree, b=_degree, prime=(_prime, None))
def _check_ring_map(ctx, spec, a, b, prime):
    result = jacobian.map_surjectivity(ctx.hypersurface(), a, b, prime=prime)
    values = {"rank": result.rank, "target_dim": result.full,
              "mode": result.mode, "surjective": result.ok}
    word = "surjective" if result.ok else "not surjective"
    return _step(spec, f"multiplication {a} x {b} -> {a + b}", result.ok,
                 [f"{word}, rank {result.rank} of {result.full} "
                  f"({result.mode})"], "not surjective", values, result.route)


@_register("uniform_bound", b=_degree, expect=_integer,
           threshold=(_integer, None))
def _check_uniform_bound(ctx, spec, b, expect, threshold):
    bound, per_variable, route = jacobian.uniform_mult_rank_bound(
        ctx.hypersurface(), b)
    values = {
        "bound": bound,
        "per_variable": " ".join(str(c) for c in per_variable),
    }
    details = [f"every nonzero linear form multiplies degree {b} "
               f"with rank at least {bound}"]
    ok = bound == expect
    if threshold is not None:
        details.append(f"threshold {threshold}: "
                       + ("met" if bound >= threshold else "NOT met"))
        ok = ok and bound >= threshold
    if not ok:
        details.append(f"expected bound {expect}")
    return _step(spec, "uniform multiplication bound", ok, details,
                 "bound mismatch", values, route)


@_register("green_gotzmann", g=_text, b=_degree, expect_rank=_integer)
def _check_green_gotzmann(ctx, spec, g, b, expect_rank):
    try:
        g = parse_poly(g, ctx.ring())
    except PolyParseError as exc:
        raise _bad(spec, f"bad g: {exc}") from None
    if g.is_zero() or not g.is_homogeneous():
        raise _bad(spec, "bad g: not a nonzero homogeneous form")
    result, subspace_dim, class_nonzero = jacobian.functional_kernel_map(
        ctx.hypersurface(), g, b)
    values = {
        "rank": result.rank,
        "target_dim": result.full,
        "subspace_dim": subspace_dim,
        "class_nonzero": class_nonzero,
    }
    details = [
        f"kernel subspace of dimension {subspace_dim} multiplies "
        f"onto a target of dimension {result.full} with rank {result.rank}",
    ]
    failed = [why for why, bad in (
        ("rank mismatch", result.rank != expect_rank),
        ("map not onto", not result.ok),
        ("g pairs to zero", not class_nonzero)) if bad]
    if not failed:
        details.append("restricted multiplication map is surjective")
    if not class_nonzero:
        details.append(f"g pairs to zero with every class of degree "
                       f"{g.total_degree()}")
    if result.rank != expect_rank:
        details.append(f"expected rank {expect_rank}")
    return _step(spec, "kernel multiplication rank", not failed, details,
                 ", ".join(failed), values, result.route)


@_register("duality", a=_degree, b=_degree, prime=(_prime, None))
@_register("no_left_kernel", a=_degree, b=_degree, prime=(_prime, None),
           expect_rank=(_integer, None))
def _check_left_kernel(ctx, spec, a, b, prime, expect_rank=None):
    """Left kernel emptiness at degrees (a, b) by the socle duality argument.

    ``no_left_kernel`` may declare ``expect_rank``, which must then match
    the rank of the surjectivity half.
    """
    surj, pairing = jacobian.left_kernel_via_duality(ctx.hypersurface(), a, b,
                                                     prime=prime)
    empty = surj.ok and pairing.ok
    values = {
        "empty": empty,
        "surjectivity_rank": surj.rank,
        "surjectivity_mode": surj.mode,
        "pairing_rank": pairing.rank,
        "pairing_mode": pairing.mode,
    }
    details = [
        f"multiplication onto the complementary piece has rank "
        f"{surj.rank} of {surj.full} ({surj.mode})",
        f"socle pairing at degree {a} has rank {pairing.rank} "
        f"({pairing.mode})",
        f"no class of degree {a} kills all of degree {b}" if empty
        else "duality argument does not close",
    ]
    ok, witness = empty, "duality argument incomplete"
    if expect_rank is not None and surj.rank != expect_rank:
        details.append(f"expected surjectivity rank {expect_rank}")
        ok, witness = False, "rank mismatch"
    name = ("left kernel via duality" if spec.kind == "duality"
            else f"no left kernel at ({a}, {b})")
    return _step(spec, name, ok, details, witness, values, pairing.route)


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
    from . import characters
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


@_register("smooth", mode=(_mode, "modular"),
           prime=(_prime, modrank.DEFAULT_PRIME))
def _check_smooth(ctx, spec, mode, prime):
    hring = ctx.hypersurface()
    result = jacobian.is_smooth_artinian(
        hring, prime=None if mode == "exact" else prime)
    degree, dimension = hring.socle_degree + 1, result.full - result.rank
    values = {
        "smooth": result.ok,
        "mode": result.mode,
        "checked_degree": degree,
        "dimension": dimension,
    }
    where = f"degree {degree} ({result.mode})"
    detail = (f"quotient vanishes in {where}" if result.ok
              else f"quotient has dimension {dimension} in {where}")
    return _step(spec, "smoothness", result.ok, [detail],
                 "nonzero piece above the socle", values, result.route)


def _cycle_text(named):
    return " + ".join(f"{m}*{name}" for name, m in sorted(named.items()))


@_register("intersection", curve=_text, line=_text, expect=_cycle,
           sample_t=(_rational, None))
def _check_intersection(ctx, spec, curve, line, expect, sample_t):
    # the sample runs only when the symbolic cycle agrees, so refuse a
    # curve without t up front
    if sample_t is not None and "t" not in ctx.curve_poly(curve).ring.index:
        raise _bad(spec, "sample_t names 't', which is not a variable of "
                         f"curve {curve!r}")
    named = ctx.section(curve, line)
    mode = "symbolic"
    details = [f"section by {line} = 0: {_cycle_text(named)}"]
    agree = named == expect
    if agree and sample_t is not None:
        sampled = ctx.section(curve, line, sample_t)
        mode = f"symbolic+sampled(t={sample_t})"
        if sampled == expect:
            details.append(f"sample at t = {sample_t} gives the same cycle")
        else:
            agree = False
            details.append(f"sample at t = {sample_t} gives "
                           f"{_cycle_text(sampled)}")
    values = {"cycle": _cycle_text(named), "mode": mode}
    if not agree:
        details.append(f"expected {_cycle_text(expect)}")
    return _step(spec, f"intersection {curve} . ({line} = 0)", agree,
                 details, "cycle mismatch", values)


def _order_for(ctx, spec, curve, key, lines, pair):
    """The lattice of ``lines``, the attribute ``key``, on ``curve``, the
    pair of point labels, and its equivalence order, or None."""
    ctx.curve_decl(curve)  # refuses an undeclared curve before the pair
    lines, pair = tuple(lines.split()), tuple(pair.split())
    if len(pair) != 2:
        raise _bad(spec, "pair needs two labels")
    for label in pair:
        ctx.curve_point(curve, label)  # refuses an undeclared label
    ctx.curve_poly(curve)  # refuses a bad curve before its lines
    if not lines:
        raise InputError(f"{key}= names no line")
    return (ctx.lattice(curve, lines), pair,
            ctx.equivalence_order(curve, lines, pair))


@_register("equivalence_order", curve=_text, expect=_integer, lines=_text,
           pair=_text)
def _check_equivalence_order(ctx, spec, curve, expect, lines, pair):
    lattice, pair, found = _order_for(ctx, spec, curve, "lines", lines, pair)
    values = {
        "basis": " ".join(lattice.point_basis),
        "relations": len(lattice.relations),
    }
    details = [f"relation lattice over points {values['basis']} "
               f"({values['relations']} relations)"]
    name = f"equivalence order on {curve}"
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


@_register("combined_order", expect=_integer, curve1=_text, lines1=_text,
           pair1=_text, curve2=_text, lines2=_text, pair2=_text)
def _check_combined_order(ctx, spec, expect, curve1, lines1, pair1, curve2,
                          lines2, pair2):
    name = "combined equivalence order"
    orders = []
    details = []
    values = {}
    for idx, (curve, lines, pair) in enumerate(
            ((curve1, lines1, pair1), (curve2, lines2, pair2)), start=1):
        _, pair, found = _order_for(ctx, spec, curve, f"lines{idx}", lines,
                                    pair)
        if found is None:
            details.append(f"no lattice multiple on curve {curve}")
            return _step(spec, name, False, details, "no lattice multiple",
                         values)
        orders.append(found.order)
        values[f"order{idx}"] = found.order
        details.append(f"curve {curve}: order {found.order} "
                       f"for {pair[0]} - {pair[1]}")
    combined = lcm(*orders)
    values["combined"] = combined
    details.append(f"least common multiple: {combined}")
    if combined != expect:
        details.append(f"expected {expect}")
    return _step(spec, name, combined == expect, details, "order mismatch",
                 values)


@_register("multiplicity", curve=_text, point=_text, expect=_integer,
           at=(_assignment, None))
def _check_multiplicity(ctx, spec, curve, point, expect, at):
    decl = ctx.curve_decl(curve)
    f = ctx.curve_poly(curve)
    if at:
        f = substitute(f, at, f.ring)
    coords = ctx.curve_point(curve, point)
    mult = multiplicity_at_point(f, coords, decl.plane)
    where = f" at {', '.join(f'{k} = {v}' for k, v in sorted(at.items()))}" if at else ""
    details = [f"vanishing order {mult} at {point}{where}"]
    if mult != expect:
        details.append(f"expected {expect}")
    return _step(spec, f"multiplicity of {curve} at {point}",
                 mult == expect, details, "multiplicity mismatch",
                 {"multiplicity": mult})


@_register("parametrization", curve=_text, params=_text, assign=_text,
           at=(_assignment, None))
def _check_parametrization(ctx, spec, curve, params, assign, at):
    f = ctx.curve_poly(curve)
    params = params.split()
    for name in params:
        if params.count(name) > 1:
            raise _bad(spec, f"params names {name!r} twice")
    target = PolyRing.rationals(tuple(params))
    assignment = {}
    for piece in assign.split(";"):
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
    for name, value in (at or {}).items():
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
    return _step(spec, f"parametrization of {curve}", ok, details,
                 witness, {"parameters": " ".join(params)})


@_register("picard_bound", expect=(_integer, None))
def _check_picard_bound(ctx, spec, expect):
    from . import characters
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
    as its witness; an InputError is a configuration error under the
    check's kind and line.
    """
    start = time.perf_counter()
    try:
        step = CHECKS[spec.kind](ctx, spec)
    except _FAILURE_ERRORS as exc:
        step = _step(spec, f"{spec.kind}{_line(spec)}", False,
                     [f"{type(exc).__name__}: {exc}"],
                     str(exc) or type(exc).__name__)
    except InputError as exc:
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
