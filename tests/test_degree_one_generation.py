"""Generation in degree 1 against the old routes on exact pieces.

R_a * R_b = R_(a+b) in every graded quotient of the polynomial ring, so
``ring_map``, the surjectivity half of ``duality`` and ``no_left_kernel``,
and ``green_gotzmann`` with a functional that pairs to zero read their
rank from a dimension, and build no map.  The oracle is the route they
once took (``oracles.pieces_*``): the whole map on exact pieces, ranked,
and ``functional_kernel_map`` building every piece, the socle piece
first.  Every machine value must agree, apart from the mode strings,
which say what proved the rank: the step's mode on a ring proven smooth
for the step, ``jacobian.GENERATED`` on any other.
"""

import importlib.util
import random
import re
from pathlib import Path

import pytest

from chowcheck import jacobian, modrank
from chowcheck.poly import PolyRing, enumerate_monomials, parse_poly
from chowcheck.runner import ScenarioContext, run_check, run_scenario
from chowcheck.scenario import CheckSpec, parse_scenario
from oracles import (pieces_functional_kernel_map, pieces_left_kernel_via_duality,
                     pieces_map_surjectivity)
from test_scenario_fuzz import _RINGS

GFP = modrank.DEFAULT_PRIME
P3 = "x0 x1 x2 x3"
CONE = "x0*x1^4 + x1*x2^4 + x2*x0^4 + x3^4*x0"
SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "chowcheck" / "scenarios"


def _dense(degree):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "dense.py"
    spec = importlib.util.spec_from_file_location("perfbench_dense", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = next(t for _, d, t, _ in module.generate(1) if d == degree)
    return parse_scenario(text).ring["poly"]


def _bundled(name):
    text = (SCENARIOS / f"{name}.scn").read_text(encoding="utf-8")
    return parse_scenario(text).ring["poly"]


# (id, variables, form): the bundled rings, the seed-1 dense quartic and
# quintic, a singular quintic cone, a nodal plane cubic and quartic
# (singular, each with a one-dimensional socle piece) and the fuzzer's
# small rings, smooth and singular
RINGS = ([("quartic-family", P3, lambda: _bundled("quartic_family")),
          ("shioda", P3, lambda: _bundled("shioda")),
          ("dense-quartic-seed-1", P3, lambda: _dense(4)),
          ("dense-quintic-seed-1", P3, lambda: _dense(5)),
          ("cone", P3, lambda: CONE),
          ("nodal-cubic", "x0 x1 x2", lambda: "x0^3 + x1^3 + x0*x1*x2"),
          ("nodal-quartic", "x0 x1 x2", lambda: "x0^4 + x1^4 + x0*x1*x2^2")]
         + [(f"fuzz-{i}", names, lambda form=form: form)
            for i, (names, form, _, _) in enumerate(_RINGS)])


def _form(names, degree, label):
    """A derandomized form of ``degree``: three monomials, small
    coefficients."""
    rng = random.Random(f"{label}/{degree}")
    names = names.split()
    monos = rng.sample(enumerate_monomials(len(names), degree),
                       min(3, len(enumerate_monomials(len(names), degree))))
    return " + ".join(
        f"{rng.choice((-1, 1)) * rng.randint(1, 5)}*"
        + "*".join(f"{x}^{e}" for x, e in zip(names, m) if e)
        for m in monos)


def _queries(names, hring, label):
    """(kind, attrs) of every query: for each degree k from 1 to
    sigma + 1, ``green_gotzmann`` on a form of degree k and ``ring_map``
    from degrees k and 1, exact and mod the default prime; for k up to
    sigma, ``duality`` (exact) and ``no_left_kernel`` (mod the default
    prime) at degree k.  At k = sigma / 2 ``green_gotzmann`` also takes
    the last variable's k-th power into degree 1."""
    sigma, b = hring.socle_degree, hring.degree - 1
    out = []
    for k in range(1, sigma + 2):
        out.append(("green_gotzmann", {"g": _form(names, k, label), "b": b,
                                       "expect_rank": 0}))
        if 2 * k == sigma:
            out.append(("green_gotzmann", {"g": f"{names.split()[-1]}^{k}",
                                           "b": 1, "expect_rank": 0}))
        out.append(("ring_map", {"a": k, "b": 1}))
        out.append(("ring_map", {"a": k, "b": 1, "prime": GFP}))
        if k <= sigma:
            out.append(("duality", {"a": k, "b": (sigma - k) // 2}))
            out.append(("no_left_kernel", {"a": k, "b": sigma - k,
                                           "prime": GFP}))
    return out


_MODE = re.compile(r" \((exact|trivial|modular\(p=\d+\)|"
                   r"exact\(generated in degree 1\))\)$")


def _machine(step):
    """Status, witness, details without their mode, and every value that
    is not a mode."""
    return (step.status, step.witness, [_MODE.sub("", d) for d in step.details],
            {k: v for k, v in step.values.items() if not k.endswith("mode")})


def _declared(target, closed, prime):
    """The mode a step declares for a rank of ``target``."""
    if not target:
        return "trivial"
    if closed:
        return "exact" if prime is None else f"modular(p={prime})"
    return jacobian.GENERATED


def _check_modes(kind, attrs, step, oracle):
    values, prime = step.values, attrs.get("prime")
    if not values:
        return
    closed = step.route.startswith("closed form")
    if kind == "ring_map":
        assert values["mode"] == _declared(values["target_dim"], closed,
                                           prime)
    elif kind in ("duality", "no_left_kernel"):
        assert values["surjectivity_mode"] == _declared(
            values["surjectivity_rank"], closed, prime)
        if closed:
            assert values["pairing_mode"] == _declared(
                values["pairing_rank"], True, prime)
        else:
            assert values["pairing_mode"] == oracle.values["pairing_mode"]


@pytest.mark.parametrize("label, names, form", RINGS,
                         ids=[label for label, _, _ in RINGS])
def test_every_query_matches_the_pieces_oracle(label, names, form,
                                               monkeypatch):
    text = (f"[scenario]\nname = {label}\n[ring]\nvariables = {names}\n"
            f"poly = {form()}\n[checks]\ncheck smooth cite=c\n")
    ctx = ScenarioContext(parse_scenario(text))
    queries = _queries(names, ctx.hypersurface(), label)

    def run(kind, attrs):
        return run_check(ctx, CheckSpec(kind, dict(attrs, cite="c"),
                                        line=None))

    steps = [run(kind, attrs) for kind, attrs in queries]
    # the old routes, on the same ring and so on the same exact pieces
    monkeypatch.setattr(jacobian, "map_surjectivity", pieces_map_surjectivity)
    monkeypatch.setattr(jacobian, "left_kernel_via_duality",
                        pieces_left_kernel_via_duality)
    monkeypatch.setattr(jacobian, "functional_kernel_map",
                        pieces_functional_kernel_map)
    for (kind, attrs), step in zip(queries, steps):
        oracle = run(kind, attrs)
        assert _machine(step) == _machine(oracle), (kind, attrs)
        _check_modes(kind, attrs, step, oracle)


# ------------------------------------------------ what the answer reads

SMOOTH = [("quartic-family", lambda: _bundled("quartic_family")),
          ("shioda", lambda: _bundled("shioda")),
          ("fermat-quartic", lambda: "x0^4 + x1^4 + x2^4 + x3^4"),
          ("dense-quartic-seed-1", lambda: _dense(4)),
          ("cubic-surface",
           lambda: "x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2 - 2*x1*x2*x3 + x0^2*x3")]


def _smooth_ring(form):
    return jacobian.HypersurfaceRing(
        parse_poly(form, PolyRing.rationals(P3.split())))


@pytest.mark.parametrize("label, form", SMOOTH,
                         ids=[label for label, _ in SMOOTH])
def test_no_socle_piece_is_built_on_a_smooth_ring_unless_2a_is_sigma(
        label, form, monkeypatch):
    # a count: no green_gotzmann step builds a piece or a multiplication
    # map on a ring proven smooth, 2a = sigma included, for every b up to
    # sigma - a + 1
    built = []
    piece = jacobian.HypersurfaceRing.piece

    def recording(self, k):
        built.append(k)
        return piece(self, k)

    monkeypatch.setattr(jacobian.HypersurfaceRing, "piece", recording)
    monkeypatch.setattr(jacobian, "multiplication_map",
                        lambda *args: built.append(args))
    sigma = _smooth_ring(form()).socle_degree
    assert _smooth_ring(form()).smoothness_certificate().certified
    routes = []
    for a in range(1, sigma + 2):
        hring = _smooth_ring(form())
        g = parse_poly(_form(P3, a, label), hring.ring)
        for b in range(max(sigma - a, 0) + 2):
            routes.append(jacobian.functional_kernel_map(hring, g, b)[0].route)
    assert built == []
    # every b up to sigma / 2 ranks M at 2a = sigma
    assert sum(route.startswith("socle functional mod p=")
               for route in routes) == sigma // 2 + 1


def test_the_quartic_family_map_stops_at_its_rank(monkeypatch):
    # M is 680 x 4: (34 vectors spanning W) x (20 monomials of S_3) rows
    # against the 4 monomials of S_1; its rank mod p reaches 4 long before
    # the last row, and no later row is built
    read = []
    reaches = modrank.rank_mod_reaches

    def counting(rows, bound, p):
        def counted():
            for row in rows:
                read.append(row)
                yield row
        return reaches(counted(), bound, p)

    monkeypatch.setattr(modrank, "rank_mod_reaches", counting)
    text = (SCENARIOS / "quartic_family.scn").read_text(encoding="utf-8")
    steps = run_scenario(parse_scenario(text)).steps
    step = next(s for s in steps if s.kind == "green_gotzmann")
    assert step.passed and step.values["rank"] == 4
    assert step.values["target_dim"] == 4
    assert 4 <= len(read) < 680
    assert step.route == f"socle functional mod p={GFP}, M 680x4, rank reached 4"


# ------------------------------------------------ the socle functional
#
# At 2a = sigma a ring proven smooth answers from the socle functional
# mod p, and from the functional over Q when the one mod p pairs g to
# zero or the rank mod p falls short.  No form at hand reaches either
# fallback, so both are forced by patching, and both must give the
# pieces oracle's answer.

FALLBACK_RINGS = [(label, form) for label, form in SMOOTH
                  if label in ("quartic-family", "fermat-quartic",
                               "cubic-surface")]


def _answers(label, form, degrees):
    """For three forms g of degree sigma / 2 and every b of
    ``degrees(sigma - a)``: (ours, the oracle's, our route), each answer
    as (rank, full, dim W, class flag)."""
    hring, oracle_ring = _smooth_ring(form()), _smooth_ring(form())
    a = hring.socle_degree // 2
    out = []
    for i in range(3):
        g = parse_poly(_form(P3, a, f"{label}/{i}"), hring.ring)
        for b in degrees(hring.socle_degree - a):
            ours = jacobian.functional_kernel_map(hring, g, b)
            oracle = pieces_functional_kernel_map(oracle_ring, g, b)
            out.append(((ours[0].rank, ours[0].full, *ours[1:]),
                        (oracle[0].rank, oracle[0].full, *oracle[1:]),
                        ours[0].route))
    return out


@pytest.mark.parametrize("label, form", FALLBACK_RINGS,
                         ids=[label for label, _ in FALLBACK_RINGS])
def test_a_functional_that_vanishes_mod_p_falls_back_to_q(label, form,
                                                        monkeypatch):
    # lambda mod p times p: every f_p is 0, and f over Q is not
    functional = jacobian._socle_functional
    monkeypatch.setattr(jacobian, "_socle_functional", lambda hring, prime: (
        functional(hring, None) if prime is None else
        {m: GFP * x for m, x in functional(hring, prime).items()}))
    answers = _answers(label, form, lambda top: range(1, top + 1))
    for ours, oracle, route in answers:
        assert ours == oracle
        if ours[3]:
            assert route.startswith(
                f"socle functional over Q (pairs to zero mod p={GFP}), M ")
    assert any(ours[3] for ours, _, _ in answers)


@pytest.mark.parametrize("label, form", FALLBACK_RINGS,
                         ids=[label for label, _ in FALLBACK_RINGS])
def test_a_rank_mod_p_one_short_falls_back_to_q(label, form, monkeypatch):
    # the rank mod p is asked for one more than the most it can be
    reaches = modrank.rank_mod_reaches
    monkeypatch.setattr(modrank, "rank_mod_reaches",
                        lambda rows, bound, p: reaches(rows, bound + 1, p))
    answers = _answers(label, form, lambda top: range(top + 1))
    for ours, oracle, route in answers:
        assert ours == oracle
        if ours[3]:
            assert route.startswith(
                f"socle functional over Q (fell short mod p={GFP}), M ")
            assert route.endswith(", exact rank")
    assert any(ours[3] for ours, _, _ in answers)


@pytest.mark.parametrize("label, g", [
    ("quartic-family", "1000003*x0^2*x1^2"),
    ("dense-quartic-seed-1", "1000003/7*x0^2*x1^2 + 2000006*x2^4"),
    ("dense-quintic-seed-1", "1000003*x0^3*x1^3")])
def test_a_form_scaled_by_the_prime_needs_no_fallback(label, g, monkeypatch):
    # g is scaled to a primitive integer form before it pairs, so a
    # coefficient that p divides does not make f_p vanish
    asked = []
    functional = jacobian._socle_functional

    def recording(hring, prime):
        asked.append(prime)
        return functional(hring, prime)

    monkeypatch.setattr(jacobian, "_socle_functional", recording)
    hring = _smooth_ring(next(form for name, _, form in RINGS
                              if name == label)())
    a = hring.socle_degree // 2
    result, dim, nonzero = jacobian.functional_kernel_map(
        hring, parse_poly(g, hring.ring), 3)
    assert asked == [GFP]
    assert nonzero and result.ok and dim == hring.quotient_dim(a) - 1
    assert result.route.startswith(f"socle functional mod p={GFP}, M ")
    assert result.proof.certified and result.proof.prime == GFP
    assert result.proof.functional
