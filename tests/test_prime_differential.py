"""Every modular route holds to the exact verdict.

A rank mod p never exceeds the rank over Q, so a step at any usable
prime must reach the verdict of the same step done exactly, whichever
route each takes.  A derandomized hypothesis run draws forms in two to
four variables, of degree two to five, among them:

- forms F + p*G, where F omits the last variable and G is its pure
  power: smooth over Q whenever F is, and a cone mod p;
- forms with a coefficient that the drawn prime p divides.

``smooth``, ``ring_map``, ``duality`` and ``no_left_kernel`` run at
every prime of ``PRIMES`` and exactly (``mode=exact``, or no ``prime=``).
Each run must give the same status, witness, details and machine
values, apart from the modes, which say what proved a rank: a value
whose key ends in ``mode``, and the mode that closes a detail.  The
exact run's modes name no prime.

``hilbert``, ``ring_dim`` and ``green_gotzmann`` (g of degree sigma/2)
take no prime: they read the smoothness certificate at the default prime.
Each must give the same answer with that certificate refused, which
sends every step to exact pieces, as
``test_scenario_cli.py::test_shioda_machine_report_is_the_same_on_exact_pieces``
refuses ``_smooth_for``.
"""

import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from chowcheck import exactla, jacobian
from chowcheck.poly import enumerate_monomials
from chowcheck.runner import ScenarioContext, run_check
from chowcheck.scenario import CheckSpec, parse_scenario

# small primes, where bad reduction is common, the default prime, and the
# largest prime below MAX_PRIME
PRIMES = (2, 3, 5, 7, 1000003, 3037000493)

# (variables, degree) pairs drawn: socle degree at most 6, and one
# quaternary quartic (socle degree 8) to reach the dense kernel
SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5),
          (4, 2), (4, 3), (4, 4))

_MODE = re.compile(r" \((exact|trivial|modular\(p=\d+\)|"
                   r"exact\((generated in degree 1|after modular p=\d+)\))\)$")


def _term(coeff, names, mono):
    return f"{coeff}*" + "*".join(f"{x}^{e}" for x, e in zip(names, mono) if e)


@st.composite
def _rings(draw):
    """(variables, form, sigma): a dense or sparse form with small
    coefficients, as drawn, singular at the last coordinate point, a cone
    mod a drawn prime p, or with a coefficient that p divides."""
    nvars, degree = draw(st.sampled_from(SHAPES))
    names = [f"x{i}" for i in range(nvars)]
    p = draw(st.sampled_from(PRIMES))
    shape = draw(st.sampled_from(("plain", "singular", "cone mod p",
                                  "divisible by p")))
    monos = enumerate_monomials(nvars, degree)
    if shape == "singular":
        # F and every partial vanish at (0, ..., 0, 1)
        monos = [m for m in monos if m[-1] < degree - 1]
    elif shape == "cone mod p":
        # F + p*G: F in the other variables, G the last one's pure power
        monos = [m for m in monos if not m[-1]]
    values = st.integers(-3, 3) if draw(st.booleans()) else st.sampled_from(
        (0, 0, 0, 0, 0, 1, -1, 2, -3))
    coeffs = draw(st.lists(values, min_size=len(monos), max_size=len(monos)))
    terms = {m: c for m, c in zip(monos, coeffs) if c}
    if shape == "cone mod p":
        for j in range(nvars - 1):
            power = (0,) * j + (degree,) + (0,) * (nvars - 1 - j)
            terms[power] = terms.get(power, 0) + 1
        terms[(0,) * (nvars - 1) + (degree,)] = p
    if shape == "divisible by p" and terms:
        terms[draw(st.sampled_from(sorted(terms)))] *= p
    terms = {m: c for m, c in terms.items() if c} or {monos[0]: 1}
    form = " + ".join(_term(c, names, m) for m, c in terms.items())
    return " ".join(names), form, nvars * (degree - 2)


def _context(names, form):
    return ScenarioContext(parse_scenario(
        f"[scenario]\nname = differential\n[ring]\nvariables = {names}\n"
        f"poly = {form}\n[checks]\ncheck smooth cite=c\n"))


def _run(ctx, kind, **attrs):
    return run_check(ctx, CheckSpec(kind, dict(attrs, cite="c"), line=None))


def _answer(step):
    """Status, witness, details and values, without modes."""
    return (step.status, step.witness, [_MODE.sub("", d) for d in step.details],
            {k: v for k, v in step.values.items() if not k.endswith("mode")})


def _names_a_prime(step):
    return "p=" in " ".join([*step.details, *(
        str(v) for k, v in step.values.items() if k.endswith("mode"))])


def _refused(self, prime=None):
    """A smoothness certificate that never closes."""
    return exactla.RankCertificate(prime, 0, 1)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(ring=_rings(), data=st.data())
def test_every_modular_step_matches_the_exact_step(ring, data):
    names, form, sigma = ring
    ctx = _context(names, form)
    a = data.draw(st.integers(0, sigma), label="a")
    b = data.draw(st.integers(0, sigma - a), label="b")
    queries = [("smooth", {}), ("ring_map", {"a": a, "b": b + 1}),
               ("duality", {"a": a, "b": b}),
               ("no_left_kernel", {"a": a, "b": sigma - a})]
    for kind, attrs in queries:
        exact = _run(ctx, kind, **attrs, **(
            {"mode": "exact"} if kind == "smooth" else {}))
        assert not _names_a_prime(exact), (kind, exact.details)
        for p in PRIMES:
            step = _run(ctx, kind, prime=p, **attrs)
            assert _answer(step) == _answer(exact), (form, kind, attrs, p)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(ring=_rings(), data=st.data())
def test_every_step_without_a_prime_matches_exact_pieces(ring, data):
    names, form, sigma = ring
    ctx = _context(names, form)
    queries = [("hilbert", {"expect": "1"}),
               ("ring_dim", {"degree": data.draw(st.integers(0, sigma + 1),
                                                 label="degree")})]
    if sigma % 2 == 0 and sigma:
        nvars = len(names.split())
        monos = enumerate_monomials(nvars, sigma // 2)
        g = " + ".join(_term(c, names.split(), m) for m, c in zip(
            monos, data.draw(st.lists(st.integers(-2, 2), min_size=len(monos),
                                      max_size=len(monos)), label="g")) if c)
        if g:
            queries.append(("green_gotzmann", {"g": g, "b": 1,
                                               "expect_rank": 0}))
    answers = [_answer(_run(ctx, kind, **attrs)) for kind, attrs in queries]
    with mock.patch.object(jacobian.HypersurfaceRing,
                           "smoothness_certificate", _refused):
        refused = [_answer(_run(ctx, kind, **attrs))
                   for kind, attrs in queries]
    assert answers == refused, (form, queries)
