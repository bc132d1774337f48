"""No scenario ends in a traceback.

Three generators draw small scenario files and run each through
``cli.main`` in-process:

- ``[pencil]`` overrides from short polynomial texts, in the variables of
  the overridden form's ring and in others;
- a ``[curve]`` whose ``at=``, ``line=`` and ``sample_t=`` values name its
  plane coordinates, its parameter or names it does not have;
- one check line of a bundled scenario, with an attribute value taken
  from any check line of either bundled scenario.

Every run must exit 0, 1 or 2 without an exception, and an exit 2 must
print exactly one ``error:`` line, which names the check and its line,
or the line and column of a parse error.

A fourth generator drives the ``ring dim/map/duality/smooth`` queries on
small smooth and singular rings, with a prime that may be unusable and
with or without ``--exact``.  Degrees stay within one of the socle
degree, where time on a singular ring grows steeply with the degree,
except for ``ring dim`` on a monomial Jacobian ideal: its dimension is a
count in any degree, so it also draws degrees from 0 to 10^6, and while
it answers no monomials of degree above ``_LISTED_DEGREE`` may be
listed.  Every query must exit 0, 1 or 2 without an exception, and an
exit 2 must print one ``error:`` line.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chowcheck
from chowcheck import cli, jacobian
from chowcheck.scenario import parse_scenario

_ONE_ERROR = re.compile(
    r"error: (check '\w+' \(line \d+\)|line \d+, column \d+): [^\n]+\n")

_SCENARIOS = Path(chowcheck.__file__).parent / "scenarios"
_BUNDLED = {name: (_SCENARIOS / f"{name}.scn").read_text(encoding="utf-8")
            for name in ("shioda", "quartic_family")}
_CHECKS = {name: parse_scenario(text).checks
           for name, text in _BUNDLED.items()}
_VALUES = sorted({value for checks in _CHECKS.values() for spec in checks
                  for value in spec.attrs.values()})

_HEAD = "[scenario]\nname = fuzz\n"
_AMBIENT = ("x0", "x1", "x2", "x3", "t")
_BLOWUP = ("x", "y", "z", "lam", "t")
_PENCIL_KEYS = {**{f"line{i}": _AMBIENT for i in range(4)},
                **{key: _BLOWUP for key in ("strict_transform",
                                            "declared_quadratic",
                                            "closed_form_num",
                                            "closed_form_den")}}


def _polynomial(names):
    """Short polynomial texts: up to three terms of degree at most 3."""
    monomial = st.lists(st.sampled_from(names), max_size=3).map(
        lambda factors: "*".join(factors) or "1")
    term = st.tuples(st.sampled_from(("", "-", "2*", "1/3*")), monomial).map(
        "".join)
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


@st.composite
def _pencil_scenarios(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_PENCIL_KEYS)), min_size=1,
                         max_size=2, unique=True))
    other = _AMBIENT + _BLOWUP + ("s",)
    linear = st.lists(st.sampled_from(_AMBIENT), min_size=1, max_size=3).map(
        " - ".join)
    lines = [f"{key} = " + draw(st.one_of(
        _polynomial(_PENCIL_KEYS[key]), _polynomial(other),
        *[linear] * key.startswith("line")))
             for key in keys]
    kind = draw(st.sampled_from((
        "pencil_factorization", "pencil_membership", "pencil_tangent",
        "pencil_concurrency", "pencil_hyperelliptic",
        "pencil_degenerations")))
    attrs = ""
    if kind in ("pencil_membership", "pencil_tangent"):
        attrs = f" point={draw(st.integers(0, 4))}"
    elif kind == "pencil_degenerations" and draw(st.booleans()):
        attrs = ' expect_zero="-3/2 3"'
    return (_HEAD + "[pencil]\n" + "\n".join(lines) + "\n[checks]\n"
            f"check {kind}{attrs} cite=c\n")


@st.composite
def _curve_scenarios(draw):
    plane = ("x0", "x1", "x2")
    degree = draw(st.integers(1, 4))
    forms = st.lists(st.sampled_from(plane), min_size=degree,
                     max_size=degree).map("*".join)
    terms = draw(st.lists(st.tuples(st.sampled_from(("", "-", "2*", "t*")),
                                    forms).map("".join),
                          min_size=1, max_size=3))
    poly = " + ".join(terms)
    if draw(st.booleans()):  # perhaps not homogeneous
        poly += " + " + draw(_polynomial(plane + ("t",)))
    names = st.sampled_from(plane + ("t", "x3", "s"))
    value = st.sampled_from(("0", "1", "-2", "1/2"))
    point = st.sampled_from(("P", "Q", "R", "S"))
    check = draw(st.sampled_from(("intersection", "multiplicity",
                                  "equivalence_order")))
    if check == "intersection":
        attrs = f'line={draw(names)} expect="P:1"'
        if draw(st.booleans()):
            attrs += f" sample_t={draw(value)}"
    elif check == "multiplicity":
        attrs = f"point={draw(point)} expect=1"
        if draw(st.booleans()):
            attrs += f' at="{draw(names)}={draw(value)}"'
    else:
        lines = " ".join(draw(st.lists(names, min_size=1, max_size=3)))
        attrs = f'lines="{lines}" pair="{draw(point)} {draw(point)}" expect=1'
    return (_HEAD + "[curve Z]\nplane = x0 x1 x2\nvariables = x0 x1 x2 t\n"
            f"poly = {poly}\npoint = P 1 0 0\npoint = Q 0 1 0\n"
            f"point = R 0 0 1\n[checks]\ncheck {check} curve=Z {attrs} "
            "cite=c\n")


@st.composite
def _swapped_checks(draw):
    name = draw(st.sampled_from(sorted(_BUNDLED)))
    spec = draw(st.sampled_from(_CHECKS[name]))
    attrs = dict(spec.attrs)
    if attrs:
        attrs[draw(st.sampled_from(sorted(attrs)))] = draw(
            st.sampled_from(_VALUES))
    return (_BUNDLED[name].partition("[checks]\n")[0]
            + "[checks]\ncheck " + spec.kind
            + "".join(f' {key}="{value}"' for key, value in attrs.items())
            + " cite=c\n")


def _verify(path, text):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert _ONE_ERROR.fullmatch(err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""


@pytest.mark.parametrize("scenarios", [
    _pencil_scenarios(), _curve_scenarios(), _swapped_checks()],
    ids=["pencil-overrides", "curve-attributes", "swapped-bundled-values"])
def test_no_scenario_ends_in_a_traceback(tmp_path_factory, scenarios):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.scn"

    @settings(derandomize=True, max_examples=150, deadline=None,
              database=None)
    @given(scenarios)
    def run(text):
        _verify(path, text)

    run()


# (variables, form, socle degree, monomial Jacobian ideal): smooth and
# singular, monomial or not
_RINGS = [
    ("x0 x1 x2", "x0^3 + x1^3 + x2^3", 3, True),
    ("x0 x1 x2", "x0^3 + x1^3 + x2^3 + 2*x0*x1*x2", 3, False),
    ("x0 x1 x2", "1/2*x0^4 - x1^4 + x2^4 + 3*x0*x1*x2^2", 6, False),
    ("x0 x1", "x0^3 - 7*x1^3 + x0^2*x1", 2, False),
    ("x0 x1 x2", "x0^3 + x1^3", 3, True),
    ("x0 x1 x2", "x0*x1^2 + x2^3", 3, True),
    ("x0 x1 x2", "(x0 + x1 + x2)^3", 3, False),
    ("x0 x1 x2 x3", "x0^3 + x1^3 + x2^3", 4, True),
]

# the highest degree in which a ``ring dim`` query on a monomial ideal may
# list monomials, whatever its degree: above every socle degree in _RINGS
_LISTED_DEGREE = 16


@st.composite
def _ring_queries(draw):
    names, form, sigma, monomial = draw(st.sampled_from(_RINGS))
    query = draw(st.sampled_from(("dim", "map", "duality", "smooth")))
    argv = ["ring", query]
    if query == "dim":
        degrees = st.integers(sigma - 1, sigma + 1)
        if monomial:
            degrees = st.one_of(degrees, st.integers(0, 10**6))
        argv += ["--degree", str(draw(degrees))]
    elif query in ("map", "duality"):
        total = draw(st.integers(sigma - 1, sigma + 1))
        a = draw(st.integers(0, max(total, 0)))
        argv += ["--a", str(a), "--b", str(total - a)]
    argv += ["--prime", str(draw(st.sampled_from((2, 3, 5, 7, 1000003, 4))))]
    if draw(st.booleans()):
        argv.append("--exact")
    text = (_HEAD + f"[ring]\nvariables = {names}\npoly = {form}\n"
            "[checks]\ncheck smooth cite=c\n")
    return text, argv, monomial and query == "dim"


def test_no_ring_query_ends_in_a_traceback(tmp_path_factory, monkeypatch):
    path = tmp_path_factory.mktemp("fuzz") / "ring.scn"
    listing = jacobian.enumerate_monomials
    bound = {"degree": None}  # set while a monomial ideal's dim is asked

    def bounded_listing(nvars, degree):
        assert bound["degree"] is None or degree <= bound["degree"], (
            f"listed degree-{degree} monomials to count a monomial ideal")
        return listing(nvars, degree)

    monkeypatch.setattr(jacobian, "enumerate_monomials", bounded_listing)

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(_ring_queries())
    def run(query):
        text, argv, counted = query
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        bound["degree"] = _LISTED_DEGREE if counted else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--file", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), (
                err.getvalue())
        else:
            assert err.getvalue() == ""

    run()
