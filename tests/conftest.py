import pytest

from chowcheck import jacobian, pencil
from chowcheck.poly import PolyRing, parse_poly

P3 = ("x0", "x1", "x2", "x3")


@pytest.fixture(scope="session")
def p3_ring():
    return PolyRing.rationals(P3)


@pytest.fixture(scope="session")
def fermat_quartic(p3_ring):
    return jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4", p3_ring))


@pytest.fixture(scope="session")
def mixed_quartic(p3_ring):
    return jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 - x2^4 - x3^4", p3_ring))


# the bundled quintic, an eigenvector of the diagonal automorphism with
# exponents 16 61 1 0 mod 65, which its character tests pass alongside
@pytest.fixture(scope="session")
def quintic_sym(p3_ring):
    return jacobian.HypersurfaceRing(
        parse_poly("x0*x1^4 + x1*x2^4 + x2*x0^4 + x3^5", p3_ring))


@pytest.fixture(scope="session")
def cubic_pencil():
    return pencil.default_scenario()
