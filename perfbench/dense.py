"""Seeded dense generic forms for the ``dense-generic`` workload.

Each scenario declares a form in x0..x3 with every monomial of its
degree present and a small nonzero integer coefficient on each, and runs
``smooth mode=modular`` and ``hilbert``.  The ``hilbert`` expectation is
not taken from the program: it is the closed form for a smooth surface
of degree d in P^3, the coefficients of ((1 - t^(d-1)) / (1 - t))^4.
"""

from __future__ import annotations

import hashlib
import random

NVARS = 4
DEGREES = (4, 5)
MAX_COEFF = 9


def monomials(nvars, degree):
    """Exponent tuples of the given total degree, lexicographically descending."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in monomials(nvars - 1, degree - first))
    return out


def closed_form_hilbert(degree, nvars=NVARS):
    """Coefficients of ((1 - t^(d-1)) / (1 - t))^n: the Hilbert function of
    the Jacobian quotient of a smooth degree-d form in n variables."""
    series = [1]
    for _ in range(nvars):
        nxt = [0] * (len(series) + degree - 2)
        for i, c in enumerate(series):
            for j in range(degree - 1):
                nxt[i + j] += c
        series = nxt
    return series


def _monomial_text(exps):
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors)


def dense_form(rng, degree, nvars=NVARS):
    """Polynomial text with every degree-d monomial and a coefficient drawn
    from +-1..+-MAX_COEFF.  Negative terms are written with a binary minus,
    which the scenario parser accepts."""
    parts = []
    for exps in monomials(nvars, degree):
        c = rng.randint(1, MAX_COEFF) * rng.choice((1, -1))
        term = f"{abs(c)}*{_monomial_text(exps)}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def scenario_text(seed, degree):
    rng = random.Random(f"dense-generic/{seed}/{degree}")
    variables = " ".join(f"x{i}" for i in range(NVARS))
    table = " ".join(str(c) for c in closed_form_hilbert(degree))
    return (
        "[scenario]\n"
        f"name = dense-generic-d{degree}-seed{seed}\n"
        "\n[ring]\n"
        f"variables = {variables}\n"
        f"poly = {dense_form(rng, degree)}\n"
        "\n[checks]\n"
        'check smooth mode=modular cite="generic dense form is smooth"\n'
        f'check hilbert expect="{table}" '
        'cite="closed form ((1 - t^(d-1)) / (1 - t))^4"\n'
    )


def generate(seed):
    """Return [(label, degree, text, sha256), ...], one per degree in DEGREES."""
    out = []
    for degree in DEGREES:
        text = scenario_text(seed, degree)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        out.append((f"d{degree}", degree, text, digest))
    return out
