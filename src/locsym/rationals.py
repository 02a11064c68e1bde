"""Exact rational scalars: canonical form, parsing, formatting, sampling.

Exact scalars have one canonical form, produced by `exact`: a Python int
when the value is integral and a fractions.Fraction otherwise.  Matrices,
vectors, polynomials and linalg's eliminations hold their entries in
this form, so integral data runs on machine integers and only true
fractions pay for Fraction arithmetic.  Divide exact scalars with
`quotient`: int / int is a float, and `quotient` keeps an exact int
quotient an int.

Serialized rationals are "p" or "p/q" strings so that round trips are
lossless.  A random rational draws numerator and denominator uniformly
from [-10**6, 10**6] with zero excluded (denominator sign is folded into
the numerator by Fraction itself); no engine path samples one.
"""
from __future__ import annotations

import random
from fractions import Fraction

SAMPLE_BOUND = 10**6


def exact(value) -> int | Fraction:
    """Canonical exact scalar: int when integral, else Fraction."""
    kind = type(value)
    if kind is int:
        return value
    if kind is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def quotient(a, b) -> int | Fraction:
    """Exact a / b in canonical form: the one way to divide exact scalars.

    Ints that divide exactly give the int a // b and other int pairs give
    Fraction(a, b), so integral data never pays for a Fraction.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return exact(Fraction(a) / b)


def parse_rational(text: str | int) -> Fraction:
    """Parse "p" or "p/q" (both signs allowed) into a Fraction."""
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def random_nonzero_int(rng: random.Random, bound: int = SAMPLE_BOUND) -> int:
    n = 0
    while n == 0:
        n = rng.randint(-bound, bound)
    return n


def random_rational(rng: random.Random, bound: int = SAMPLE_BOUND) -> Fraction:
    """Uniform numerator/denominator sampling; never returns zero."""
    return Fraction(random_nonzero_int(rng, bound), random_nonzero_int(rng, bound))
