"""The hypothesis strategies of the property tests, each element kind once at
the widest bounds any test needs."""

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

INT = st.integers(-(10**20), 10**20)
# the values of st.fractions(max_denominator=10**6) below 10**6 in size, drawn faster
FRACTION = st.builds(Fraction, st.integers(-(10**12) + 1, 10**12 - 1), st.integers(1, 10**6)).filter(
    lambda q: abs(q) < 10**6)
FLOAT = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
F64 = FLOAT.map(np.float64)
F32 = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32).map(np.float32)
EXACT = st.one_of(INT, FRACTION)
REAL = st.one_of(EXACT, FLOAT, F64, F32)


def vectors(element, max_size=40):
    """Lists of ``element`` whose length is uniform in 1..max_size, so long ones are as likely as short."""
    return st.integers(1, max_size).flatmap(lambda n: st.lists(element, min_size=n, max_size=n))


EXACT_DATA = st.one_of(vectors(INT), vectors(FRACTION), vectors(EXACT))
FLOAT_DATA = vectors(REAL).filter(lambda v: not all(isinstance(x, (int, Fraction)) for x in v))
DATA = st.one_of(*(vectors(e) for e in (INT, FRACTION, FLOAT, F64, F32, REAL)))

EXACT_COEFFS = st.lists(EXACT, max_size=24)
# coefficient lists holding at least one float, at any position
FLOAT_COEFFS = st.tuples(FLOAT, st.lists(st.one_of(EXACT, FLOAT), max_size=23)).flatmap(
    lambda t: st.permutations([t[0], *t[1]]))
