"""The Python-float Cholesky solves of ``numerics.solve_spd`` at orders 1 to
``numerics._SMALL_ORDER``, the unrolled order 3 and the row loop of the
others, against a reference loop, bit for bit.

``reference_solve`` is that loop: row ``j`` of the lower factor completes
the factor of the leading ``j + 1`` block and advances every forward
substitution by one step, and a back substitution finishes each solve.
Solutions are compared by ``float.hex``; a refused matrix by the error's
type, message and pivot.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyireg import numerics
from renyireg.exceptions import DecompositionError

SMALL = numerics._SMALL_ORDER
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_solve(rows: list, cols: list) -> list:
    """Solve ``a @ x = c`` for each column ``c`` in ``cols`` (lists,
    overwritten with the solutions), where ``rows`` are the rows of ``a``."""
    n = len(rows)
    bad = n  # first index whose leading block holds a non-finite entry
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        bad = min(
            max(i, j)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if not math.isfinite(v)
        )
    low = []
    for j in range(n):
        if j == bad:
            raise numerics._not_positive_definite(j)
        row = rows[j]
        lj = []
        for k in range(j):
            lk = low[k]
            t = row[k]
            for i in range(k):
                t -= lj[i] * lk[i]
            lj.append(t / lk[k])
        d = row[j]
        for u in lj:
            d -= u * u
        if not d > n * numerics._EPS * row[j]:
            raise numerics._not_positive_definite(j)
        r = math.sqrt(d)
        lj.append(r)
        low.append(lj)
        for x in cols:
            t = x[j]
            for k in range(j):
                t -= lj[k] * x[k]
            x[j] = t / r
    for x in cols:
        for j in range(n - 1, -1, -1):
            lj = low[j]
            xj = x[j] = x[j] / lj[j]
            for k in range(j):
                x[k] -= lj[k] * xj
    return cols


def outcome(call):
    """``call``'s solution as hex strings, or the type, message and pivot of
    the ``DecompositionError`` it raised."""
    try:
        x = call()
    except DecompositionError as err:
        return type(err), str(err), err.pivot
    return [v.hex() for v in np.asarray(x, dtype=float).ravel().tolist()]


def compare(a: np.ndarray, b: np.ndarray):
    """``solve_spd(a, b)`` and the reference on the same system, ``b`` a
    vector or a matrix of columns: their common outcome."""
    cols = [b.tolist()] if b.ndim == 1 else b.T.tolist()
    mine = outcome(lambda: numerics.solve_spd(a, b))
    ref = outcome(lambda: np.array(reference_solve(a.tolist(), cols)).T)
    assert mine == ref
    return mine


def test_order_three_is_unrolled_and_every_other_order_loops(monkeypatch):
    """Order 3 goes through ``_solve3``; orders 1, 2 and 4, and the pivot of
    a matrix that LAPACK refuses above them, through ``_cholesky_solve``."""
    calls = []
    for name in ("_solve3", "_cholesky_solve"):
        def counted(rows, cols, name=name, solve=getattr(numerics, name)):
            calls.append((name, len(rows)))
            return solve(rows, cols)

        monkeypatch.setattr(numerics, name, counted)
    for k in range(1, SMALL + 1):
        assert numerics.solve_spd(2.0 * np.eye(k), np.ones(k)) == pytest.approx(0.5)
    a = np.eye(SMALL + 2)
    a[-1, -1] = -1.0
    with pytest.raises(DecompositionError) as err:
        numerics.solve_spd(a, np.ones(SMALL + 2))
    assert err.value.pivot == SMALL + 1
    loop = [("_cholesky_solve", k) for k in (1, 2, 4, SMALL + 2)]
    assert calls == loop[:2] + [("_solve3", 3)] + loop[2:]


def test_order_zero_gives_empty_solutions():
    for shape in ((0,), (0, 2)):
        x = numerics.solve_spd(np.zeros((0, 0)), np.zeros(shape))
        assert x.shape == shape and x.dtype == np.float64


ORDERS = st.integers(1, SMALL)
UNIT = st.floats(-1.0, 1.0)


@st.composite
def spd_systems(draw):
    """A random SPD matrix ``m m' + shift I`` of order 1 to ``SMALL`` times
    ``10^e``, and a right-hand side of one or two columns, or a vector, at
    its own scale ``10^f``, for ``e`` and ``f`` in [-150, 150]."""
    k = draw(st.integers(1, SMALL))
    m = np.array(draw(st.lists(UNIT, min_size=k * k, max_size=k * k))).reshape(k, k)
    shift = draw(st.floats(1e-6, 2.0))
    shape = draw(st.sampled_from([(k,), (k, 1), (k, 2)]))
    size = math.prod(shape)
    b = np.array(draw(st.lists(UNIT, min_size=size, max_size=size)))
    e, f = draw(st.floats(-150.0, 150.0)), draw(st.floats(-150.0, 150.0))
    return 10.0**e * (m @ m.T + shift * np.eye(k)), 10.0**f * b.reshape(shape)


def extreme_scales(k):
    """Systems at the corners of the scales, where products under- and
    overflow."""
    gen = np.random.default_rng(k)
    m = gen.normal(size=(k, k))
    return [
        (10.0**e * (m @ m.T + np.eye(k)), 10.0**f * gen.normal(size=(k, 2)))
        for e, f in itertools.product((-150.0, 150.0), repeat=2)
    ]


@PROPERTY
@given(system=spd_systems())
def test_random_spd_systems_match_reference(system):
    compare(*system)


@pytest.mark.parametrize("k", range(1, SMALL + 1))
def test_extreme_scales_match_reference(k):
    for a, b in extreme_scales(k):
        assert not isinstance(compare(a, b), tuple)
        compare(a, b[:, 0])


def near_singular(gen, k, j, c):
    """An order-``k`` matrix ``L L'`` whose pivot ``j`` is ``c`` times the
    pivot rule's bound ``k eps a_jj`` (the bound is ``a_00 > 0`` at j = 0,
    so there ``a_00`` is ``c`` times the smallest normal double)."""
    low = np.tril(gen.normal(size=(k, k)))
    np.fill_diagonal(low, np.abs(np.diag(low)) + 0.5)
    if j == 0:
        low[0, 0] = math.sqrt(c * sys.float_info.min)
    else:
        low[j, j] = math.sqrt(c * k * numerics._EPS * float(low[j, :j] @ low[j, :j]))
    a = low @ low.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("k", range(1, SMALL + 1))
def test_near_singular_pivots_on_both_sides_of_the_rule(k):
    gen = np.random.default_rng(k)
    for j in range(k):
        pivots = []
        for c in np.linspace(0.0, 4.0, 41):
            for _ in range(4):
                mine = compare(near_singular(gen, k, j, float(c)), gen.normal(size=(k, 2)))
                # a pivot that passes with little to spare may leave a later
                # one to fail
                pivots.append(mine[2] if isinstance(mine, tuple) else k)
        # the sweep crosses the rule at pivot j
        assert min(pivots) == j and max(pivots) > j, (k, j, sorted(set(pivots)))


@PROPERTY
@given(
    k=ORDERS,
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(0.0, 8.0),
    j=st.integers(0, SMALL - 1),
    columns=st.sampled_from([0, 1, 2]),
)
def test_near_singular_systems_match_reference(k, seed, c, j, columns):
    gen = np.random.default_rng(seed)
    b = gen.normal(size=(k,) if columns == 0 else (k, columns))
    compare(near_singular(gen, k, j % k, c), b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "k, where",
    [(k, where) for k in range(1, SMALL + 1) for where in itertools.product(range(k), repeat=2)],
)
def test_non_finite_entry_matches_reference(k, where, bad):
    gen = np.random.default_rng(k)
    m = gen.normal(size=(k, k))
    a = m @ m.T + np.eye(k)
    a[where] = bad
    assert compare(a, gen.normal(size=k))[2] == max(where)
    assert compare(a, gen.normal(size=(k, 2)))[2] == max(where)
    # an earlier pivot that fails the rule is reported first
    a[0, 0] = -1.0
    assert compare(a, gen.normal(size=k))[2] == 0


@PROPERTY
@given(
    k=ORDERS,
    seed=st.integers(0, 2**32 - 1),
    entries=st.lists(
        st.tuples(st.integers(0, SMALL - 1), st.integers(0, SMALL - 1), st.sampled_from(
            [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0]
        )),
        min_size=1,
        max_size=3,
    ),
)
def test_extreme_entries_match_reference(k, seed, entries):
    # non-finite, huge, subnormal and zero entries in either triangle,
    # where the factor may overflow or a later pivot meets them
    gen = np.random.default_rng(seed)
    m = gen.normal(size=(k, k))
    a = m @ m.T + np.eye(k)
    for i, j, v in entries:
        a[i % k, j % k] = v
    compare(a, gen.normal(size=k))
    compare(a, gen.normal(size=(k, 2)))
