import itertools
import json
import random
import re
from fractions import Fraction

import numpy
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from weyljet.maslov import (LagrangianFrame, MaslovError, SubdivisionChart, _bareiss,
                            _scaled, alpha_cocycle, chart_parameters, frame_basis,
                            generating_quadratic, linear_cocycle, signature,
                            submanifold_cocycle, verify_cech_cocycle)
from weyljet.series import SeriesContext, TruncatedSeries, quadratic_series


def graph_basis(S):
    """Rows spanning {xi = S x} in R^{2n}."""
    n = len(S)
    rows = []
    for i in range(n):
        x = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        xi = [Fraction(S[j][i]) for j in range(n)]
        rows.append(x + xi)
    return rows


def rand_sym(rng, n, denom=5):
    S = [[Fraction(rng.randint(-4, 4), rng.randint(1, denom)) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        for j in range(i):
            S[i][j] = S[j][i]
    return S


# --- signature ------------------------------------------------------------------


def test_signature_identity_and_split():
    assert signature([[1, 0], [0, 1]]) == 2
    assert signature([[1, 0], [0, -1]]) == 0
    assert signature([]) == 0


def test_signature_congruence_invariance():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 4)
        D = [[Fraction(0)] * n for _ in range(n)]
        expected = 0
        for i in range(n):
            d = rng.choice([-3, -1, 1, 2, 5])
            D[i][i] = Fraction(d)
            expected += 1 if d > 0 else -1
        # random invertible P: congruence P^t D P
        while True:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            # determinant via expansion on small n
            import numpy as np
            if abs(np.linalg.det([[float(x) for x in r] for r in P])) > 1e-9:
                break
        M = [[sum(P[k][i] * D[k][l] * P[l][j] for k in range(n) for l in range(n))
              for j in range(n)] for i in range(n)]
        assert signature(M) == expected


def test_signature_zero_diagonal_case():
    assert signature([[0, 1], [1, 0]]) == 0


def test_signature_block_additivity():
    A = [[1, 0, 0], [0, 0, 2], [0, 2, 0]]
    assert signature(A) == 1


def test_signature_degenerate_rejected():
    with pytest.raises(MaslovError):
        signature([[1, 1], [1, 1]])


def test_signature_rejects_a_non_square_matrix():
    with pytest.raises(MaslovError, match="not square"):
        signature([[1, 2, 3], [2, 1, 0]])
    for rows in ([1], [[1, 0], 2]):  # a row that is no row
        with pytest.raises(MaslovError, match="signature: the matrix is not square"):
            signature(rows)


def test_entries_are_read_as_exact_rationals():
    # strings and exact floats are read through Fraction; ints and
    # Fractions pass as they are
    assert signature([["1/2", 0], [0, "-3"]]) == 0
    assert signature([[0.25, Fraction(1, 3)], [Fraction(1, 3), 1]]) == 2
    frame = chart_parameters([[1, "1/2"]], {0})
    assert frame.A == ((Fraction(1, 2),),)
    assert frame == chart_parameters([[Fraction(1), Fraction(1, 2)]], {0})
    for bad in (None, "x", float("nan"), float("inf"), 1j):
        with pytest.raises(MaslovError, match="not a finite rational"):
            signature([[1, 0], [0, bad]])
        with pytest.raises(MaslovError, match="not a finite rational"):
            chart_parameters([[1, 0, 0, 0], [0, 1, 0, bad]], {0, 1})


# --- the integer elimination against the Fraction one ------------------------------


def bareiss_solve(A, B):
    """A X = B by the integer elimination of the charts: the rows of [A | B]
    scaled to integers, the block B of the result over the last pivot."""
    M = [_scaled(a + b) for a, b in zip(A, B)]
    d = _bareiss(M)
    return [[Fraction(x, d) for x in row[len(A):]] for row in M]


def fraction_solve(A, B):
    """Gauss-Jordan on Fraction entries: the reference for bareiss_solve."""
    n = len(A)
    M = [row[:] + Brow[:] for row, Brow in zip(A, B)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise MaslovError("singular system")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def fraction_signature(S):
    """Symmetric elimination on Fraction entries: the reference for signature."""
    M = [[Fraction(x) for x in row] for row in S]
    n = len(M)
    if any(len(row) != n for row in M):
        raise MaslovError("signature: the matrix is not square")
    if any(M[i][j] != M[j][i] for i in range(n) for j in range(n)):
        raise MaslovError("matrix is not symmetric")
    sig = 0
    idx = list(range(n))
    while idx:
        d = next((i for i in idx if M[i][i] != 0), None)
        if d is None:
            pair = next(((i, j) for i in idx for j in idx
                         if i != j and M[i][j] != 0), None)
            if pair is None:
                raise MaslovError("degenerate matrix")
            i, j = pair
            for k in range(n):
                M[i][k] = M[i][k] + M[j][k]
            for k in range(n):
                M[k][i] = M[k][i] + M[k][j]
            d = i
        pivot = M[d][d]
        sig += 1 if pivot > 0 else -1
        idx.remove(d)
        col = {r: M[r][d] for r in idx}
        for r in idx:
            if col[r] != 0:
                fr = col[r] / pivot
                for s in idx:
                    M[r][s] -= fr * M[d][s]
        for r in idx:
            M[r][d] = Fraction(0)
            M[d][r] = Fraction(0)
    return sig


def outcome_or_error(fn, *args):
    """The value of the call, or the message of the MaslovError it raises."""
    try:
        return fn(*args)
    except MaslovError as e:
        return ("MaslovError", str(e))


EXACT = settings(max_examples=300, deadline=None, derandomize=True, database=None)
NONZERO = st.builds(Fraction, st.integers(1, 4), st.integers(1, 6)) | \
    st.builds(Fraction, st.integers(-4, -1), st.integers(1, 6))
ENTRIES = st.one_of(st.just(Fraction(0)), NONZERO, NONZERO)  # zero in one branch of three


@st.composite
def rational_systems(draw):
    """(A, B) with A n x n, n <= 6; a drawn row of A is often a multiple of an
    earlier one (a zero row included), so many systems are singular."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    A = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    B = [[draw(ENTRIES) for _ in range(m)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        k = draw(ENTRIES)
        A[i] = [k * x for x in A[draw(st.integers(0, i - 1))]]
    return A, B


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n, n <= 6, often with a zero diagonal, and often
    degenerate: row and column i made k times row and column j."""
    n = draw(st.integers(0, 6))
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            S[i][j] = S[j][i] = draw(ENTRIES)
    if draw(st.booleans()):
        for i in range(n):
            S[i][i] = Fraction(0)
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(1, n - 1))
        j, k = draw(st.integers(0, i - 1)), draw(ENTRIES)
        for t in range(n):
            S[i][t] = S[t][i] = k * S[j][t]
        S[i][i] = k * k * S[j][j]
    return S


@EXACT
@given(rational_systems())
def test_integer_solve_is_the_fraction_solve(system):
    A, B = system
    got = outcome_or_error(bareiss_solve, A, B)
    assert got == outcome_or_error(fraction_solve, A, B)
    assert got == ("MaslovError", "singular system") or all(
        type(x) is Fraction for row in got for x in row)


@EXACT
@given(symmetric_matrices())
def test_integer_signature_is_the_fraction_signature(S):
    assert outcome_or_error(signature, S) == outcome_or_error(fraction_signature, S)
    if len(S) > 1:  # one entry off the symmetry
        T = [row[:] for row in S]
        T[0][-1] += 1
        assert outcome_or_error(signature, T) == ("MaslovError", "matrix is not symmetric")
        assert outcome_or_error(fraction_signature, T) == outcome_or_error(signature, T)


def test_the_exact_strategies_reach_every_case():
    # singular and regular systems, degenerate forms and nondegenerate forms
    # with a zero diagonal (the congruence step) all occur among the inputs
    def zero_diagonal(S):
        return len(S) > 1 and all(S[i][i] == 0 for i in range(len(S)))

    cases = [(rational_systems(), lambda s: raises(bareiss_solve, *s)),
             (rational_systems(), lambda s: len(s[0]) > 3 and not raises(bareiss_solve, *s)),
             (symmetric_matrices(), lambda S: len(S) > 3 and raises(signature, S)),
             (symmetric_matrices(), lambda S: zero_diagonal(S) and not raises(signature, S))]
    for strategy, condition in cases:
        find(strategy, condition, settings=settings(derandomize=True, database=None,
                                                     phases=[Phase.generate]))


# --- charts ----------------------------------------------------------------------


def test_chart_parameters_graph():
    basis = graph_basis([[Fraction(3)]])
    fr = chart_parameters(basis, {0})
    assert fr.A == ((Fraction(3),),)
    assert fr.B == ((),) or fr.B == ()
    back = frame_basis(fr)
    fr2 = chart_parameters(back, {0})
    assert fr2 == fr


def test_chart_parameters_horizontal_axis():
    # L = L_I itself: A = B = C = 0
    basis = [[1, 0, 0, 0], [0, 0, 0, 1]]  # n=2: span(x1, xi2)
    fr = chart_parameters(basis, {0})
    assert all(all(x == 0 for x in row) for row in fr.A)
    assert all(all(x == 0 for x in row) for row in fr.C)


def test_chart_parameters_outside_chart():
    basis = [[0, 0, 1, 0], [0, 0, 0, 1]]  # vertical: xi-plane, not in U_{1,2}
    with pytest.raises(MaslovError):
        chart_parameters(basis, {0, 1})


def test_chart_parameters_takes_mixed_exact_scalars():
    # int, Fraction and exactly representable float entries give the frame
    # of the all-Fraction basis, and the frame holds Fractions only
    S = [[Fraction(1, 2), Fraction(-3), Fraction(5, 4)],
         [Fraction(-3), Fraction(0), Fraction(3, 8)],
         [Fraction(5, 4), Fraction(3, 8), Fraction(-7, 2)]]
    exact = graph_basis(S)
    mixed = [[1, 0.0, 0, 0.5, Fraction(-3), 1.25],
             [0.0, 1, 0, -3, 0.0, Fraction(3, 8)],
             [0, 0, 1.0, Fraction(5, 4), 0.375, -3.5]]
    assert mixed == exact
    outside = set()
    for I in ({0, 1, 2}, {0}, {2}, {0, 2}, set()):
        got = outcome(chart_parameters, mixed, I)
        assert got == outcome(chart_parameters, exact, I)
        outside.add(got == "raise")
        if got == "raise":
            continue
        assert all(type(x) is Fraction for block in (got.A, got.B, got.C)
                   for row in block for x in row)
        assert chart_parameters(frame_basis(got), I) == got
    assert outside == {False, True}


def test_chart_round_trip_random():
    rng = random.Random(1)
    for _ in range(10):
        S = rand_sym(rng, 2)
        basis = graph_basis(S)
        for I in ({0, 1}, {0}, {1}, set()):
            try:
                fr = chart_parameters(basis, I)
            except MaslovError:
                continue
            again = chart_parameters(frame_basis(fr), I)
            assert again == fr


def test_linear_cocycle_sign_example():
    # n=1, L = {xi = x}, I = {1}, J = {}: +1/2 (doubled +1)
    basis = graph_basis([[Fraction(1)]])
    assert linear_cocycle(basis, {0}, set()) == 1
    assert linear_cocycle(basis, set(), {0}) == -1
    for k in (2, -1, -3):
        b = graph_basis([[Fraction(k)]])
        assert linear_cocycle(b, {0}, set()) == (1 if k > 0 else -1)


def test_linear_cocycle_identity_overlap():
    basis = graph_basis([[Fraction(2)]])
    assert linear_cocycle(basis, {0}, {0}) == 0
    # a chart exchanges no coordinate with itself
    rng = random.Random(12)
    for n in (1, 2, 3):
        for k in range(n + 1):
            for I in map(frozenset, itertools.combinations(range(n), k)):
                basis = frame_basis(rand_frame(rng, n, I))
                assert linear_cocycle(basis, I, I) == 0
    beta = graph_chart(3)
    assert submanifold_cocycle(beta, beta, ((Fraction(1),), (Fraction(3),))) == 0


def test_linear_cocycle_triples_random_r4():
    rng = random.Random(2)
    subsets = [frozenset(s) for k in range(3)
               for s in itertools.combinations(range(2), k)]
    count = 0
    while count < 200:
        S = rand_sym(rng, 2)
        basis = graph_basis(S)
        frames = {}
        ok = []
        for I in subsets:
            try:
                frames[I] = chart_parameters(basis, I)
                ok.append(I)
            except MaslovError:
                continue
        vals = {}
        usable = []
        for I in ok:
            for J in ok:
                try:
                    vals[(I, J)] = linear_cocycle(basis, I, J)
                except MaslovError:
                    vals[(I, J)] = None
        for I, J in itertools.combinations(ok, 2):
            if vals[(I, J)] is None:
                continue
            assert vals[(I, J)] == -vals[(J, I)], (S, I, J)
        for I, J, K in itertools.combinations(ok, 3):
            if None in (vals[(I, J)], vals[(J, K)], vals[(K, I)]):
                continue
            assert vals[(I, J)] + vals[(J, K)] + vals[(K, I)] == 0, (S, I, J, K)
            count += 1


def rand_frame(rng, n, I):
    """Frame on U_I with small integer blocks, often degenerate elsewhere."""
    Ilist = sorted(I)
    k = len(Ilist)
    A = rand_sym(rng, k, denom=1) if k else []
    C = rand_sym(rng, n - k, denom=1) if n - k else []
    B = [[Fraction(rng.randint(-1, 1)) for _ in range(n - k)] for _ in range(k)]
    return LagrangianFrame(n, frozenset(I), tuple(map(tuple, A)),
                           tuple(map(tuple, B)), tuple(map(tuple, C)))


def raises(fn, *args):
    try:
        fn(*args)
    except MaslovError:
        return True
    return False


def outcome(fn, *args):
    """The value of the call, or "raise" when it raises MaslovError."""
    try:
        return fn(*args)
    except MaslovError:
        return "raise"


def test_linear_cocycle_outside_second_chart_rejected():
    # linear_cocycle decides membership in U_J from the exchanged Hessian
    # alone; it must reject exactly what chart_parameters places outside U_J
    rng = random.Random(5)
    for n in (2, 3):
        subsets = [frozenset(s) for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)]
        seen = set()
        for _ in range(12):
            basis = frame_basis(rand_frame(rng, n, rng.choice(subsets)))
            for I in subsets:
                if raises(chart_parameters, basis, I):
                    continue
                for J in subsets:
                    outside = raises(chart_parameters, basis, J)
                    assert raises(linear_cocycle, basis, I, J) == outside, (basis, I, J)
                    seen.add(outside)
        assert seen == {False, True}


def symplectic(a, b):
    """omega(a, b) = a_x . b_xi - a_xi . b_x on R^{2n}, vectors (x, xi)."""
    n = len(a) // 2
    return sum(a[i] * b[n + i] - a[n + i] * b[i] for i in range(n))


def vertical(n, I):
    """Basis of the vertical Lagrangian of U_I: d/dxi_i (i in I), d/dx_j (j not in I)."""
    return [[int(c == (n + i if i in I else i)) for c in range(2 * n)] for i in range(n)]


def charpoly(G):
    """Coefficients c_0 .. c_m of det(t - G) for an integer matrix G, by the
    Faddeev-LeVerrier recursion, exact on integers."""
    m = len(G)
    c, P = [0] * m + [1], [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        P = [[sum(G[i][l] * P[l][j] for l in range(m)) + (c[m - k + 1] if i == j else 0)
              for j in range(m)] for i in range(m)]
        trace = sum(G[i][l] * P[l][i] for i in range(m) for l in range(m))
        assert trace % k == 0
        c[m - k] = -trace // k
    return c


def sign_changes(cs):
    signs = [x > 0 for x in cs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def kashiwara_index(L, M, P):
    """tau(L, M, P): the signature of Q(a, b, c) = w(a, b) + w(b, c) + w(c, a)
    on L + M + P, often degenerate.  Read off exactly by Descartes' rule,
    which counts the roots of a polynomial whose roots are all real: the
    positive eigenvalues are the sign changes of det(t - G), the negative
    ones those of det(-t - G)."""
    vectors = [(s, v) for s, space in enumerate((L, M, P)) for v in space]
    # twice the polar form of Q: w(a, b') + w(a', b) and its cyclic images
    G = [[symplectic(u, v) if t == (s + 1) % 3 else symplectic(v, u) if s == (t + 1) % 3
          else 0 for t, v in vectors] for s, u in vectors]
    c = charpoly(G)
    return sign_changes(c) - sign_changes([x * (-1) ** i for i, x in enumerate(c)])


def test_linear_cocycle_is_the_kashiwara_index():
    # c_IJ(L) = tau(L, Lambda_I, Lambda_J), Lambda_I the vertical Lagrangian
    # of U_I, on every pair of charts that both hold L
    assert kashiwara_index([[1, 1]], vertical(1, {0}), vertical(1, set())) == 1
    rng = random.Random(13)
    seen = set()
    for n in (1, 2, 3):
        subsets = [frozenset(s) for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)]
        for K in subsets:
            for _ in range(3):
                L = frame_basis(rand_frame(rng, n, K))  # integer blocks, integer rows
                assert all(x.denominator == 1 for row in L for x in row)
                L = [[int(x) for x in row] for row in L]
                for I, J in itertools.product(subsets, subsets):
                    c = outcome(linear_cocycle, L, I, J)
                    if c != "raise":
                        assert c == kashiwara_index(L, vertical(n, I), vertical(n, J)), (L, I, J)
                        seen.add(c)
    assert seen == {-3, -2, -1, 0, 1, 2, 3}


def test_generating_quadratic_matches_frame():
    rng = random.Random(3)
    S = rand_sym(rng, 2)
    basis = graph_basis(S)
    fr = chart_parameters(basis, {0})
    F = generating_quadratic(fr)
    # dF/dx1 at a free point reproduces xi_1 etc.
    chart = SubdivisionChart("c", "base", 2, (0,), F)
    pt = chart.point_on_chart({"x1": Fraction(1, 2), "e2": Fraction(1, 3)})
    x, xi = pt
    # the point satisfies xi = S x
    for i in range(2):
        assert xi[i] == sum(Fraction(S[i][j]) * x[j] for j in range(2))


def test_chart_indices_outside_the_dimension_rejected():
    basis = [[1, 0, 2, 0], [0, 1, 0, 3]]
    for I in ({2}, {-1}, {0, 5}):
        with pytest.raises(MaslovError, match="chart index outside range"):
            chart_parameters(basis, I)
    with pytest.raises(MaslovError, match="chart index outside range"):
        linear_cocycle(graph_basis([[Fraction(1)]]), {0}, {7})
    for I in ({0.7}, {"a"}):
        with pytest.raises(MaslovError, match="chart indices must be integers"):
            chart_parameters(basis, I)
    assert chart_parameters(basis, {numpy.int64(1)}) == chart_parameters(basis, {1})


def test_subdivision_chart_rejects_base_indices_outside_the_dimension():
    F = SeriesContext(["x1"], 2).monomial({"x1": 2}, Fraction(1, 2))
    with pytest.raises(MaslovError, match="chart index outside range"):
        SubdivisionChart("bad", "base", 1, (3,), F)
    with pytest.raises(MaslovError, match="chart index outside range"):
        SubdivisionChart.from_json({"chart_id": "bad", "base_chart": "base", "n": 1,
                                    "base_free": [-1], "F": F.to_json()})
    chart = SubdivisionChart("c", "base", 1, (0,), F)
    point = chart.point_on_chart({"x1": Fraction(2)})
    assert point == ((Fraction(2),), (Fraction(2),))
    assert chart.point_free_values(point) == {"x1": Fraction(2)}


def test_fiber_free_is_the_complement_of_base_free():
    F = SeriesContext(["x1", "x3", "e2"], 2).monomial({"x1": 1, "e2": 1}, Fraction(1, 3))
    assert SubdivisionChart("c", "base", 3, (2, 0), F).fiber_free == (1,)
    assert SubdivisionChart("c", "base", 3, (), F).fiber_free == (0, 1, 2)
    assert SubdivisionChart("c", "base", 3, (0, 1, 2), F).fiber_free == ()


def exact_det(M):
    """Determinant by the Leibniz formula, exact on Fractions."""
    total = Fraction(0)
    for p in itertools.permutations(range(len(M))):
        term = Fraction(-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
        for i, j in enumerate(p):
            term *= M[i][j]
        total += term
    return total


def test_chart_parameters_rejects_exactly_the_non_lagrangian_bases():
    # in every chart where the projection onto the free coordinates is
    # invertible, chart_parameters returns a frame exactly when the basis
    # spans an isotropic subspace
    rng = random.Random(6)
    rejected = accepted = 0
    for n in (1, 2, 3):
        subsets = [frozenset(s) for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)]
        for trial in range(30):
            if trial % 2:
                basis = [[Fraction(rng.randint(-2, 2)) for _ in range(2 * n)] for _ in range(n)]
            else:
                basis = frame_basis(rand_frame(rng, n, rng.choice(subsets)))
            omega = any(sum(r[i] * s[n + i] - r[n + i] * s[i] for i in range(n)) != 0
                        for r in basis for s in basis)
            for I in subsets:
                free = sorted(I) + [n + j for j in range(n) if j not in I]
                if exact_det([[r[c] for c in free] for r in basis]) == 0:
                    with pytest.raises(MaslovError, match="outside the chart"):
                        chart_parameters(basis, I)
                elif omega:
                    with pytest.raises(MaslovError, match="not Lagrangian"):
                        chart_parameters(basis, I)
                    rejected += 1
                else:
                    chart_parameters(basis, I)
                    accepted += 1
    assert rejected and accepted


def test_hessian_is_the_second_derivative_of_the_generating_quadratic():
    rng = random.Random(8)
    for n in (1, 2, 3):
        subsets = [frozenset(s) for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)]
        for _ in range(10):
            frame = rand_frame(rng, n, rng.choice(subsets))
            F = generating_quadratic(frame)
            names = F.ctx.variables
            assert frame.hessian() == [[F.diff(p).diff(q).evaluate({}) for q in names]
                                       for p in names]


def test_linear_cocycle_is_the_submanifold_cocycle_at_the_origin():
    rng = random.Random(9)
    for n in (1, 2, 3):
        subsets = [frozenset(s) for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)]
        origin = ((Fraction(0),) * n, (Fraction(0),) * n)
        for _ in range(8):
            basis = frame_basis(rand_frame(rng, n, rng.choice(subsets)))
            charts = {}
            for J in subsets:
                # the cocycle reads only the base_free of its second chart,
                # so a chart outside which L lies keeps a zero generating function
                F = (generating_quadratic(chart_parameters(basis, J))
                     if not raises(chart_parameters, basis, J) else poly(["x1"]))
                charts[J] = SubdivisionChart(str(sorted(J)), "base", n, tuple(sorted(J)), F)
            for I, J in itertools.product(subsets, subsets):
                if raises(chart_parameters, basis, I):
                    continue
                want = outcome(submanifold_cocycle, charts[I], charts[J], origin)
                assert outcome(linear_cocycle, basis, I, J) == want, (basis, I, J)


MALFORMED = settings(max_examples=150, deadline=None, derandomize=True, database=None)
RATIONALS = st.fractions(-4, 4, max_denominator=3)


def _graph_of(S):
    n = len(S)
    return graph_basis([[S[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


MATRICES = st.one_of(
    st.lists(st.lists(RATIONALS, max_size=6), max_size=3),  # any shape, ragged included
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(RATIONALS, min_size=2 * n, max_size=2 * n), min_size=n, max_size=n)),
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)).map(_graph_of),
)
INDEX_SETS = st.sets(st.integers(-2, 5), max_size=4)


@MALFORMED
@given(MATRICES, INDEX_SETS, INDEX_SETS)
def test_malformed_input_raises_maslov_error_only(M, I, J):
    for fn, args in ((signature, (M,)), (chart_parameters, (M, I)),
                     (linear_cocycle, (M, I, J))):
        try:
            fn(*args)
        except MaslovError:
            pass


# --- submanifold cocycle ----------------------------------------------------------


def poly(names, terms=None):
    """Exact polynomial of degree at most 2 over ``names``."""
    return SeriesContext(names, 2).from_terms(terms or {})


def graph_chart(k, chart_id="beta", shift=0):
    F = poly(["x1"], {(2,): Fraction(k, 2)})
    return SubdivisionChart(chart_id, "base", 1, (0,), F, Fraction(shift))


def fiber_chart(k, chart_id="gamma"):
    F = poly(["e1"], {(2,): Fraction(-1, 2 * k)})
    return SubdivisionChart(chart_id, "base", 1, (), F)


def test_submanifold_case1_zero():
    beta = graph_chart(2, "beta")
    other = SubdivisionChart("beta2", "other_base", 1, (0,),
                             poly(["x1"], {(2,): Fraction(1)}))
    assert submanifold_cocycle(beta, other, ((0,), (0,))) == 0


def test_submanifold_graph_vs_fiber():
    for k in (1, -1, 2, -3):
        beta = graph_chart(k)
        gamma = fiber_chart(k)
        pt = ((Fraction(1),), (Fraction(k),))
        assert submanifold_cocycle(beta, gamma, pt) == (1 if k > 0 else -1)
        assert submanifold_cocycle(gamma, beta, pt) == (-1 if k > 0 else 1)


def test_exchange_translates_only_degeneracy():
    # an entry that is not rational keeps the message of signature; only a
    # degenerate block takes the caller's
    c = SeriesContext(["x1", "e2"], 2)
    beta = SubdivisionChart("beta", "base", 2, (0,),
                            c.from_terms({(2, 0): Fraction(1), (0, 2): 1.5j}))
    gamma = SubdivisionChart("gamma", "base", 2, (0, 1), poly(["x1", "x2"]))
    with pytest.raises(MaslovError, match="entry 3j is not a finite rational number"):
        signature([[3j]])
    with pytest.raises(MaslovError, match="entry 3j is not a finite rational number"):
        submanifold_cocycle(beta, gamma, ((0, 0), (0, 0)))
    flat = SubdivisionChart("flat", "base", 2, (0,), c.from_terms({(2, 0): Fraction(1)}))
    with pytest.raises(MaslovError, match="degenerate mixed Hessian at the point"):
        submanifold_cocycle(flat, gamma, ((0, 0), (0, 0)))


def test_submanifold_triple_sum_quadratic():
    rng = random.Random(4)
    # n=2 graph Lagrangian, charts: full graph, mixed (keep x1), full fiber
    for _ in range(10):
        S = rand_sym(rng, 2)
        # skip graphs outside the fiber chart (S singular) or the mixed one
        if S[0][0] * S[1][1] == S[0][1] * S[1][0] or S[1][1] == 0:
            continue
        basis = graph_basis(S)
        charts = {}
        vals = {}
        ids = []
        for I, name in (( {0, 1}, "g"), ({0}, "m"), (set(), "f")):
            try:
                fr = chart_parameters(basis, I)
            except MaslovError:
                continue
            F = generating_quadratic(fr)
            charts[name] = SubdivisionChart(name, "base", 2, tuple(sorted(I)), F)
            ids.append(name)
        pt_vals = {"x1": Fraction(1, 3), "x2": Fraction(1, 5)}
        if "g" not in charts:
            continue
        pt = charts["g"].point_on_chart(pt_vals)
        for b in ids:
            for g in ids:
                try:
                    vals[(b, g)] = submanifold_cocycle(charts[b], charts[g], pt)
                except MaslovError:
                    vals[(b, g)] = None
        for b, g in itertools.combinations(ids, 2):
            if vals[(b, g)] is not None and vals[(g, b)] is not None:
                assert vals[(b, g)] == -vals[(g, b)]
        if len(ids) == 3 and all(vals[p] is not None for p in
                                 [("g", "m"), ("m", "f"), ("f", "g")]):
            assert vals[("g", "m")] + vals[("m", "f")] + vals[("f", "g")] == 0


def test_generating_quadratic_is_exact_series():
    fr = chart_parameters(graph_basis([[Fraction(1, 3), Fraction(2)],
                                       [Fraction(2), Fraction(-5, 7)]]), {0})
    F = generating_quadratic(fr)
    assert isinstance(F, TruncatedSeries)
    assert all(isinstance(c, (int, Fraction)) for c in F.terms.values())
    assert F.coefficient({"x1": 2}) == Fraction(1, 2) * fr.A[0][0]
    # an int Hessian stays exact too: its halved diagonal is a Fraction
    F = generating_quadratic(LagrangianFrame(1, frozenset({0}), ((3,),), ((),), ()))
    assert F.terms == {(2,): Fraction(3, 2)} and type(F.terms[(2,)]) is Fraction
    q = quadratic_series(SeriesContext(["x1", "x2"], 2), [[3, 1], [1, 0]], ["x1", "x2"])
    assert q.terms == {(2, 0): Fraction(3, 2), (1, 1): 1}
    assert [type(c) for c in q.terms.values()] == [Fraction, int]


def test_subdivision_chart_json_round_trip():
    fr = chart_parameters(graph_basis([[Fraction(3, 2), Fraction(-1, 3)],
                                       [Fraction(-1, 3), Fraction(4)]]), {1})
    chart = SubdivisionChart("m", "base", 2, (1,), generating_quadratic(fr),
                             Fraction(-5, 9))
    back = SubdivisionChart.from_json(json.loads(json.dumps(chart.to_json())))
    assert back == chart
    assert all(isinstance(c, Fraction) for c in back.F.terms.values())


def test_subdivision_chart_json_rejects_a_zero_denominator():
    data = graph_chart(2).to_json()
    assert SubdivisionChart.from_json(data) == graph_chart(2)
    with pytest.raises(MaslovError, match="phase_shift has denominator 0"):
        SubdivisionChart.from_json({**data, "phase_shift": [1, 0]})
    with pytest.raises(MaslovError, match="entry 'x' is not a finite rational"):
        SubdivisionChart.from_json({**data, "phase_shift": [1, "x"]})
    shift = SubdivisionChart.from_json({**data, "phase_shift": [1.5, 2]}).phase_shift
    assert shift == Fraction(3, 4) and type(shift) is Fraction


def test_point_readers_name_an_entry_that_is_not_rational():
    # every coordinate a chart reads goes through the exact reader
    graph, fiber = graph_chart(2), fiber_chart(2)
    for bad in (float("nan"), "x", None):
        message = re.escape(f"entry {bad!r} is not a finite rational number")
        calls = [(graph.point_free_values, ((bad,), (0,))),
                 (graph.contains_point, ((bad,), (0,))),
                 (graph.contains_point, ((1,), (bad,))),
                 (graph.point_on_chart, {"x1": bad}),
                 (graph.phase_on_l, ((bad,), (0,))),
                 (fiber.phase_on_l, ((bad,), (0,))),
                 (fiber.point_free_values, ((0,), (bad,)))]
        for fn, arg in calls:
            with pytest.raises(MaslovError, match=message):
                fn(arg)


# --- alpha cocycle -----------------------------------------------------------------


def test_alpha_zero_section():
    beta = SubdivisionChart("b", "base", 1, (0,), poly(["x1"]))
    gamma = SubdivisionChart("g", "base", 1, (0,), poly(["x1"]))
    assert alpha_cocycle(beta, gamma, ((Fraction(0),), (Fraction(0),))) == 0


def test_alpha_graph_vs_fiber_is_zero():
    for k in (1, 2, -3):
        beta = graph_chart(k)
        gamma = fiber_chart(k)
        pt = ((Fraction(1),), (Fraction(k),))
        assert alpha_cocycle(beta, gamma, pt) == 0


def test_alpha_constant_shift():
    beta = graph_chart(2)
    shifted = graph_chart(2, "beta2", shift=Fraction(5, 7))
    pt = ((Fraction(1),), (Fraction(2),))
    assert alpha_cocycle(beta, shifted, pt) == Fraction(-5, 7)


def test_alpha_inconsistent_charts_rejected():
    beta = graph_chart(1)
    gamma = graph_chart(2, "bad")
    with pytest.raises(MaslovError):
        alpha_cocycle(beta, gamma, ((Fraction(0),), (Fraction(0),)))


# --- cech verification ---------------------------------------------------------------


def test_cech_single_chart_vacuous():
    rep = verify_cech_cocycle({("a", "a"): 0})
    assert rep["cocycle"]


def test_cech_cocycle_pass_and_trivialization():
    vals = {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 3}
    rep = verify_cech_cocycle(vals, zero_cochain={"a": 3, "b": 2, "c": 0})
    assert rep["cocycle"]
    assert rep["trivialized_by_cochain"]


def test_cech_reports_each_failure_once():
    rep = verify_cech_cocycle({("a", "b"): 1, ("b", "a"): 1})
    assert rep["failures"] == [{"kind": "antisymmetry", "pair": ["a", "b"]}]
    rep = verify_cech_cocycle({("a", "a"): 2, ("a", "b"): 1})
    assert rep["failures"] == [{"kind": "diagonal", "pair": ["a", "a"]}]
    assert (rep["cocycle"], rep["pairs"], rep["triples_checked"]) == (False, 2, 0)
    rep = verify_cech_cocycle({("a", "b"): 1, ("b", "a"): -1, ("b", "b"): 0})
    assert rep["cocycle"] and rep["failures"] == []


def test_cech_perturbed_fails_with_triple():
    vals = {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 4}
    rep = verify_cech_cocycle(vals)
    assert not rep["cocycle"]
    kinds = {f["kind"] for f in rep["failures"]}
    assert "triple" in kinds


def test_a_point_is_two_sequences_of_n_coordinates():
    graph, fiber = graph_chart(2), fiber_chart(2)
    for bad in [((), ()), ((0,), (0,), (0,)), 5, ((0, 1), (0,)), ((0,), None)]:
        message = re.escape(f"point {bad!r} is not two sequences of 1 coordinates")
        for call in (lambda: graph.point_free_values(bad), lambda: graph.contains_point(bad),
                     lambda: fiber.phase_on_l(bad), lambda: submanifold_cocycle(graph, fiber, bad),
                     lambda: alpha_cocycle(graph, fiber, bad)):
            with pytest.raises(MaslovError, match=message):
                call()
    data = graph.to_json()
    for key in ("chart_id", "base_chart", "n", "base_free", "F"):
        with pytest.raises(MaslovError, match=f"chart JSON lacks the field '{key}'"):
            SubdivisionChart.from_json({k: v for k, v in data.items() if k != key})
    # a malformed field is named too
    for bad, message in [({**data, "phase_shift": [1]}, r"malformed field 'phase_shift': \[1\]"),
                         ({**data, "phase_shift": 5}, "malformed field 'phase_shift': 5"),
                         ({**data, "n": "x"}, "chart dimension n 'x' is not an integer"),
                         ({**data, "base_free": 3}, "malformed field 'base_free': 3"),
                         ({**data, "F": 3}, "malformed field 'F': series JSON lacks the "
                                            "field 'terms'"),
                         ([data], "chart JSON .* is not an object"),
                         (None, "chart JSON None is not an object")]:
        with pytest.raises(MaslovError, match=message):
            SubdivisionChart.from_json(bad)
    with pytest.raises(MaslovError, match="chart dimension n 'x' is not an integer"):
        SubdivisionChart("c", "base", "x", (0,), graph.F)


def test_maslov_input_errors_are_typed():
    # the graph of F has the slope of the zero section at 0 and at the three
    # points alpha_cocycle samples, 1/10, 1/13 and 1/16, but another phase
    ctx = SeriesContext(["x1"], 6)
    x = ctx.variable("x1")
    slope = x * (x - Fraction(1, 10)) * (x - Fraction(1, 13)) * (x - Fraction(1, 16))
    F = ctx.from_terms({(p + 1,): Fraction(c) / (p + 1) for (p,), c in slope.terms.items()})
    wavy = SubdivisionChart("wavy", "base", 1, (0,), F)
    zero = ((Fraction(0),), (Fraction(0),))
    two = SubdivisionChart("two", "base", 2, (0,), poly(["x1", "e2"]))
    for call, message in [
            (lambda: submanifold_cocycle(graph_chart(1), two, zero), "dimension mismatch"),
            (lambda: alpha_cocycle(graph_chart(1), graph_chart(2), ((1,), (2,))),
             "point does not satisfy both chart descriptions"),
            (lambda: alpha_cocycle(graph_chart(1), graph_chart(2), zero),
             "charts describe different Lagrangians near the point"),
            (lambda: alpha_cocycle(wavy, graph_chart(0), zero),
             "phase difference is not locally constant")]:
        with pytest.raises(MaslovError, match=message):
            call()
