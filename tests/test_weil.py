import itertools
import math
import random

import numpy as np
import pytest

from weyljet.series import HBAR, OscillatoryScalar, SeriesError, quadratic_series
from weyljet.stationary import DegenerateHessianError, hessian_matrix, stationary_phase
from weyljet.weil import (Central, Fourier, GaussianJet, Linear, Shear,
                          UndefinedWeilActionError, act_central, act_fourier, act_generator,
                          act_gl, act_shear, act_word, factor_sp, jet_context,
                          jets_equal_mod_center, word_matrix)


def basic_jet(n=1, cap=6, T=None, mode="weil0", amp=None):
    ctx = jet_context(n, cap)
    if T is None:
        T = np.zeros((n, n))
    a = ctx.one() if amp is None else amp
    return GaussianJet(mode, T, a)


def rand_weil_jet(n, cap, rng):
    ctx = jet_context(n, cap)
    R = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    R = (R + R.T) / 2
    L = np.array([[rng.uniform(0.2, 1) if i == j else rng.uniform(-0.4, 0.4) * (i > j)
                   for j in range(n)] for i in range(n)])
    T = R + 1j * (L @ L.T + 0.4 * np.eye(n))
    amp = ctx.one()
    for _ in range(3):
        exp = {f"u{rng.randint(1, n)}": rng.randint(0, 2)}
        amp = amp + ctx.monomial(exp, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return GaussianJet("weil", T, amp)


def test_shear_additivity_and_identity():
    jet = basic_jet()
    j1 = act_shear([[1.0]], act_shear([[0.5]], jet))
    j2 = act_shear([[1.5]], jet)
    assert j1.is_close(j2)
    assert act_shear([[0.0]], jet).is_close(jet)
    assert abs(act_shear([[1.0]], jet).T[0, 0] - 1.0) < 1e-14


def test_gl_formula_and_multiplicativity():
    ctx = jet_context(1, 6)
    f = ctx.one() + ctx.variable("u1")
    jet = GaussianJet("weil0", [[2.0]], f)
    out = act_gl([[2.0]], jet)
    # T -> T/4, amplitude -> 2^{-1/2} f(u/2)
    assert abs(out.T[0, 0] - 0.5) < 1e-14
    got = out.flattened()[1]
    expected = (ctx.one() + 0.5 * ctx.variable("u1")) * 2 ** -0.5
    assert got.distance(expected) < 1e-12
    rng = random.Random(0)
    for _ in range(5):
        jet2 = rand_weil_jet(2, 6, rng)
        B1 = np.array([[1.0, 0.3], [0.0, 2.0]])
        B2 = np.array([[0.5, 0.0], [-0.2, 1.0]])
        a = act_gl(B1, act_gl(B2, jet2))
        b = act_gl(B1 @ B2, jet2)
        assert a.is_close(b, 1e-10)


def test_gl_identity():
    jet = basic_jet(2)
    assert act_gl(np.eye(2), jet).is_close(jet)


def test_fourier_standard_gaussian_self_dual():
    # T = i, f = 1: the standard Gaussian maps to itself with unit prefactor
    jet = basic_jet(T=[[1j]], mode="weil")
    out = act_fourier(None, jet)
    assert abs(out.T[0, 0] - 1j) < 1e-12
    assert out.is_close(jet, 1e-9)


def test_fourier_real_branch():
    for k in (1.0, -1.0, 2.0, -2.0, 3.0):
        jet = basic_jet(T=[[k]])
        out = act_fourier(None, jet)
        assert abs(out.T[0, 0] + 1.0 / k) < 1e-12
        lead = out.scalar.leading()[1]
        expected = math.e ** 0 * np.exp(1j * math.pi * math.copysign(1, k) / 4) / math.sqrt(abs(k))
        assert abs(lead - expected) < 1e-12


def test_fourier_degenerate_undefined_in_weil0():
    jet = basic_jet(T=[[0.0]])
    with pytest.raises(UndefinedWeilActionError):
        act_fourier(None, jet)


def test_fourier_of_an_unknown_variable_is_a_series_error():
    for mode, T in (("weil0", [[2.0]]), ("weil", [[1j]])):
        with pytest.raises(SeriesError,
                           match="^act_fourier: the block names unknown variable 'u9'$"):
            act_fourier(["u9"], basic_jet(T=T, mode=mode))


def test_fourier_conjugation_rule():
    # under the pinned kernel exp(+i x.xi/h): Fourier o (x.) = (-ih d) o Fourier,
    # so Fourier(e^{iTu^2/2h} f(u)) = f(-ih d) Fourier(e^{iTu^2/2h})
    ctx = jet_context(1, 8)
    T = 0.7
    f = ctx.one() + 2 * ctx.variable("u1") + ctx.monomial({"u1": 2}, 0.5)
    jet = GaussianJet("weil0", [[T]], f)
    out = act_fourier(None, jet)
    # oracle: apply f(-ih d_u) to the closed-form transform of the bare Gaussian
    bare = act_fourier(None, basic_jet(T=[[T]], cap=8))
    Tb = bare.T[0, 0]
    # (-ih d) acting on e^{iTb u^2/2h} g: effective op -ih d + (Tb u)
    def xi_op(g):
        return (g.diff("u1") * -1j).shift_exponent("h", 1) + ctx.variable("u1") * Tb * g
    g0 = bare.amplitude
    oracle_amp = f.coefficient({}) * g0 \
        + 2 * xi_op(g0) + 0.5 * xi_op(xi_op(g0))
    oracle = GaussianJet("weil0", bare.T.real, oracle_amp, bare.scalar)
    assert out.is_close(oracle, 1e-10)


def test_partial_fourier_block():
    # n=2, transform only u2; T block-diagonal keeps u1 untouched
    T = np.array([[2.0, 0.0], [0.0, 3.0]])
    jet = basic_jet(2, T=T)
    out = act_fourier(["u2"], jet)
    assert abs(out.T[0, 0] - 2.0) < 1e-12
    assert abs(out.T[1, 1] + 1.0 / 3.0) < 1e-12
    lead = out.scalar.leading()[1]
    assert abs(lead - np.exp(1j * math.pi / 4) / math.sqrt(3.0)) < 1e-12


def test_fourier_of_an_empty_block_is_the_identity():
    # the engine's own empty-block rule: T, amplitude and scalar come back
    rng = random.Random(4)
    for mode in ("weil", "weil0"):
        jet = rand_weil_jet(2, 6, rng)
        scalar = OscillatoryScalar({-1: 0.5j, 0: 2.0}, 1, cap=6)
        jet = GaussianJet(mode, jet.T if mode == "weil" else jet.T.real, jet.amplitude, scalar)
        for block in ((), []):
            out = act_fourier(block, jet)
            assert np.array_equal(out.T, jet.T) and out.amplitude == jet.amplitude
            assert out.scalar.i_power == 1 and out.scalar.laurent == scalar.laurent


def test_word_empty_identity_and_central():
    jet = basic_jet()
    assert act_word([], jet).is_close(jet)
    out = act_word([Central(2)], jet)
    assert out.scalar.leading()[1] == -1.0


def test_word_dense_subset_defined_on_T0():
    jet = basic_jet()
    word = [Shear(((1.0,),)), Fourier(None), Shear(((1.0,),))]
    out = act_word(word, jet)
    assert abs(out.T[0, 0] - 0.0) < 1e-12  # 1 + (-1/1) = 0
    with pytest.raises(UndefinedWeilActionError) as err:
        act_word([Fourier(None)], jet)
    assert err.value.step == 0
    # the step is named once, in the suffix of the re-raised message
    with pytest.raises(UndefinedWeilActionError) as err:
        act_word([Central(1), Shear(((0.0,),)), Fourier(None)], jet)
    assert err.value.step == 2
    assert str(err.value).endswith(" (word step 2)")
    assert str(err.value).count(" (word step") == 1


def test_mixed_relation_gl_shear():
    rng = random.Random(1)
    jet = rand_weil_jet(2, 6, rng)
    A = np.array([[1.0, 0.2], [0.2, -0.5]])
    B = np.array([[2.0, 0.0], [1.0, 1.0]])
    lhs = act_gl(B, act_shear(A, jet))
    Binv = np.linalg.inv(B)
    rhs = act_shear(Binv.T @ A @ Binv, act_gl(B, jet))
    assert lhs.is_close(rhs, 1e-10)


def test_word_matrix_and_factorization():
    rng = random.Random(2)
    n = 1
    for _ in range(20):
        w1 = [Shear(((rng.uniform(-1, 1),),)), Fourier(None)]
        w2 = [Linear(((rng.choice([1.0, 2.0, -1.5]),),)), Shear(((rng.uniform(-1, 1),),))]
        word = w1 + w2
        M = word_matrix(word, n)
        assert np.allclose(M.T @ np.array([[0, 1], [-1, 0]]) @ M,
                           np.array([[0, 1], [-1, 0]]))
        try:
            canon = factor_sp(M)
        except Exception:
            continue
        assert np.allclose(word_matrix(canon, n), M, atol=1e-10)


def test_composition_up_to_center():
    rng = random.Random(3)
    count = 0
    for n in (1, 2):
        while count < (25 if n == 1 else 50):
            jet = rand_weil_jet(n, 6, rng)
            def rand_gen():
                r = rng.random()
                if r < 0.4:
                    A = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
                    return Shear(tuple(map(tuple, (A + A.T) / 2)))
                if r < 0.7:
                    B = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
                    B += np.eye(n) * (1.5 if abs(np.linalg.det(B)) < 0.3 else 0)
                    if abs(np.linalg.det(B)) < 0.2:
                        return Shear(tuple(map(tuple, np.eye(n))))
                    return Linear(tuple(map(tuple, B)))
                return Fourier(None)
            word = [rand_gen(), rand_gen()]
            M = word_matrix(word, n)
            try:
                canon = factor_sp(M)
            except Exception:
                continue
            stepwise = act_word(word, jet)
            composed = act_word(canon, jet)
            ok, lam, resid = jets_equal_mod_center(composed, stepwise, 1e-8)
            assert ok, (word, lam, resid)
            count += 1
        count = 0


def test_degenerate_mode_limit_consistency():
    # real-T actions are limits of Im T -> 0+ actions
    ctx = jet_context(1, 6)
    amp = ctx.one() + ctx.variable("u1")
    k = 1.5
    real_out = act_fourier(None, GaussianJet("weil0", [[k]], amp))
    prev = None
    for delta in (1e-2, 1e-3, 1e-4):
        lim_out = act_fourier(None, GaussianJet("weil", [[k + 1j * delta]], amp))
        _, a_lim = lim_out.flattened()
        _, a_real = real_out.flattened()
        resid = a_lim.distance(a_real) + np.max(np.abs(lim_out.T - real_out.T))
        assert resid < 20 * delta
        if prev is not None:
            assert resid < prev
        prev = resid


def test_json_round_trip():
    rng = random.Random(4)
    jet = rand_weil_jet(2, 6, rng)
    jet2 = GaussianJet.from_json(jet.to_json())
    assert jet2.is_close(jet, 1e-12)


def test_gl_keeps_the_amplitude_at_any_scale():
    ctx = jet_context(1, 6)
    jet = basic_jet(amp=ctx.one() + ctx.variable("u1", 2))
    out = act_gl([[1e16]], jet)
    assert abs(out.amplitude.coefficient({"u1": 2}) - 1e-32) <= 1e-45


def test_symmetry_and_realness_checks_are_scale_free():
    ctx = jet_context(2, 4)
    with pytest.raises(SeriesError, match="symmetric"):
        GaussianJet("weil0", 1e-13 * np.array([[1.0, 1.0], [0.0, 1.0]]), ctx.one())
    with pytest.raises(SeriesError, match="symmetric"):
        act_shear(1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]), basic_jet(n=2, cap=4))
    with pytest.raises(SeriesError, match="real T"):
        GaussianJet("weil0", 1e-13 * np.array([[1.0, 1j], [1j, 1.0]]), ctx.one())
    # rounding-level asymmetry of a large T is symmetric
    T = 1e6 * np.array([[1.0, 0.3], [0.3, 2.0]]) + 1j * np.eye(2)
    T[0, 1] += 3e-11
    assert GaussianJet("weil", T, ctx.one()).T[0, 1] == T[0, 1]
    # a matrix of the wrong size, and a singular linear step, raise typed
    # errors; a small invertible one is regular
    with pytest.raises(SeriesError, match="2x2 matrix, got 9"):
        GaussianJet("weil", 1j * np.eye(3), ctx.one())
    with pytest.raises(SeriesError, match="2x2 matrix, got 1"):
        act_shear([[1.0]], basic_jet(n=2, cap=4))
    with pytest.raises(SeriesError, match="2x2 matrix, got 1"):
        act_gl([[1.0]], basic_jet(n=2, cap=4))
    with pytest.raises(SeriesError, match="singular linear substitution"):
        word_matrix([Linear(((0.0, 0.0), (0.0, 0.0)))], 2)
    small = word_matrix([Linear(((1e-13, 0.0), (0.0, 1e-13)))], 2)
    assert np.allclose(small, np.diag([1e-13, 1e-13, 1e13, 1e13]), rtol=1e-12, atol=0)


def test_factor_sp_of_large_shears():
    rng = random.Random(12)

    def shear_entries():
        a = np.array([[rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) * 1e8
                       for _ in range(2)] for _ in range(2)])
        return tuple(map(tuple, (a + a.T) / 2))

    for _ in range(50):
        while True:
            B = np.array([[rng.uniform(-1.5, 1.5) for _ in range(2)] for _ in range(2)])
            if np.linalg.cond(B) < 8:
                break
        word = [Shear(shear_entries()), Fourier(None), Linear(tuple(map(tuple, B))),
                Shear(shear_entries())]
        M = word_matrix(word, 2)
        back = word_matrix(factor_sp(M), 2)
        assert np.max(np.abs(back - M)) <= 1e-9 * np.max(np.abs(M))


def test_shear_matrix_reads_its_entries_as_a_checked_matrix():
    with pytest.raises(SeriesError, match="2x2 matrix, got 1"):
        word_matrix([Shear(((1.0,),))], 2)


def test_complex_or_non_numeric_entries_are_series_errors():
    jet = basic_jet(n=2, cap=4)
    for act in (act_shear, act_gl):
        with pytest.raises(SeriesError, match="real matrix, got complex entries"):
            act([[1j, 0], [0, 1]], jet)
        with pytest.raises(SeriesError, match="real matrix, got complex entries"):
            act(np.array([[1.0, 0.5j], [0.5j, 1.0]]), jet)
        with pytest.raises(SeriesError, match="numeric matrix"):
            act([["a", 0], [0, 1]], jet)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fourier_twice_is_the_parity_up_to_the_centre(n):
    # F^2 f(u) = f(-u) = act_gl(-I); the central factor comes out 1
    rng = random.Random(40 + n)
    jet = rand_weil_jet(n, 6, rng)
    ctx = jet.ctx
    amp = (jet.amplitude + ctx.monomial({"u1": 1}, 0.7 - 0.1j)
           + ctx.monomial({f"u{n}": 3, "h": -1}, 0.4 - 0.2j)
           + ctx.monomial({"u1": 2, "h": -1}, 0.3j))
    jet = GaussianJet(jet.mode, jet.T, amp, jet.scalar)
    parity = act_gl(-np.eye(n), jet)
    assert not parity.is_close(jet)  # the odd terms change sign
    ok, lam, resid = jets_equal_mod_center(act_fourier(None, act_fourier(None, jet)),
                                           parity, 1e-12)
    assert ok and lam == 1, (lam, resid)


def test_jets_equal_mod_center_on_differing_T_and_zero_amplitudes():
    rng = random.Random(27)
    jet = rand_weil_jet(2, 6, rng)
    zero = GaussianJet(jet.mode, jet.T, jet.ctx.zero())
    shifted = GaussianJet(jet.mode, jet.T + 1e-6, jet.amplitude)
    assert jets_equal_mod_center(jet, shifted) == (False, None, float("inf"))
    assert jets_equal_mod_center(zero, zero) == (True, 1.0, 0.0)
    assert jets_equal_mod_center(zero, GaussianJet(jet.mode, jet.T, jet.amplitude,
                                                   OscillatoryScalar(None, cap=6)))[0] is True
    for a, b in ((zero, jet), (jet, zero)):
        assert jets_equal_mod_center(a, b) == (False, None, float("inf"))
    # the scalar's power of i reaches the comparison through the flattened amplitude
    turned = act_central(1, jet)
    assert not turned.is_close(jet) and act_central(4, jet).is_close(jet)
    assert turned.flattened()[1].distance(jet.flattened()[1] * 1j) <= 1e-15
    ok, lam, _ = jets_equal_mod_center(turned, jet)
    assert ok and lam == 1j


def test_every_matrix_handed_in_is_read_by_the_one_reader():
    jet = basic_jet(n=2, cap=4)
    nan, inf = float("nan"), float("inf")
    not_finite = "has entries that are not finite"
    for call, message in [
            (lambda: act_gl([[nan, 0.0], [0.0, 1.0]], jet), f"act_gl: B {not_finite}"),
            (lambda: Linear(((nan, 0.0), (0.0, 1.0))).matrix(2), f"Linear.matrix: B {not_finite}"),
            (lambda: Linear(((inf,),)).matrix(1), f"Linear.matrix: B {not_finite}"),
            (lambda: act_shear([[inf, 0.0], [0.0, 1.0]], jet), f"act_shear: A {not_finite}"),
            (lambda: GaussianJet("weil0", [[nan]], jet_context(1, 4).one()),
             f"GaussianJet: T {not_finite}"),
            # a non-symmetric shear has no Sp matrix, in word_matrix as in act_word
            (lambda: word_matrix([Shear(((1, 2), (0, 1)))], 2),
             "Shear.matrix: A is not symmetric"),
            (lambda: act_word([Shear(((1, 2), (0, 1)))], jet), "act_shear: A is not symmetric"),
            (lambda: factor_sp(np.eye(3)), "factor_sp: M of order 3 is not of even order"),
            (lambda: factor_sp([[1.0, 2.0]]), r"factor_sp: M of shape \(1, 2\) is not square"),
            (lambda: factor_sp([[1j, 0], [0, 1]]), "factor_sp: M: expected a real matrix"),
            (lambda: factor_sp([["a"]]), "factor_sp: M is not a numeric matrix"),
            (lambda: act_gl(np.eye(4).reshape(16), jet),
             "act_gl: B: expected a 2x2 matrix, got 16")]:
        with pytest.raises(SeriesError, match=f"^{message}"):
            call()
    # a list is read as the array it holds, with the same word
    M = word_matrix([Shear(((0.5, 0.2), (0.2, 1.0))), Fourier(None)], 2)
    assert factor_sp(M.tolist()) == factor_sp(M)


def test_weil_input_errors_are_typed():
    jet = basic_jet(n=2, cap=4)
    ctx = jet.ctx
    not_symplectic = word_matrix([Fourier(None)], 2)
    not_symplectic[:2, :2] = [[1.0, 2.0], [0.0, 1.0]]  # P R^-1 is not symmetric
    # Im T is positive definite, yet T is singular against its largest entry
    thin = GaussianJet("weil", np.diag([1e10 + 1j, 1e-3j]), ctx.one())
    for call, message in [
            (lambda: GaussianJet("weyl", np.zeros((2, 2)), ctx.one()), "mode must be"),
            (lambda: GaussianJet("weil", np.diag([1j, -1j]), ctx.one()),
             "Im T positive definite"),
            (lambda: Fourier(("u1",)).matrix(2), "partial Fourier has no single Sp matrix"),
            (lambda: act_fourier(None, thin), "degenerate Hessian"),
            (lambda: act_gl([[1.0, 2.0], [2.0, 4.0]], jet),
             "act_gl: singular linear substitution"),
            (lambda: act_word([Central(1), "shear"], jet), "unknown generator 'shear'"),
            (lambda: factor_sp(not_symplectic), "factor_sp: M is not symplectic")]:
        with pytest.raises(SeriesError, match=message):
            call()


def test_factor_sp_rejects_a_matrix_that_is_not_symplectic():
    I = np.eye(2)
    # P R^-1 and R^-1 S are symmetric here: only M^t J M = J tells
    fake = np.block([[I, 5 * I], [I, I]])
    good = word_matrix([Shear(((0.5, 0.2), (0.2, 1.0))), Fourier(None),
                        Linear(((1.0, 0.5), (0.0, 2.0)))], 2)
    nudged = good.copy()
    nudged[0, 1] += 1e-6
    for M in (fake, nudged):
        with pytest.raises(SeriesError, match=r"^factor_sp: M is not symplectic: \|M\^t J M - J\|"):
            factor_sp(M)
    assert np.allclose(word_matrix(factor_sp(good), 2), good, atol=1e-12)


# --- the closed-form Fourier step against the fiber engine -----------------------


def fourier_by_engine(variables, jet):
    """The Fourier step by the fiber engine: the phase T u^2/2 integrated over
    the block by ``stationary_phase``, and T read back from the reduced phase."""
    uvars = jet.vars()
    block = list(uvars if variables is None else variables)
    try:
        reduced, pref, out = stationary_phase(quadratic_series(jet.ctx, jet.T, uvars),
                                              jet.amplitude, block)
    except DegenerateHessianError:
        if jet.mode == "weil0":
            raise UndefinedWeilActionError("degenerate Fourier block") from None
        raise
    return GaussianJet(jet.mode, hessian_matrix(reduced, uvars), out, jet.scalar * pref)


def every_block(n):
    """None (the full block), then every ordered selection of the variables,
    the empty one included: partial, non-contiguous and reordered blocks."""
    names = [f"u{i + 1}" for i in range(n)]
    return [None] + [p for m in range(n + 1) for p in itertools.permutations(names, m)]


def rand_jet(n, mode, rng, cap=6):
    """A jet whose amplitude has terms in h^-1 and whose scalar is not 1."""
    ctx = jet_context(n, cap)
    R = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
    T = R + R.T
    if mode == "weil":
        L = np.array([[rng.uniform(-0.6, 0.6) for _ in range(n)] for _ in range(n)])
        T = T + 1j * (L @ L.T + 0.3 * np.eye(n))
    amp = ctx.one()
    for _ in range(4):
        exp = {f"u{rng.randint(1, n)}": rng.randint(1, 3), HBAR: rng.choice([-1, 0, 1])}
        amp = amp + ctx.monomial(exp, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    rng.randint(-3, 3)  # drew a phase exponent once; drawn still, the seeded cases stay
    scalar = OscillatoryScalar({-1: complex(rng.uniform(-1, 1), 0.5), 0: 1.0},
                               rng.randint(0, 3), cap=cap)
    return GaussianJet(mode, T, amp, scalar)


def degenerate_block(jet, block, rng):
    """The jet with its block of T made singular: rank one in mode weil0, and in
    mode weil singular against its largest entry while Im T stays positive."""
    m, uvars = len(block), jet.vars()
    b = [uvars.index(v) for v in block]
    if jet.mode == "weil0":
        v = np.array([rng.uniform(-1, 1) for _ in range(m)])
        A = np.outer(v, v) if m > 1 else np.zeros((1, 1))
    else:  # with real couplings Im T is block diagonal
        Q = np.linalg.qr(np.array([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(m)]))[0]
        A = Q @ np.diag([1e10 + 1j] + [1e-3j] * (m - 1)) @ Q.T
    T = jet.T.copy()
    r = [i for i in range(jet.n) if i not in b]
    T[np.ix_(b, r)] = T[np.ix_(b, r)].real
    T[np.ix_(r, b)] = T[np.ix_(r, b)].real
    T[np.ix_(b, b)] = A
    return GaussianJet(jet.mode, (T + T.T) / 2, jet.amplitude, jet.scalar)


def fourier_outcome(route, block, jet):
    try:
        return route(block, jet)
    except SeriesError as exc:
        return type(exc)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_act_fourier_equals_the_engine_route(n):
    # T, the flattened amplitude and the error type agree; the tolerance is
    # fixed from cond(A) and the largest coefficient before either route runs
    rng = random.Random(260 + n)
    cases = 0
    for mode in ("weil", "weil0"):
        for block in every_block(n):
            names = [f"u{i + 1}" for i in range(n)] if block is None else block
            jets = [rand_jet(n, mode, rng) for _ in range(4)]
            # a singular block in weil needs two variables: one entry is never singular
            if len(names) > (mode == "weil"):
                jets.append(degenerate_block(rand_jet(n, mode, rng), names, rng))
            for jet in jets:
                b = [jet.vars().index(v) for v in names]
                A = jet.T[np.ix_(b, b)]
                cond = np.linalg.cond(A) if b else 1.0
                scale = max(1.0, jet.flattened()[1].max_abs(), np.abs(jet.T).max())
                # A^-1 enters the amplitude's size and its own rounding: cond^2
                tol = 1e-14 * cond ** 2 * scale ** 2
                got, want = (fourier_outcome(route, block, jet)
                             for route in (act_fourier, fourier_by_engine))
                cases += 1
                if isinstance(want, type):
                    assert got is want, (mode, block, got, want)
                    continue
                assert not isinstance(got, type), (mode, block, got)
                (T1, a1), (T2, a2) = got.flattened(), want.flattened()
                assert np.abs(T1 - T2).max(initial=0) <= tol, (mode, block)
                assert a1.distance(a2) <= tol, (mode, block, a1.distance(a2), tol)
    assert cases == {1: 26, 2: 56, 3: 165}[n]


def test_generator_jets_pass_the_public_checks():
    # generators build their jets unchecked; every jet a word passes through
    # is one the validating constructor accepts as it stands
    rng = random.Random(2601)
    for n, mode in itertools.product((1, 2, 3), ("weil", "weil0")):
        names = [f"u{i + 1}" for i in range(n)]
        for _ in range(6):
            jet = rand_jet(n, mode, rng)
            for _ in range(8):
                r = rng.random()
                if r < 0.25:
                    A = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
                    g = Shear(tuple(map(tuple, A + A.T)))
                elif r < 0.5:
                    B = np.eye(n) + np.array([[rng.uniform(-0.4, 0.4) for _ in range(n)]
                                              for _ in range(n)])
                    g = Linear(tuple(map(tuple, B)))
                elif r < 0.65:
                    g = Fourier(None)
                elif r < 0.9:
                    g = Fourier(tuple(rng.sample(names, rng.randint(1, n))))
                else:
                    g = Central(rng.randint(1, 3))
                try:
                    out = act_generator(g, jet)
                except UndefinedWeilActionError:
                    assert mode == "weil0"
                    continue
                checked = GaussianJet(out.mode, out.T, out.amplitude, out.scalar)
                assert np.array_equal(checked.T, out.T) and checked.n == out.n
                assert checked.ctx == out.ctx and out.mode == mode
                jet = out


def test_fourier_blocks_naming_h_or_a_variable_twice_are_series_errors():
    for block, message in [
            (["u1", "h"], "act_fourier: the block names h, not a position variable"),
            (["u2", "u2"], r"act_fourier: the block \['u2', 'u2'\] names a variable twice")]:
        for mode, T in (("weil0", np.eye(2)), ("weil", 1j * np.eye(2))):
            with pytest.raises(SeriesError, match=f"^{message}$"):
                act_fourier(block, basic_jet(n=2, T=T, mode=mode))


def test_fourier_of_a_degenerate_partial_block():
    # the block (u1, u2) of T is singular while T itself is not
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    T = np.block([[A, np.array([[0.5], [0.0]])], [np.array([[0.5, 0.0, 3.0]])]])
    assert abs(np.linalg.det(T)) > 0.1
    with pytest.raises(UndefinedWeilActionError):
        act_fourier(["u1", "u2"], basic_jet(n=3, T=T))
    # Im T positive definite, yet the block is singular against its largest entry
    thin = np.diag([1e10 + 1j, 1e-3j, 1j])
    with pytest.raises(DegenerateHessianError):
        act_fourier(["u2", "u1"], basic_jet(n=3, T=thin, mode="weil"))
    # the rest of either T alone is a regular block
    assert act_fourier(["u3"], basic_jet(n=3, T=thin, mode="weil")).T[2, 2] == 1j
