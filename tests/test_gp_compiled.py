"""The compiled GP library against the Python code it ports.

``regression._compiled_lml()`` builds ``gp/_lml.c`` through
``repro._native`` at the first hyperparameter fit and binds SciPy's
``dpotrf``/``dpotrs``/``ddot`` into it; ``_make_analytic_objective`` is its
spec, its self-check oracle and its fallback.  Its ``lml_step`` is the
L-BFGS-B loop's objective, with a repeat cache in the fit's workspace, and
its ``pcg64_uniform`` draws a fit's random start as NumPy's generator
does.  ``regression.
_compiled_scorer()`` binds the same library's candidate scorer and SciPy's
``ndtr``; ``_predict_spec`` plus ``expected_improvement`` is its spec.
These tests pin that each half agrees with its spec bit for bit, that it
engages where a compiler exists, and that every way it can be unavailable
leaves fits and proposals bit-identical on the Python code.
"""

import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.core.search_space import SearchSpace
from repro.gp import regression
from repro.gp.acquisition import expected_improvement
from repro.gp.kernels import Matern52, take_prepared
from repro.gp.proposals import AcquisitionContext, SequentialEI, _candidate_argmax
from repro.gp.regression import GaussianProcessRegressor

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")


@pytest.fixture
def fresh_scorer():
    """As ``fresh_lml``, for the candidate scorer."""
    regression._compiled_scorer.cache_clear()
    yield
    regression._compiled_scorer.cache_clear()


@pytest.fixture
def fresh_lml():
    """A cleared loader cache, cleared again afterwards so later tests
    reload the real library instead of a patched outcome."""
    regression._compiled_lml.cache_clear()
    yield
    regression._compiled_lml.cache_clear()


def rounded_gp(seed: int, n: int, d: int, noise: float = 1e-5):
    """A GP on ``n`` inputs of a ``d``-dimensional integer lattice, with the
    rounding kernel, as the search fits it (training data set, no fit)."""
    rng = np.random.default_rng(seed)
    bounds = rng.integers(2, 12, size=d)
    X = rng.integers(0, bounds + 1, size=(n, d)) / bounds
    y = np.sin(4.0 * X @ rng.normal(size=d)) + 0.05 * rng.normal(size=n)
    gp = GaussianProcessRegressor(
        Matern52(0.3, 1.0, scale=bounds.astype(float)), noise=noise, seed=seed
    )
    gp._set_training_data(X, y)
    return gp


def fit_outcome(X, y, noise=1e-5, seed=4):
    """Fitted theta, alpha and the posterior on a fixed grid, as bytes."""
    gp = GaussianProcessRegressor(Matern52(0.3, 1.0), noise=noise, seed=seed)
    gp.fit(X, y)
    grid = np.random.default_rng(2).uniform(0.0, 1.0, size=(30, X.shape[1]))
    mean, std = gp.predict(grid, return_std=True)
    return [a.tobytes() for a in (gp.kernel.get_theta(), gp._alpha, mean, std)]


X_FIT = np.random.default_rng(1).integers(0, 6, size=(14, 2)) / 5.0
Y_FIT = np.sin(3.0 * X_FIT[:, 0]) + X_FIT[:, 1]
# Every point four times under a noise that does not register on the
# diagonal: K + noise I is singular, so dpotrf fails at every theta.
X_DUP = np.repeat(np.linspace(0.0, 1.0, 3)[:, None], 4, axis=0)
Y_DUP = np.sin(3.0 * X_DUP[:, 0]) + np.arange(12.0) * 1e-3


@needs_cc
def test_compiled_objective_engages_where_a_compiler_exists():
    assert regression._compiled_lml() is not None
    regression._checked_setulb()  # its own self-check runs the Python objective

    def boom(self):  # pragma: no cover - must not run
        raise AssertionError("the Python objective ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GaussianProcessRegressor, "_make_analytic_objective", boom)
        fit_outcome(X_FIT, Y_FIT)


@needs_cc
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    noise=st.sampled_from([1e-5, 1e-8, 1e-300]),
    unit_thetas=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_compiled_objective_equals_the_python_objective(
    seed, n, d, noise, unit_thetas
):
    gp = rounded_gp(seed, n, d, noise)
    lows, highs = np.array(gp.kernel.theta_bounds()).T
    spec = gp._make_analytic_objective()
    ours = gp._make_compiled_objective(regression._compiled_lml())
    g_ours = np.empty(2)
    for unit in unit_thetas:
        theta = lows + np.array(unit) * (highs - lows)
        f_spec, g_spec = spec(theta)
        for _ in range(2):  # evaluated, then answered from the cache
            f_ours = ours(theta, g_ours)
            assert type(f_ours) is type(f_spec)
            assert np.float64(f_ours).tobytes() == np.float64(f_spec).tobytes()
            assert g_ours.tobytes() == g_spec.tobytes()
        # The factor a fit takes from the compiled objective is
        # _factorize_raw's, wherever dpotrf succeeds without jitter.
        L = ours.factor(theta)
        gp.kernel.set_theta(theta)
        K = gp._train_kernel(gp._train_state)
        K[np.diag_indices_from(K)] += gp.noise
        _, info = regression._POTRF(K, lower=1)
        assert (L is None) == (info != 0)
        if L is not None:
            gp._factorize_raw()
            assert L.tobytes() == gp._L.tobytes()
            assert L.flags.f_contiguous and gp._L.flags.f_contiguous


def test_self_check_covers_a_failed_factorization():
    """The last self-check problem is singular at every checked theta, so
    it sends the compiled objective down the jitter path; the others
    factor."""
    problems = list(regression._self_check_problems())
    assert [gp.n_train for gp in problems] == [3, 10, 40, 10]
    for k, gp in enumerate(problems):
        lows, highs = np.array(gp.kernel.theta_bounds()).T
        for theta in (gp.kernel.get_theta(), lows, highs):
            gp.kernel.set_theta(theta)
            K = gp.kernel.eval_state(gp._train_state)
            K[np.diag_indices_from(K)] += gp.noise
            _, info = regression._POTRF(K, lower=1)
            assert (info != 0) == (k == 3)


@needs_cc
def test_failed_factorization_fits_bit_identically(monkeypatch):
    """dpotrf fails on every likelihood call of this fit; the compiled
    objective hands each one to the Python objective's jitter path."""
    assert regression._compiled_lml() is not None
    calls = []
    spec = GaussianProcessRegressor._make_analytic_objective

    def counted(self):
        calls.append(1)
        return spec(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GaussianProcessRegressor, "_make_analytic_objective", counted)
        compiled = fit_outcome(X_DUP, Y_DUP, noise=1e-300)
    assert calls, "the fit never took the jitter path"
    monkeypatch.setattr(regression, "_compiled_lml", lambda: None)
    assert fit_outcome(X_DUP, Y_DUP, noise=1e-300) == compiled


@pytest.mark.parametrize("failure", ["build", "no-compiler", "self-check"])
def test_unavailable_compiled_objective_fits_identically(
    failure, fresh_lml, monkeypatch
):
    with monkeypatch.context() as mp:
        mp.setattr(regression, "_compiled_lml", lambda: None)
        expected = fit_outcome(X_FIT, Y_FIT)

    def raise_oserror(package, filename):
        raise OSError("cc: cannot execute")

    if failure == "build":
        monkeypatch.setattr(_native, "build", raise_oserror)
    elif failure == "no-compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(regression, "_compiled_lml_agrees", lambda lml: False)
    assert fit_outcome(X_FIT, Y_FIT) == expected
    assert regression._compiled_lml() is None


@needs_cc
def test_self_check_rejects_a_drifted_objective(fresh_lml, monkeypatch):
    """One ulp off in one gradient entry is a mismatch."""
    make = GaussianProcessRegressor._make_compiled_objective

    def drifted(self, lml):
        step = make(self, lml)

        def wrapped(x, g):
            f = step(x, g)
            g[1] = np.nextafter(g[1], np.inf)
            return f

        wrapped.factor = step.factor
        return wrapped

    monkeypatch.setattr(GaussianProcessRegressor, "_make_compiled_objective", drifted)
    assert regression._compiled_lml() is None


@needs_cc
def test_self_check_rejects_a_drifted_factor(fresh_lml, monkeypatch):
    """One ulp off in one entry of the factor a fit takes is a mismatch."""
    make = GaussianProcessRegressor._make_compiled_objective

    def drifted(self, lml):
        fun = make(self, lml)
        factor = fun.factor

        def drifted_factor(theta):
            L = factor(theta)
            if L is not None:
                L[-1, 0] = np.nextafter(L[-1, 0], np.inf)
            return L

        fun.factor = drifted_factor
        return fun

    monkeypatch.setattr(GaussianProcessRegressor, "_make_compiled_objective", drifted)
    assert regression._compiled_lml() is None


def checked_setulb_gp():
    """The likelihood of ``regression._checked_setulb``'s self-check."""
    gp = GaussianProcessRegressor(Matern52(0.5))
    X = np.linspace(0.0, 1.0, 9)[:, None]
    gp._set_training_data(X, np.sin(4.0 * X).ravel())
    return gp


def bits(x, f):
    """The loop's ``(x, f)`` as bytes."""
    return np.array(x).tobytes(), np.float64(f).tobytes()


@needs_cc
def test_repeated_requests_are_answered_from_the_c_cache():
    """From the start (-1, 4) the self-check's problem re-requests
    evaluated points four times: ``lml_step`` answers each from its cache
    with the evaluation's bits, and the loop ends where it ends on the
    Python objective."""
    setulb = regression._checked_setulb()
    gp = checked_setulb_gp()
    arrays = regression._SetulbArrays(gp.kernel.theta_bounds())
    x0 = np.array([-1.0, 4.0])
    step = gp._make_compiled_objective(regression._compiled_lml())
    answers = []

    def recorded(x, g):
        f = step(x, g)
        answers.append((x.tobytes(), np.float64(f).tobytes(), g.tobytes()))
        return f

    ours = regression._lbfgsb_loop(setulb, recorded, x0, arrays, 100)
    spec = regression._spec_step(gp._make_analytic_objective())
    assert bits(*ours) == bits(*regression._lbfgsb_loop(setulb, spec, x0, arrays, 100))
    # The four requests at the point evaluated last are not evaluated.
    repeats = sum(a[0] == b[0] for a, b in zip(answers, answers[1:]))
    assert repeats == len(answers) - step.buffers[0].evals == 4
    first = {}
    for x, f, g in answers:
        assert first.setdefault(x, (f, g)) == (f, g)


@needs_cc
def test_singular_self_check_problem_takes_the_jitter_path_in_a_fit(monkeypatch):
    """The singular n = 10 problem of the self-check fails ``dpotrf`` at
    every theta: in a full fit every request goes to the Python objective,
    none is answered from the cache, and the fit is the Python
    objective's."""
    singular = list(regression._self_check_problems())[3]
    X, y = singular._X, singular._y_raw
    calls, steps = [], []
    make = GaussianProcessRegressor._make_compiled_objective

    def counted(self, lml):
        step = make(self, lml)
        steps.append(step)

        def wrapped(x, g):
            calls.append(1)
            return step(x, g)

        wrapped.factor, wrapped.buffers = step.factor, step.buffers
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GaussianProcessRegressor, "_make_compiled_objective", counted)
        compiled = fit_outcome(X, y, noise=1e-300)
    (step,) = steps
    # Every request and the factor call evaluated: nothing was cached.
    assert step.buffers[0].evals == len(calls) + 1 > 0
    assert step.buffers[0].seen == 0
    monkeypatch.setattr(regression, "_compiled_lml", lambda: None)
    assert fit_outcome(X, y, noise=1e-300) == compiled


@needs_cc
def test_a_nan_theta_never_hits_the_cache():
    gp = rounded_gp(3, 10, 2)
    step = gp._make_compiled_objective(regression._compiled_lml())
    f_spec, g_spec = gp._make_analytic_objective()(np.array([np.nan, 0.0]))
    g = np.empty(2)
    for k in (1, 2):
        f = step(np.array([np.nan, 0.0]), g)
        assert step.buffers[0].evals == k
        assert np.float64(f).tobytes() == np.float64(f_spec).tobytes()
        assert g.tobytes() == g_spec.tobytes()


@needs_cc
@pytest.mark.parametrize(
    "x, g",
    [
        (np.zeros(3), np.empty(2)),
        (np.zeros(2, dtype=np.float32), np.empty(2)),
        (np.zeros(4)[::2], np.empty(2)),
        (np.zeros(2), np.empty(4)[:2].reshape(1, 2)),
        (np.zeros(2), np.frombuffer(bytes(16))),
    ],
)
def test_compiled_step_refuses_buffers_c_cannot_use(x, g):
    """C reads two contiguous doubles at x and writes two at g."""
    step = rounded_gp(2, 6, 2)._make_compiled_objective(regression._compiled_lml())
    with pytest.raises(ValueError, match="float64 pairs"):
        step(x, g)


@needs_cc
@pytest.mark.parametrize("fault", ["cached-answer", "start-draw"])
def test_a_failing_step_declines_the_compiled_likelihood(
    fault, fresh_lml, monkeypatch
):
    """A cache answer or a start draw one ulp off fails the self-check:
    the whole compiled likelihood declines and fits are the Python
    objective's, bit for bit."""
    with monkeypatch.context() as mp:
        mp.setattr(regression, "_compiled_lml", lambda: None)
        expected = fit_outcome(X_FIT, Y_FIT)
    if fault == "cached-answer":
        make = GaussianProcessRegressor._make_compiled_objective

        def drifted(self, lml):
            step = make(self, lml)
            fit = step.buffers[0]

            def wrapped(x, g):
                evals = fit.evals
                f = step(x, g)
                if fit.evals == evals:  # answered from the cache
                    g[0] = np.nextafter(g[0], np.inf)
                return f

            wrapped.factor, wrapped.buffers = step.factor, step.buffers
            return wrapped

        monkeypatch.setattr(
            GaussianProcessRegressor, "_make_compiled_objective", drifted
        )
    else:
        bind = regression._CompiledLml.__init__

        def drifted(self, lib):
            bind(self, lib)
            uniform = self.uniform
            self.uniform = lambda seed, i: (
                np.nextafter(uniform(seed, i), 1.0) if i == 3 else uniform(seed, i)
            )

        monkeypatch.setattr(regression._CompiledLml, "__init__", drifted)
    assert regression._compiled_lml() is None
    assert fit_outcome(X_FIT, Y_FIT) == expected


@pytest.mark.parametrize("seed", [0, 4, 2**31 - 2, 2**40 + 3, 2**64 + 5])
def test_fits_draw_numpys_stream_in_turn(seed):
    """Each optimizing fit of one regressor draws the next two uniforms of
    ``Generator(PCG64(seed))``: compiled below 2**64, else from NumPy, and
    from NumPy without the compiled likelihood."""
    expected = np.random.Generator(np.random.PCG64(seed)).random(6).tolist()
    lml = regression._compiled_lml()
    gp = GaussianProcessRegressor(Matern52(), seed=seed)
    assert gp._uniforms(lml, 2) + gp._uniforms(None, 2) + gp._uniforms(lml, 2) == (
        expected
    )
    with pytest.raises(ValueError, match="non-negative"):
        GaussianProcessRegressor(Matern52(), seed=-1)


# ---------------------------------------------------------------------------
# The candidate scorer
# ---------------------------------------------------------------------------
#: A paper model's lattice (MT-WND's measured bounds: 719 cells).
PAPER_SPACE = SearchSpace(("g4dn", "c5", "r5n"), (5, 7, 14))


def fitted_lattice_gp(seed: int, n: int, noise: float = 1e-5):
    """A GP fitted as a search fits it, on ``n`` cells of the paper
    lattice (cells repeat once ``n`` exceeds it)."""
    space = PAPER_SPACE
    rng = np.random.default_rng(seed)
    grid = space.grid_unit()
    X = grid[rng.choice(grid.shape[0], n, replace=n > grid.shape[0])]
    y = np.sin(3.0 * X @ rng.normal(size=X.shape[1])) + 0.05 * rng.normal(size=n)
    scale = np.asarray(space.bounds, dtype=float)
    gp = GaussianProcessRegressor(
        Matern52(0.3, 1.0, scale=scale), noise=noise,
        optimize_hyperparameters=n >= 4, seed=seed,
    )
    return gp.fit(X, y), y


def assert_scorer_matches_spec(gp, pi, best: float) -> None:
    mean, std = gp._predict_spec(pi, True)
    ei = expected_improvement(mean, std, best)
    scorer = regression._compiled_scorer()
    got = scorer(gp, pi, True, best)
    for name, a, b in zip(("mean", "std", "ei"), got, (mean, std, ei)):
        assert a.tobytes() == b.tobytes(), name
    assert scorer(gp, pi, False, None)[0].tobytes() == mean.tobytes()
    assert gp.predict_ei(pi, best)[2].tobytes() == ei.tobytes()


@needs_cc
def test_compiled_scorer_engages_where_a_compiler_exists(monkeypatch):
    assert regression._compiled_scorer() is not None
    gp, y = fitted_lattice_gp(0, 10)

    def boom(self, pi, return_std):  # pragma: no cover - must not run
        raise AssertionError("the Python spec ran")

    monkeypatch.setattr(GaussianProcessRegressor, "_predict_spec", boom)
    gp.predict_ei(PAPER_SPACE.grid_unit(), float(y.max()))
    gp.predict(PAPER_SPACE.grid_unit(), return_std=True)


@needs_cc
@pytest.mark.parametrize("n", [1, 3, 10, 40, 120])
def test_compiled_scorer_equals_the_spec(n):
    """One candidate and a full paper lattice, incumbents below, at and
    above the observations (the last gives flat EI: every cell's EI
    underflows or rounds to 0)."""
    gp, y = fitted_lattice_gp(n, n)
    lattice = gp.kernel.precompute_input(PAPER_SPACE.grid_unit())
    single = gp.kernel.precompute_input(PAPER_SPACE.grid_unit()[[17]])
    for best in (float(y.min()), float(y.max()), float(y.max()) + 1e3):
        assert_scorer_matches_spec(gp, lattice, best)
        assert_scorer_matches_spec(gp, single, best)
    _, _, ei = gp.predict_ei(lattice, float(y.max()) + 1e3)
    assert ei.max() == 0.0


@needs_cc
def test_scored_rows_are_the_taken_rows():
    """``rows=`` scores lattice rows in place: the bits of scoring the rows
    taken out, and an index off the lattice is refused, not read."""
    gp, y = fitted_lattice_gp(8, 10)
    lattice = gp.kernel.precompute_input(PAPER_SPACE.grid_unit())
    idx = np.flatnonzero(np.random.default_rng(8).random(719) < 0.15)
    best = float(y.max())
    taken = gp.predict_ei(take_prepared(lattice, idx), best)
    for a, b in zip(gp.predict_ei(lattice, best, rows=idx), taken):
        assert a.tobytes() == b.tobytes()
    for bad in ([0, 719], [-1]):
        with pytest.raises(IndexError):
            gp.predict_ei(lattice, best, rows=np.array(bad))


@needs_cc
def test_compiled_scorer_floors_the_variance_at_observed_cells():
    """Under a noise far below the floor, the posterior variance at a
    sampled cell is below 1e-12, so std is the floor's, the same bits on
    both sides."""
    gp, y = fitted_lattice_gp(5, 6, noise=1e-15)
    pi = gp.kernel.precompute_input(gp.X_train)
    _, std = gp._predict_spec(pi, True)
    assert np.all(std == math.sqrt(1e-12) * gp._y_std)
    assert_scorer_matches_spec(gp, pi, float(y.max()))


@needs_cc
def test_compiled_scorer_keeps_an_exact_tie_set():
    """Rows that round to one cell are one candidate to the kernel: their
    mean, std and EI are equal bits, so the tie-break draws over all of
    them, from the compiled scores as from the spec's."""
    gp, y = fitted_lattice_gp(6, 10)
    bounds = np.asarray(PAPER_SPACE.bounds, dtype=float)
    cell = PAPER_SPACE.grid_unit()[300]
    rows = np.vstack([cell + k * 0.1 / bounds for k in (-1, 0, 1, 0, -1)])
    pi = gp.kernel.precompute_input(np.vstack([rows, PAPER_SPACE.grid_unit()]))
    best = float(y.max())
    assert_scorer_matches_spec(gp, pi, best)
    _, std, ei = gp.predict_ei(pi, best)
    mean_s, std_s = gp._predict_spec(pi, True)
    ei_s = expected_improvement(mean_s, std_s, best)
    assert len(set(ei[:5].tolist())) == 1
    for seed in range(20):
        assert _candidate_argmax(ei, std, np.random.default_rng(seed)) == (
            _candidate_argmax(ei_s, std_s, np.random.default_rng(seed))
        )


@needs_cc
def test_compiled_scorer_serves_fantasy_refreshes():
    """After ``add_observation`` (a C-order bordered factor) the mean-only
    mode still equals the spec."""
    gp, y = fitted_lattice_gp(7, 10)
    for cell in (3, 400, 650):
        gp.add_observation(PAPER_SPACE.grid_unit()[cell], float(y.min()))
        pi = gp.kernel.precompute_input(PAPER_SPACE.grid_unit())
        assert gp.predict(pi).tobytes() == gp._predict_spec(pi, False).tobytes()
        assert_scorer_matches_spec(gp, pi, float(y.max()))


def proposal_sequence(seed: int, q: int) -> list[int]:
    """A search's proposals on the paper lattice, observing a smooth
    objective: the initial design, then ``q``-batches."""
    rng = np.random.default_rng(seed)
    scale = np.asarray(PAPER_SPACE.bounds, dtype=float)
    ctx = AcquisitionContext(
        PAPER_SPACE, rng=rng, make_kernel=lambda: Matern52(0.3, 1.0, scale=scale)
    )
    w = np.array([0.7, -1.3, 0.4])
    picks = []

    def observe(cell):
        picks.append(cell)
        x = PAPER_SPACE.grid_unit()[cell]
        ctx.observe(PAPER_SPACE.counts_at(cell), math.sin(3.0 * float(x @ w)))

    for _ in range(3):
        observe(ctx.random_unsampled())
    while len(picks) < 24:
        for cell in SequentialEI().propose(ctx, q):
            observe(cell)
    return picks


@pytest.mark.parametrize("q", [1, 4])
def test_unavailable_scorer_proposes_identically(q, monkeypatch):
    expected = proposal_sequence(3, q)
    monkeypatch.setattr(regression, "_compiled_scorer", lambda: None)
    assert proposal_sequence(3, q) == expected


@pytest.mark.parametrize("failure", ["no-ndtr", "no-compiler", "self-check"])
def test_scorer_declines_alone(failure, fresh_scorer, fresh_lml, monkeypatch):
    if failure == "no-ndtr":
        monkeypatch.setattr(regression, "_NDTR_SIGNATURE", b"no such signature")
    elif failure == "no-compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(regression, "_compiled_scorer_agrees", lambda s: False)
    assert regression._compiled_scorer() is None
    if HAS_CC and failure != "no-compiler":
        assert regression._compiled_lml() is not None


@needs_cc
def test_self_check_rejects_a_drifted_scorer(fresh_scorer, monkeypatch):
    """One ulp off in one EI entry is a mismatch."""
    call = regression._CompiledScorer.__call__

    def drifted(self, gp, pi, want_std, best):
        mean, std, ei = call(self, gp, pi, want_std, best)
        if ei is not None:
            ei[-1] = np.nextafter(ei[-1], np.inf)
        return mean, std, ei

    monkeypatch.setattr(regression._CompiledScorer, "__call__", drifted)
    assert regression._compiled_scorer() is None
