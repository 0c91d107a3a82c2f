import itertools
import math

import numpy as np
import pytest

from hibarrier import fields as fl
from hibarrier import geometry as geo
from hibarrier import simulate as sim
from hibarrier.config import system_from_dict
from hibarrier.catalog import example_bundle


def disk(r=1.0):
    return geo.SetDescription(2, geo.Leaf(fl.ScalarField(
        2, lambda x: float(x @ x) - r * r, grad=lambda x: 2.0 * x, name="disk")))


# ---------------------------------------------------------------------------
# gradient


def test_gradient_bouncing_barrier():
    # d/dx [2*g*x1 + (x2-1)(x2+1)] = (2g, 2*x2); at (0,1) with g=1 -> (2, 2)
    f = fl.ScalarField(2, lambda x: 2 * x[0] + (x[1] - 1) * (x[1] + 1))
    assert fl.gradient(f, [0.0, 1.0]) == pytest.approx([2.0, 2.0], abs=1e-8)


def test_gradient_linear():
    f = fl.ScalarField(2, lambda x: float(x[1]), grad=lambda x: np.array([0.0, 1.0]))
    assert fl.gradient(f, [3.0, -7.0]) == pytest.approx([0.0, 1.0], abs=0)


def test_gradient_quadratic_at_zero():
    f = fl.ScalarField(2, lambda x: float(x @ x))
    assert fl.gradient(f, [0.0, 0.0]) == pytest.approx([0.0, 0.0], abs=1e-9)


def test_gradient_nonfinite_raises():
    f = fl.ScalarField(1, lambda x: float("nan"), name="bad")
    with pytest.raises(fl.EvaluationError) as err:
        fl.gradient(f, [1.0])
    assert err.value.x == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# Clarke support sampling


def test_clarke_abs_at_kink():
    # Clarke gradient of |x1| at 0 is [-1, 1]; support along (1, 0) is 1
    f = fl.ScalarField(2, lambda x: abs(float(x[0])), tag=fl.LIPSCHITZ)
    s = fl.clarke_support(f, [0.0, 0.0], [1.0, 0.0], seed=3)
    assert s == pytest.approx(1.0, abs=1e-3)


def test_clarke_smooth_matches_gradient():
    f = fl.ScalarField(2, lambda x: float(x[0] ** 2 + 3 * x[1]), tag=fl.LIPSCHITZ)
    x, v = np.array([0.4, -0.2]), np.array([1.0, 2.0])
    s = fl.clarke_support(f, x, v, radius=1e-4, seed=5)
    exact = float(np.array([2 * x[0], 3.0]) @ v)
    assert abs(s - exact) <= 10 * 1e-4


def test_clarke_max_hull():
    # Clarke set of max(x1, x2) at the diagonal is the hull of {e1, e2};
    # support along (1, 1) is 1
    f = fl.ScalarField(2, lambda x: max(float(x[0]), float(x[1])), tag=fl.LIPSCHITZ)
    s = fl.clarke_support(f, [0.0, 0.0], [1.0, 1.0], seed=11)
    assert s == pytest.approx(1.0, abs=1e-3)


def test_clarke_deterministic():
    f = fl.ScalarField(2, lambda x: abs(float(x[0])) + float(x[1]), tag=fl.LIPSCHITZ)
    a = fl.clarke_support(f, [0.0, 0.5], [1.0, 0.0], seed=9)
    b = fl.clarke_support(f, [0.0, 0.5], [1.0, 0.0], seed=9)
    assert a == b


def test_clarke_vs_gradient_random_cubics():
    # random polynomials of degree <= 3: |support - <grad, v>| <= c*radius, c <= 10
    rng = np.random.default_rng(17)
    radius = 1e-4
    for _ in range(20):
        coeffs = {(i, j): rng.uniform(-0.5, 0.5)
                  for i in range(4) for j in range(4) if i + j <= 3}

        def f(x, c=coeffs):
            return sum(v * x[0] ** i * x[1] ** j for (i, j), v in c.items())

        def grad(x, c=coeffs):
            gx = sum(v * i * x[0] ** (i - 1) * x[1] ** j
                     for (i, j), v in c.items() if i > 0)
            gy = sum(v * j * x[0] ** i * x[1] ** (j - 1)
                     for (i, j), v in c.items() if j > 0)
            return np.array([gx, gy])

        field = fl.ScalarField(2, f, tag=fl.LIPSCHITZ)
        x = rng.uniform(-1, 1, size=2)
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        s = fl.clarke_support(field, x, v, radius=radius, seed=23)
        assert abs(s - float(grad(x) @ v)) <= 10 * radius


def test_scalarization_support_single_active():
    # max_i B_i with one component active by a wide margin behaves like that
    # component's gradient
    b1 = lambda x: float(x[1]) - 1.5
    b2 = lambda x: 0.5 - float(x[1])
    bar = fl.ScalarField(2, lambda x: max(b1(x), b2(x)), tag=fl.LIPSCHITZ)
    x = np.array([0.3, 1.49])  # b1 = -0.01, b2 = -0.99: b1 active by margin
    v = np.array([0.0, 1.0])
    s = fl.clarke_support(bar, x, v, radius=1e-4, seed=29)
    assert abs(s - 1.0) <= 10 * 1e-4  # grad b1 = (0, 1)


@pytest.mark.parametrize("exprs", [["x1 - 1", "sqrt(x1)"], ["sqrt(x1)", "x1 - 1"]])
def test_scalarized_max_propagates_nan(exprs):
    # a nan component makes max_i B_i nan in either order, as bar_value has it
    B = system_from_dict({"name": "nan", "dim": 1, "C": "x1", "D": "-x1", "F": ["1"],
                          "G": ["x1"], "barrier": exprs, "box": [[-1, 1]]}).barrier
    bar = B.scalarized()
    x = np.array([-0.5])
    assert math.isnan(bar.fn(x)) and math.isnan(B.bar_value(x))
    assert bar.fn(np.array([4.0])) == B.bar_value(np.array([4.0])) == 3.0
    # every Clarke sample near x is nan, so none is kept
    with pytest.raises(fl.EvaluationError, match="no finite Clarke"):
        fl.clarke_support(bar, x, np.array([1.0]), seed=0)


# ---------------------------------------------------------------------------
# set-valued maps


def exp1_flow():
    def fn(x, lam):
        c = 2.0 + 2.0 * float(lam[0])
        return np.array([-x[1] ** 2, x[1] * x[0] - x[1] * (c - float(x @ x))])

    return fl.SetValuedMap(2, 1, fn, name="F_exp1")


def test_image_samples_exp1_vertices():
    # F((0,1)) at lambda in {0,1}: (-1, -1) and (-1, -3)
    got = fl.image_samples(exp1_flow(), [0.0, 1.0], fl.Vertices())
    got = sorted(tuple(np.round(g, 12)) for g in got)
    assert got == [(-1.0, -3.0), (-1.0, -1.0)]


def test_image_samples_single_valued():
    F = fl.SetValuedMap(2, 0, lambda x, lam: np.array([x[1], -1.0]))
    got = fl.image_samples(F, [0.5, 2.0], fl.Vertices())
    assert len(got) == 1
    assert got[0] == pytest.approx([2.0, -1.0])


def test_image_samples_bouncing_jump():
    lam_rest = 0.5
    G = fl.SetValuedMap(2, 0, lambda x, lam: np.array([0.0, -lam_rest * x[1]]))
    got = fl.image_samples(G, [0.0, -1.0], fl.Grid(3))
    assert len(got) == 1
    assert got[0] == pytest.approx([0.0, 0.5])


def test_image_samples_grid_determinism():
    F = exp1_flow()
    grid = fl.image_samples(F, [0.2, 0.7], fl.Grid(5))
    assert len(grid) == 5
    again = fl.image_samples(F, [0.2, 0.7], fl.Grid(5))
    assert all(np.array_equal(p, q) for p, q in zip(grid, again))


@pytest.mark.parametrize("k, d", [(0, 5), (1, 2), (1, 9), (2, 3), (3, 5), (2, 64), (12, 2)])
def test_grid_is_the_shared_product_of_linspace(k, d):
    rows = fl.grid(k, d)
    want = list(itertools.product(np.linspace(0.0, 1.0, d), repeat=k))
    assert len(rows) == len(want) == d ** k
    for lam, p in zip(rows, want):
        assert lam.dtype == float and lam.shape == (k,)
        assert lam.tolist() == list(p)
        assert not lam.flags.writeable
    assert fl.grid(k, d) is rows
    # image samples and the adversarial selection policy step through it
    seen = []
    F = fl.SetValuedMap(2, k, lambda x, lam: seen.append(lam) or np.zeros(2))
    fl.image_samples(F, [0.0, 0.0], fl.Grid(d))
    assert len(seen) == len(rows) and all(a is b for a, b in zip(seen, rows))
    if k:
        rng = np.random.default_rng(0)
        assert sim._lambda_candidates(k, sim.AdversarialGrid(d), rng) is rows


def test_vertices_are_the_grid_of_two():
    seen = []
    F = fl.SetValuedMap(2, 3, lambda x, lam: seen.append(lam) or np.zeros(2))
    fl.image_samples(F, [0.0, 0.0], fl.Vertices())
    assert len(seen) == 8 and all(a is b for a, b in zip(seen, fl.grid(3, 2)))


@pytest.mark.parametrize("k, d", [(13, 2), (6, 5), (1, 4097), (10 ** 9, 2), (1, 10 ** 18)])
def test_grid_budget(k, d):
    # refused before anything is built, however large the grid
    with pytest.raises(fl.BudgetError, match="budget"):
        fl.grid(k, d)


def test_vertices_budget_error():
    F = fl.SetValuedMap(2, 13, lambda x, lam: np.zeros(2))
    with pytest.raises(fl.BudgetError):
        fl.image_samples(F, [0.0, 0.0], fl.Vertices())


# ---------------------------------------------------------------------------
# cone filtering


def test_filter_interior_keeps_everything():
    S = disk()
    etas = [np.array([1.0, 0.0]), np.array([0.0, -2.0])]
    kept = fl.filter_by_cone(etas, S, [0.1, 0.1])
    assert len(kept) == 2


def test_filter_empty_input():
    assert fl.filter_by_cone([], disk(), [0.0, 0.0]) == []


def test_filter_thermostat_boundary():
    # on dC_0 = {q=0, z = z_min} upward z-directions stay, downward leave
    b = example_bundle("thermostat")
    x = np.array([0.0, 0.5])  # (q, z) = (0, z_min)
    up = np.array([0.0, 1.0])
    down = np.array([0.0, -1.0])
    kept = fl.filter_by_cone([up, down], b.system.C, x)
    assert any(np.array_equal(k, up) for k in kept)
    assert not any(np.array_equal(k, down) for k in kept)


def test_fd_matches_analytic_gradients_on_catalog():
    # every C1 field with an analytic gradient agrees with central differences
    rng = np.random.default_rng(41)
    checked = 0
    for name in ("thermostat", "exprj", "exp1", "expCsets", "bouncing-ball"):
        b = example_bundle(name)
        fieldset = list(b.barrier.components)
        fieldset += [leaf.constraint for leaf in b.system.C.leaves()]
        for f in fieldset:
            if f.grad is None or f.tag != fl.C1:
                continue
            bare = fl.ScalarField(f.n, f.fn, grad=None, tag=f.tag)
            for _ in range(5):
                x = rng.uniform(-1.5, 1.5, size=f.n)
                g = fl.gradient(f, x)
                fd = fl.gradient(bare, x)
                assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))
                checked += 1
    assert checked >= 100


def test_clarke_all_nonfinite_raises():
    f = fl.ScalarField(1, lambda x: float("nan"), tag=fl.LIPSCHITZ, name="nanfield")
    with pytest.raises(fl.EvaluationError):
        fl.clarke_support(f, [0.0], [1.0], count=8, seed=0)


@pytest.mark.parametrize("text", ["x1^2 + x2^2 - 1", "x1 - x2", "-x1*x2 + 3",
                                  "max(x1, x2) - 1"])
def test_negated_name_parses_back_to_minus_f(text):
    from hibarrier.config import _field_from_expr

    f = _field_from_expr(text, 2, {}, "test")
    g = fl.negated(f)
    assert g.name == f"-({text})"
    back = _field_from_expr(g.name, 2, {}, "test")
    X = np.random.default_rng(4).uniform(-2.0, 2.0, size=(50, 2))
    for x in X:
        assert back.fn(x) == -f.fn(x) == g.fn(x)
    assert g.value_rows(X).tobytes() == back.value_rows(X).tobytes()
    if f.grad is not None:
        assert g.grad_rows(X).tobytes() == back.grad_rows(X).tobytes()
