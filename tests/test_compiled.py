"""Differential tests for the generated evaluators: expressions, gradient and
map vectors, set classifiers and the SLSQP reference's term constraints, each
against the tree walk it replaced."""

import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hibarrier import expr as ex
from hibarrier import fields as fl
from hibarrier import geometry as geo
from hibarrier.catalog import EXAMPLE_IDS, example_bundle
from hibarrier.config import system_from_dict

# ---------------------------------------------------------------------------
# expressions


def walk(ast, x, p):
    """Reference evaluator: the recursive tree walk the compiler replaced."""
    if isinstance(ast, (ex.Lit, ex.Const)):
        return ast.value
    if isinstance(ast, ex.Var):
        return float(x[ast.index])
    if isinstance(ast, ex.Param):
        return float(p[ast.index])
    if isinstance(ast, ex.Un):
        return ex._UNARY_FNS[ast.op](walk(ast.arg, x, p))
    return ex._BINARY_FNS[ast.op](walk(ast.left, x, p), walk(ast.right, x, p))


def same(a, b):
    """Bit-level agreement up to NaN payload: NaN matches NaN, and the signs of
    zeros and infinities must match."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 708.9, 709.0, 710.0, 1e-308,
            1e308, -1e308, math.inf, -math.inf, math.nan]
floats = st.sampled_from(_SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)

_atoms = st.one_of(
    floats.map(ex.Lit),
    st.integers(0, 2).map(ex.Var),
    st.integers(0, 1).map(ex.Param),
    st.builds(ex.Const, st.just("k"), floats),
)


def _extend(kids):
    return st.one_of(
        st.builds(ex.Un, st.sampled_from(sorted(ex._UNARY_FNS)), kids),
        st.builds(ex.Bin, st.sampled_from(sorted(ex._BINARY_FNS)), kids, kids),
        # repeated subtrees, so shared nodes are exercised
        st.builds(lambda op, a: ex.Bin(op, a, a), st.sampled_from(sorted(ex._BINARY_FNS)),
                  kids),
    )


asts = st.recursive(_atoms, _extend, max_leaves=24)
points = st.lists(floats, min_size=3, max_size=3)
params = st.lists(floats, min_size=2, max_size=2)


@settings(max_examples=400, deadline=None)
@given(asts, points, params)
def test_compiled_scalar_matches_tree_walk(ast, x, p):
    f = ex.compile_ast(ast)
    assert same(f(x, p), walk(ast, x, p))
    assert same(f(np.array(x), np.array(p)), walk(ast, x, p))


def test_signed_zero_literals_stay_apart():
    # Lit(0.0) == Lit(-0.0) as dataclasses, but x + 0.0 and x + -0.0 differ at
    # x = -0.0, so the two sums must not be merged into one value
    x = ex.Var(0)
    ast = ex.Bin("min", ex.Bin("+", x, ex.Lit(0.0)), ex.Bin("+", x, ex.Lit(-0.0)))
    other = ex.Bin("min", ex.Bin("+", x, ex.Lit(-0.0)), ex.Bin("+", x, ex.Lit(0.0)))
    for a in (ast, other):
        assert same(ex.compile_ast(a)([-0.0], ()), walk(a, [-0.0], ()))
    f = ex.compile_vector([ex.Bin("+", x, ex.Lit(0.0)), ex.Bin("+", x, ex.Lit(-0.0))])
    got = f([-0.0])
    assert math.copysign(1.0, got[0]) == 1.0 and math.copysign(1.0, got[1]) == -1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(asts, min_size=1, max_size=4), points, params)
def test_vector_matches_components(components, x, p):
    got = ex.compile_vector(components)(np.array(x), np.array(p))
    assert got.dtype == np.float64 and got.shape == (len(components),)
    for g, ast in zip(got, components):
        assert same(float(g), ex.compile_ast(ast)(x, p))
        assert same(float(g), walk(ast, x, p))


def _rows(x_rows):
    return np.array(x_rows, dtype=float).reshape(len(x_rows), 3)


@settings(max_examples=400, deadline=None)
@given(asts, st.lists(points, min_size=1, max_size=4), params)
def test_row_target_matches_scalar(ast, x_rows, p):
    X = _rows(x_rows)
    with np.errstate(all="ignore"):  # as the geometry callers run row functions
        got = ex.compile_rows(ast)(X, p)
    assert got.dtype == np.float64 and got.shape == (len(X),)
    f = ex.compile_ast(ast)
    for g, x in zip(got, X):
        assert same(float(g), f(x, p))


@settings(max_examples=200, deadline=None)
@given(st.lists(asts, min_size=1, max_size=4), st.lists(points, min_size=1, max_size=4),
       params)
def test_vector_row_target_matches_scalar(components, x_rows, p):
    X = _rows(x_rows)
    with np.errstate(all="ignore"):
        got = ex.compile_vector_rows(components)(X, p)
    assert got.dtype == np.float64 and got.shape == (len(X), len(components))
    f = ex.compile_vector(components)
    for row, x in zip(got, X):
        assert all(same(float(g), float(w)) for g, w in zip(row, f(x, p)))


def test_row_target_maps_the_math_helpers():
    # numpy's power, exp and log round differently from math's on some of
    # these, and numpy's sign keeps nan where sgn gives 0
    texts = ["x1^2", "x1^3", "x1^1.5", "x1^-1", "exp(x1)", "log(x1)", "sgn(x1)",
             "min(x1, x2)", "max(x1, x2)", "x1/x2", "sqrt(x1)", "2^3 + log(2)"]
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.uniform(-10.0, 10.0, size=(2000, 3)),
                        np.array([[v, w, 0.0] for v in _SPECIAL for w in _SPECIAL])])
    for text in texts:
        ast = ex.parse(text, 3)
        with np.errstate(all="ignore"):
            got = ex.compile_rows(ast)(X)
        f = ex.compile_ast(ast)
        assert all(same(float(g), f(x, ())) for g, x in zip(got, X)), text


def test_row_targets_compile_on_first_use(monkeypatch):
    built = []
    real = ex.compile_rows
    monkeypatch.setattr(ex, "compile_rows", lambda ast: built.append(ast) or real(ast))
    b = system_from_dict(_doc())
    smooth = b.barrier.components[0]
    assert built == []  # loading a system compiles no row target
    X = np.array([[0.5, 1.0], [-1.0, 2.0]])
    assert smooth.value_rows(X).tolist() == [smooth.fn(x) for x in X]
    assert len(built) == 1
    smooth.value_rows(X)
    assert len(built) == 1


_smooth_atoms = st.one_of(st.sampled_from([0.0, 1.0, -2.0, 0.5]).map(ex.Lit),
                          st.integers(0, 2).map(ex.Var))
smooth_asts = st.recursive(_smooth_atoms, lambda kids: st.one_of(
    st.builds(ex.Un, st.sampled_from(["neg", "sqrt", "exp", "log"]), kids),
    st.builds(ex.Bin, st.sampled_from(["+", "-", "*", "/"]), kids, kids),
    st.builds(ex.Bin, st.just("^"), kids, st.sampled_from([2.0, 3.0, 0.5]).map(ex.Lit)),
), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(smooth_asts, st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_gradient_vector_matches_partials(ast, x):
    partials = [ex.differentiate(ast, i) for i in range(3)]
    got = ex.compile_vector(partials)(np.array(x))
    for g, d in zip(got, partials):
        assert same(float(g), ex.compile_ast(d)(x, ()))
        assert same(float(g), walk(d, x, ()))


def _doc(**over):
    doc = {"dim": 2, "params": 1, "constants": {"g": 2.0},
           "C": "x1^2 + x2^2 - 4", "D": {"leaf": "x2", "strict": True},
           "F": ["x2", "-g*x1 + p1"], "G": ["x1*p1", "-x2"],
           "barrier": ["x1^2 - sqrt(x2 + 3)*x1", {"expr": "max(x1, x2)",
                                                  "smoothness": "lipschitz"}],
           "box": [[-2, 2], [-2, 2]]}
    doc.update(over)
    return doc


def test_config_fields_and_maps_match_per_component_evaluation():
    b = system_from_dict(_doc())
    H = b.system
    smooth, lip = b.barrier.components
    assert lip.grad is None
    ast = ex.parse("x1^2 - sqrt(x2 + 3)*x1", 2, 0, {"g": 2.0})
    rng = np.random.default_rng(3)
    for x in rng.uniform(-2.0, 2.0, size=(50, 2)):
        assert same(smooth.fn(x), walk(ast, x, ()))
        want = [walk(ex.differentiate(ast, i), x, ()) for i in range(2)]
        assert all(same(float(g), w) for g, w in zip(smooth.grad(x), want))
        lam = rng.uniform(-1.0, 1.0, size=1)
        for fmap, texts in ((H.F, ["x2", "-g*x1 + p1"]), (H.G, ["x1*p1", "-x2"])):
            got = fmap.fn(x, lam)
            for g, t in zip(got, texts):
                assert same(float(g), walk(ex.parse(t, 2, 1, {"g": 2.0}), x, lam))


def numpy_step(F, x, lam, h):
    """The numpy RK4 step over F's component function that compile_step
    replaced: the fallback of a map without a generated step."""
    return dataclasses.replace(F, rk4=None).step(x, lam, h)


def same_vector(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and all(
        same(float(u), float(w)) for u, w in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(st.lists(asts, min_size=3, max_size=3), points, params, floats)
def test_compiled_step_matches_numpy_rk4(components, x, p, h):
    F = fl.SetValuedMap(3, 2, ex.compile_vector(components),
                        rk4=ex.compile_step(components))
    x, p = np.array(x), np.array(p)
    with np.errstate(all="ignore"):  # numpy warns where the floats overflow quietly
        assert same_vector(F.step(x, p, h), numpy_step(F, x, p, h))


@pytest.mark.parametrize("name", EXAMPLE_IDS)
def test_catalog_flow_steps_match_numpy_rk4(name):
    b = example_bundle(name)
    F = b.system.F
    rng = np.random.default_rng(7)
    lo, hi = b.box[:, 0], b.box[:, 1]
    for _ in range(300):
        x = rng.uniform(lo - 1.0, hi + 1.0)
        lam = rng.uniform(size=F.k)
        h = float(rng.choice([1e-4, 1e-3, 5e-3, 0.1])) * rng.uniform(0.0, 1.0)
        with np.errstate(all="ignore"):
            assert same_vector(F.step(x, lam, h), numpy_step(F, x, lam, h)), (x, lam, h)


def test_flow_step_compiles_on_first_use(monkeypatch):
    built = []
    real = ex.compile_step
    monkeypatch.setattr(ex, "compile_step", lambda asts: built.append(asts) or real(asts))
    F = system_from_dict(_doc()).system.F
    assert built == []
    x, lam = np.array([0.5, 1.0]), np.array([0.25])
    assert same_vector(F.step(x, lam, 1e-3), numpy_step(F, x, lam, 1e-3))
    F.step(x, lam, 1e-3)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# set classification

_RANK = {geo.Membership.INSIDE: 0, geo.Membership.BOUNDARY: 1, geo.Membership.OUTSIDE: 2}


def classify_node(node, x, tol, strict_tol):
    """Reference classifier: the recursive walk the generated one replaced."""
    if isinstance(node, geo.Leaf):
        v = node.constraint.value_checked(x)
        eff = strict_tol if node.strict else tol
        if eff == 0.0 and node.strict:
            return geo.Membership.INSIDE if v < 0.0 else geo.Membership.OUTSIDE
        if v < -eff:
            return geo.Membership.INSIDE
        if v > eff:
            return geo.Membership.OUTSIDE
        return geo.Membership.BOUNDARY
    if isinstance(node, geo.Intersection):
        worst = geo.Membership.INSIDE
        for child in node.children:
            m = classify_node(child, x, tol, strict_tol)
            if _RANK[m] > _RANK[worst]:
                worst = m
            if worst == geo.Membership.OUTSIDE:
                return worst
        return worst
    best = geo.Membership.OUTSIDE
    for child in node.children:
        m = classify_node(child, x, tol, strict_tol)
        if _RANK[m] < _RANK[best]:
            best = m
        if best == geo.Membership.INSIDE:
            return best
    return best


_leaf_specs = st.tuples(st.integers(0, 2), st.sampled_from([1.0, -1.0]), st.booleans())
set_trees = st.recursive(
    _leaf_specs,
    lambda kids: st.tuples(st.sampled_from(["all", "any"]), st.lists(kids, max_size=4)),
    max_leaves=14)
_COORDS = [0.0, -0.0, 1e-10, -1e-10, 1e-9, -1e-9, 5e-4, -5e-4, 1e-3, -1e-3, 0.5,
           -0.5, math.nan, math.inf, -math.inf]
_TOLS = [0.0, 1e-9, 1e-3]


def build_set(spec, log, names):
    """A set tree from a spec; leaf k computes sign * x[j] and logs k."""
    if spec[0] in ("all", "any"):
        kind = geo.Intersection if spec[0] == "all" else geo.Union
        return kind(tuple(build_set(child, log, names) for child in spec[1]))
    j, sign, strict = spec
    k = len(names)
    names.append(f"c{k}")

    def fn(x):
        log.append(k)
        return sign * x[j]

    return geo.Leaf(fl.ScalarField(3, fn, name=names[k]), strict=strict)


def _outcome(call):
    try:
        return call()
    except fl.EvaluationError as e:
        return f"EvaluationError: {e}"


@settings(max_examples=500, deadline=None)
@given(set_trees, st.lists(st.sampled_from(_COORDS), min_size=3, max_size=3),
       st.sampled_from(_TOLS), st.sampled_from([None] + _TOLS))
def test_compiled_classifier_matches_tree_walk(spec, x, tol, strict_tol):
    log: list[int] = []
    root = build_set(spec, log, [])
    S = geo.SetDescription(3, root)
    x = np.array(x)
    got = _outcome(lambda: S.classify(x, tol, strict_tol))
    got_calls = list(log)
    del log[:]
    st_eff = tol if strict_tol is None else strict_tol
    want = _outcome(lambda: classify_node(root, x, tol, st_eff))
    assert got == want
    assert got_calls == log  # the same leaves, in the same order


def _classify_rows_matches(S, X, tol, strict_tol):
    # repeat the rows into a block large enough for the row classifier
    X = np.tile(X, (-(-geo._ROWS_MIN // len(X)), 1))
    ranks, err = S.classify_many(X, tol, strict_tol)
    st_eff = tol if strict_tol is None else strict_tol
    for x, r, e in zip(X, ranks, err):
        want = _outcome(lambda: classify_node(S.root, x, tol, st_eff))
        if e:
            assert isinstance(want, str)  # classify raises here
        else:
            assert want == geo._MEMBERSHIP[r]


@settings(max_examples=300, deadline=None)
@given(set_trees, st.lists(st.lists(st.sampled_from(_COORDS), min_size=3, max_size=3),
                           min_size=1, max_size=6),
       st.sampled_from(_TOLS), st.sampled_from([None] + _TOLS))
def test_classify_many_matches_classify_on_callable_leaves(spec, x_rows, tol, strict_tol):
    # leaves built from Python callables run through the row-loop adapter
    root = build_set(spec, [], [])
    _classify_rows_matches(geo.SetDescription(3, root), _rows(x_rows), tol, strict_tol)


_LEAF_TEXTS = ["x1 - 0.5", "x2^2 + x3^2 - 1", "log(x1) + 1", "sqrt(x2) - 0.5",
               "1/x3 - 2", "exp(x1) - 2", "max(x1, x2) - 0.25", "-x2"]
expr_trees = st.recursive(
    st.tuples(st.sampled_from(_LEAF_TEXTS), st.booleans()),
    lambda kids: st.tuples(st.sampled_from(["all", "any"]), st.lists(kids, min_size=1,
                                                                     max_size=4)),
    max_leaves=10)


def _expr_tree(spec):
    if spec[0] in ("all", "any"):
        return {spec[0]: [_expr_tree(child) for child in spec[1]]}
    return {"leaf": spec[0], "strict": spec[1]}


@settings(max_examples=300, deadline=None)
@given(expr_trees, st.lists(st.lists(st.sampled_from(_COORDS + [2.0, -2.0, 0.25]),
                                     min_size=3, max_size=3), min_size=1, max_size=8),
       st.sampled_from(_TOLS), st.sampled_from([None] + _TOLS))
def test_classify_many_matches_classify_on_compiled_leaves(spec, x_rows, tol, strict_tol):
    doc = {**_doc(), "dim": 3, "params": 0, "C": _expr_tree(spec),
           "F": ["x2", "x1", "x3"], "G": ["x1", "x2", "x3"], "barrier": ["x1"],
           "box": [[-2, 2]] * 3}
    C = system_from_dict(doc).system.C
    _classify_rows_matches(C, _rows(x_rows), tol, strict_tol)


@settings(max_examples=300, deadline=None)
@given(expr_trees, st.lists(st.lists(st.sampled_from(_COORDS + [2.0, -2.0, 0.25]),
                                     min_size=3, max_size=3), min_size=1, max_size=8),
       st.sampled_from(_TOLS), st.sampled_from([None] + _TOLS))
def test_inlined_classifier_matches_row_target(spec, x_rows, tol, strict_tol):
    doc = {**_doc(), "dim": 3, "params": 0, "C": _expr_tree(spec),
           "F": ["x2", "x1", "x3"], "G": ["x1", "x2", "x3"], "barrier": ["x1"],
           "box": [[-2, 2]] * 3}
    C = system_from_dict(doc).system.C
    assert all(leaf.constraint.ast is not None for leaf in C.leaves())
    st_eff = tol if strict_tol is None else strict_tol
    X = _rows(x_rows)
    with np.errstate(all="ignore"):
        ranks, fine = C._row_classifier(X, tol, st_eff)
    for x, r, ok in zip(X, ranks, fine):
        got = _outcome(lambda: C.classify(x, tol, strict_tol))
        # a non-finite reached leaf raises value_checked's own error
        assert got == _outcome(lambda: classify_node(C.root, x, tol, st_eff))
        assert got == (geo._MEMBERSHIP[r] if ok else got)
        assert ok or isinstance(got, str)


def test_config_leaves_skip_value_checked_unless_non_finite(monkeypatch):
    calls = []
    real = fl.ScalarField.value_checked
    monkeypatch.setattr(fl.ScalarField, "value_checked",
                        lambda self, x: calls.append(self.name) or real(self, x))
    C = system_from_dict(_doc(C={"all": ["x1 - 1", "log(x2) - 5", "x1 + x2"]})).system.C
    assert C.classify([-0.5, 0.2], 0.0) == geo.Membership.INSIDE
    assert calls == []
    with pytest.raises(fl.EvaluationError, match=r"log\(x2\) - 5.*x=\[0.0, -1.0\]"):
        C.classify([0.0, -1.0], 0.0)
    assert calls == ["log(x2) - 5"]


def test_classify_many_marks_only_reached_leaves():
    b = system_from_dict(_doc(C={"all": ["x1 - 1", "log(x2) - 5", "x1 + x2"]}))
    C = b.system.C
    X = np.array([[0.0, -1.0], [2.0, -1.0], [-2.0, 1.0]])
    # the second row is outside at the first leaf and never reaches log(x2);
    # a short block is classified row by row, a long one by the row classifier
    for k in (1, geo._ROWS_MIN // 3 + 1):
        ranks, err = C.classify_many(np.tile(X, (k, 1)), 0.0)
        assert err.tolist() == [True, False, False] * k
        assert ranks[1:3].tolist() == [2, 0]


def test_non_finite_leaf_names_the_leaf():
    b = system_from_dict(_doc(C={"all": ["x1 - 1", "log(x2) - 5", "x1 + x2"]}))
    C = b.system.C
    with pytest.raises(fl.EvaluationError) as got:
        C.classify([0.0, -1.0], 0.0)
    with pytest.raises(fl.EvaluationError) as want:
        classify_node(C.root, np.array([0.0, -1.0]), 0.0, 0.0)
    assert str(got.value) == str(want.value)
    assert "log(x2) - 5" in str(got.value)
    # the first leaf already puts x outside, so the bad leaf is never reached
    assert C.classify([2.0, -1.0], 0.0) == geo.Membership.OUTSIDE


def test_closure_and_classifier_are_built_once():
    b = system_from_dict(_doc())
    D = b.system.D
    assert D.closure() is D.closure()
    assert D.closure().leaves()[0].strict is False
    D.classify([0.0, 0.0], 0.0)
    first = D._classifier
    D.classify([0.0, 1.0], 1e-3)
    assert D._classifier is first


def test_leaf_walks_leave_no_reference_cycles():
    b = system_from_dict(_doc(C={"all": ["x1 - 1", {"any": ["x2", "x1 + x2"]}]},
                              D={"all": ["x1", {"all": ["x2", "-x1"]}]}))
    sets = (b.system.C, b.system.D)
    gc.collect()
    gc.disable()
    try:
        for S in sets:
            S.leaves()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [leaf.constraint.name for leaf in sets[0].leaves()] == ["x1 - 1", "x2", "x1 + x2"]
    assert [leaf.constraint.name for leaf in sets[1].leaves()] == ["x1", "x2", "-x1"]


# ---------------------------------------------------------------------------
# The SLSQP reference's one vector constraint per DNF term


def _per_leaf_constraints(leaves):
    return [{"type": "ineq",
             "fun": (lambda y, c=leaf.constraint: -c.value_checked(np.asarray(y))),
             "jac": (lambda y, c=leaf.constraint: -fl.gradient(c, np.asarray(y)))}
            for leaf in leaves]


def test_term_constraint_gives_the_same_slsqp_iterates():
    from scipy.optimize import minimize
    from test_geometry import term_constraint

    b = system_from_dict(_doc(C={"all": ["x1^2 + x2^2 - 1", "x1 - x2^2",
                                         "0.2 - x1 - x2"]}))
    (leaves,) = b.system.C.dnf()
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = rng.uniform(-2.0, 2.0, size=2)
        y0 = rng.uniform(-2.0, 2.0, size=2)
        runs = []
        for cons in (_per_leaf_constraints(leaves), [term_constraint(leaves)]):
            runs.append(minimize(lambda y: float((y - z) @ (y - z)), y0,
                                 jac=lambda y: 2.0 * (y - z), method="SLSQP",
                                 constraints=cons,
                                 options={"maxiter": 80, "ftol": 1e-16}))
        assert runs[0].x.tobytes() == runs[1].x.tobytes()
        assert (runs[0].nit, runs[0].nfev, runs[0].status) == \
            (runs[1].nit, runs[1].nfev, runs[1].status)


# ---------------------------------------------------------------------------
# Second partials and affine leaves, compiled at load time


@pytest.mark.parametrize("text,affine,curved", [
    ("x1 - 2*x2 + 3", True, False),
    ("1", True, False),
    ("x1*x2 - sqrt(2)", False, True),
    ("x2*(x1^2 + x2^2 - 1)", False, True),
    ("exp(x1) - log(x2)", False, True),
    ("x1^2 - abs(x2)", False, True),
    ("x2 + (2/3)*max(x1, 0)^3", False, True),
    ("abs(x2) - 1", False, False),
])
def test_config_marks_affine_leaves_and_compiles_second_partials(text, affine, curved):
    from hibarrier.config import _field_from_expr

    f = _field_from_expr(text, 2, {}, "test")
    assert f.affine is affine
    assert (f.hess is not None) is curved
    if curved and f.grad is None:
        # abs, min and max: the second partials of the piece at x, the
        # central second differences of the field away from its kinks
        for x in (np.array([0.7, 1.3]), np.array([-0.4, -0.2])):
            h = 1e-4
            fd = np.array([[(f(x + a + b) - f(x + a - b) - f(x - a + b) + f(x - a - b)) / (4 * h * h)
                            for b in np.eye(2) * h] for a in np.eye(2) * h])
            assert f.hess(x) == pytest.approx(fd, abs=1e-5)
    elif curved:
        # the Hessian is the central difference of the analytic gradient
        x, h = np.array([0.7, 1.3]), 1e-6
        fd = np.array([(f.grad(x + e) - f.grad(x - e)) / (2 * h) for e in np.eye(2) * h]).T
        assert f.hess(x) == pytest.approx(fd, abs=1e-6)
        assert f.hess(x) == pytest.approx(f.hess(x).T, rel=1e-12)
