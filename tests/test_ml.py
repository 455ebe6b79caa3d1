"""Tests for the from-scratch ML engines and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    Adam,
    CNNRegressor,
    GradientBoostedTrees,
    LassoRegressor,
    LSTMRegressor,
    MLPRegressor,
    RegressionTree,
    StandardScaler,
    TABLE_IV_ENGINES,
    build_model,
    clip_gradients,
    inference_error,
    make_window_dataset,
    mean_squared_error,
    pearson_correlation,
    r_squared,
)

from _reference_tree import ReferenceGradientBoostedTrees, ReferenceRegressionTree


def _linear_data(n=300, f=8, noise=0.02, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    w = rng.normal(size=f)
    y = X @ w * 0.2 + 1.0 + rng.normal(scale=noise, size=n)
    return X, y


class TestMetrics:
    def test_mse_and_mae(self):
        assert mean_squared_error([1, 2, 3], [1, 2, 3]) == 0.0
        assert mean_squared_error([0, 0], [1, 1]) == 1.0

    def test_inference_error_matches_equation_one(self):
        y = np.array([1.0, 2.0, 3.0])
        yhat = np.array([1.5, 2.0, 2.0])
        # 0.5*((|e1|+|e2|) + (|e2|+|e3|)) = 0.5*((0.5+0)+(0+1.0)) = 0.75
        assert inference_error(y, yhat) == pytest.approx(0.75)
        assert inference_error([2.0], [1.0]) == pytest.approx(1.0)

    def test_pearson(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)
        assert pearson_correlation(x, np.ones(10)) == 0.0

    def test_r_squared(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(y, y) == pytest.approx(1.0)
        assert r_squared(y, np.full(4, y.mean())) == pytest.approx(0.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_squared_error([1, 2], [1, 2, 3])


class TestPreprocessing:
    def test_scaler_round_trip(self):
        X = np.random.default_rng(0).normal(5.0, 3.0, size=(50, 4))
        scaler = StandardScaler()
        Z = scaler.fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_constant_column(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_window_dataset(self):
        features = np.arange(12.0).reshape(6, 2)
        targets = np.arange(6.0)
        X, y = make_window_dataset(features, targets, window=3)
        assert X.shape == (4, 3, 2)
        assert np.array_equal(y, targets[2:])
        assert np.array_equal(X[0], features[0:3])

    def test_window_larger_than_series(self):
        X, y = make_window_dataset(np.zeros((2, 3)), np.zeros(2), window=5)
        assert len(y) == 0

    @settings(max_examples=20, deadline=None)
    @given(window=st.integers(1, 5), steps=st.integers(5, 20))
    def test_window_dataset_sizes(self, window, steps):
        features = np.random.default_rng(0).random((steps, 3))
        targets = np.random.default_rng(1).random(steps)
        X, y = make_window_dataset(features, targets, window)
        assert len(X) == len(y) == max(0, steps - window + 1)


class TestOptim:
    def test_clip_gradients(self):
        grads = [np.full(4, 10.0)]
        clipped = clip_gradients(grads, max_norm=1.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)
        assert clip_gradients(grads, max_norm=0.0)[0] is grads[0]

    def test_adam_reduces_quadratic(self):
        params = [np.array([5.0])]
        optimizer = Adam(params, learning_rate=0.1)
        for _ in range(200):
            optimizer.step([2 * params[0]])
        assert abs(params[0][0]) < 0.5


class TestEngines:
    def test_lasso_recovers_sparse_weights(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 10))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 4] + 0.5
        model = LassoRegressor(alpha=0.01)
        model.fit(X, y)
        prediction = model.predict(X)
        assert r_squared(y, prediction) > 0.95
        assert {0, 4}.issubset(set(model.selected_features))

    def test_regression_tree_splits(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(X, y)
        assert mean_squared_error(y, tree.predict(X)) < 0.01

    def test_gbt_fits_nonlinear_function(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(300, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        model = GradientBoostedTrees(n_estimators=80, max_depth=3)
        model.fit(X, y)
        assert r_squared(y, model.predict(X)) > 0.9

    def test_gbt_early_stopping(self):
        X, y = _linear_data(n=200)
        model = GradientBoostedTrees(n_estimators=300, early_stopping_rounds=10)
        model.fit(X[:150], y[:150], X[150:], y[150:])
        assert model.n_trees_fitted <= 300

    def test_gbt_rejects_a_never_finite_validation_loss(self):
        """Early stopping on a loss that is never finite would keep zero
        trees; fit names the cause instead of failing in its own predict."""
        X, y = _linear_data(n=40)
        y_val = np.full(10, np.inf)
        model = GradientBoostedTrees(n_estimators=20, early_stopping_rounds=3)
        with pytest.raises(ValueError, match="validation loss was never finite"):
            model.fit(X[:30], y[:30], X[30:], y_val)

    @pytest.mark.parametrize("factory", [
        lambda: MLPRegressor(hidden_layers=1, hidden_size=32, max_epochs=80, patience=30),
        lambda: CNNRegressor(conv_layers=1, filters=16, max_epochs=60, patience=30),
        lambda: LSTMRegressor(layers=1, hidden_size=24, max_epochs=60, patience=30),
    ])
    def test_neural_engines_learn_linear_map(self, factory):
        X, y = _linear_data(n=250, f=6)
        model = factory()
        model.fit(X, y)
        assert r_squared(y, model.predict(X)) > 0.3

    def test_predict_before_fit_raises(self):
        for model in (LassoRegressor(), GradientBoostedTrees(n_estimators=5),
                      MLPRegressor(), CNNRegressor(), LSTMRegressor()):
            with pytest.raises(RuntimeError):
                model.predict(np.zeros((2, 3)))

    def test_empty_training_data_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=5).fit(np.zeros((0, 3)), np.zeros(0))


class TestEngineFactory:
    def test_table_iv_names_parse(self):
        for name in TABLE_IV_ENGINES:
            model = build_model(name, max_epochs=5, patience=2)
            assert model.name.replace("_", "-").lower().startswith(
                name.replace("_", "-").lower()[:3]) or model.name == name

    def test_specific_names(self):
        assert isinstance(build_model("GBT-150"), GradientBoostedTrees)
        assert isinstance(build_model("1-MLP-500"), MLPRegressor)
        assert isinstance(build_model("4-CNN-150"), CNNRegressor)
        assert isinstance(build_model("1-LSTM-250"), LSTMRegressor)
        assert isinstance(build_model("lasso"), LassoRegressor)

    def test_invalid_names(self):
        for name in ("GBT", "5-SVM-100", "GBT-0", "banana"):
            with pytest.raises(ValueError):
                build_model(name)


# ---------------------------------------------------------------------------
# Differential fuzz: the vectorised tree and GBT against the frozen oracle
# ---------------------------------------------------------------------------

#: Feature values drawn from this set collide, so split ties are common.
_TIE_VALUES = (-1.0, 0.0, 0.5, 2.0)
#: Targets whose squares (or their sums) overflow: the SSE holds inf and NaN.
_HUGE_VALUES = (6e153, -9e153, 1.2e154, 1e200, 1.0, -3.0)
#: Their squares sum to inf in some orders and stay finite in others, so one
#: feature's SSE column can hold NaN while another's is finite: the only
#: inputs on which the skip-a-NaN-feature rule decides the split.
_EDGE_OF_OVERFLOW = (7.741001517595331e153, 7.741001517595047e153, 7.741001517595093e153)


@st.composite
def _matrix(draw, rows, cols):
    element = draw(st.sampled_from([
        st.sampled_from(_TIE_VALUES),
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    ]))
    X = np.array(draw(st.lists(element, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    for column in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        X[:, column] = X[0, column]  # constant column
    for column in draw(st.sets(st.integers(1, cols - 1), max_size=cols)) if cols > 1 else ():
        X[:, column] = -X[:, column - 1]  # mirror image: equal SSEs, reversed order
    if rows > 1 and draw(st.booleans()):
        half = rows // 2
        X[rows - half:] = X[:half]  # duplicate rows
    return X


@st.composite
def _targets(draw, rows):
    element = draw(st.sampled_from([
        st.sampled_from((0.0, 1.0)),
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        st.sampled_from(_HUGE_VALUES),
        st.sampled_from(_EDGE_OF_OVERFLOW),
        st.floats(1e153, 2e154),
    ]))
    return np.array(draw(st.lists(element, min_size=rows, max_size=rows)), dtype=float)


@st.composite
def _tree_case(draw):
    rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 5))
    params = dict(
        max_depth=draw(st.integers(1, 5)),
        min_samples_leaf=draw(st.integers(1, 4)),
        min_samples_split=draw(st.integers(2, 6)),
    )
    return draw(_matrix(rows, cols)), draw(_targets(rows)), params


def _same_bits(actual, expected) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.shape == expected.shape
            and np.array_equal(actual.astype(float).view(np.uint64),
                               expected.astype(float).view(np.uint64)))


def _preorder(node) -> list:
    """(feature, threshold, value) of every reference node, in pre-order."""
    if node.is_leaf:
        return [(-1, 0.0, node.value)]
    return [(node.feature, node.threshold, node.value),
            *_preorder(node.left), *_preorder(node.right)]


def _assert_same_tree(tree, reference):
    feature, threshold, value = zip(*_preorder(reference._root))
    assert np.array_equal(tree.nodes.feature, feature)
    assert _same_bits(tree.nodes.threshold, threshold)
    assert _same_bits(tree.nodes.value, value)


class TestTreeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_tree_case(), st.integers(0, 3))
    def test_tree_structure_and_predictions(self, case, seed):
        X, y, params = case
        with np.errstate(all="ignore"):
            tree = RegressionTree(**params).fit(X, y)
            reference = ReferenceRegressionTree(**params).fit(X, y)
            _assert_same_tree(tree, reference)
            probe = np.vstack([X, np.random.default_rng(seed).normal(size=(5, X.shape[1]))])
            assert _same_bits(tree.predict(probe), reference.predict(probe))

    def test_nan_sse_skips_the_feature(self):
        # y*y summed in feature 0's order overflows (every SSE of that column
        # is inf or NaN) but in feature 1's order stays finite.  The scan
        # skips feature 0 at its NaN and splits on feature 1.
        y = np.array(_EDGE_OF_OVERFLOW)
        X = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
        params = dict(max_depth=1, min_samples_leaf=1, min_samples_split=2)
        with np.errstate(all="ignore"):
            tree = RegressionTree(**params).fit(X, y)
            reference = ReferenceRegressionTree(**params).fit(X, y)
        _assert_same_tree(tree, reference)
        assert tree.nodes.feature[0] == 1

    def test_ties_go_to_the_first_feature_then_the_first_split(self):
        # Both features split off the last row perfectly: feature 0 at its
        # last split point, its mirror image feature 1 at its first.
        X = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        params = dict(max_depth=1, min_samples_leaf=1, min_samples_split=2)
        tree = RegressionTree(**params).fit(X, y)
        _assert_same_tree(tree, ReferenceRegressionTree(**params).fit(X, y))
        assert tree.nodes.feature[0] == 0 and tree.nodes.threshold[0] == 0.5

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_gbt_predictions_and_early_stopping(self, data):
        rows, cols = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 5))
        X, y = data.draw(_matrix(rows, cols)), data.draw(_targets(rows))
        val_rows = data.draw(st.integers(0, 5))
        X_val = data.draw(_matrix(val_rows, cols)) if val_rows else None
        y_val = data.draw(_targets(val_rows)) if val_rows else None
        params = dict(
            n_estimators=data.draw(st.integers(1, 15)),
            learning_rate=data.draw(st.sampled_from((0.08, 0.3, 1.0))),
            max_depth=data.draw(st.integers(1, 4)),
            subsample=data.draw(st.sampled_from((0.5, 0.8, 1.0))),
            min_samples_leaf=data.draw(st.integers(1, 3)),
            early_stopping_rounds=data.draw(st.integers(1, 4)),
            seed=data.draw(st.integers(0, 3)),
        )
        with np.errstate(all="ignore"):
            model = GradientBoostedTrees(**params)
            reference = ReferenceGradientBoostedTrees(**params)
            try:
                expected = reference.fit(X, y, X_val, y_val)
            except RuntimeError:
                # A validation loss that is never finite stops early with
                # no trees kept: the frozen reference then fails in its own
                # predict, the learner rejects the input by name.
                with pytest.raises(ValueError, match="loss was never finite"):
                    model.fit(X, y, X_val, y_val)
                return
            fit = model.fit(X, y, X_val, y_val)
            assert model.n_trees_fitted == reference.n_trees_fitted
            assert _same_bits(fit.history, expected.history)
            assert _same_bits(fit.train_loss, expected.train_loss)
            if val_rows:
                assert _same_bits(fit.val_loss, expected.val_loss)
            for tree, reference_tree in zip(model._trees, reference._trees):
                _assert_same_tree(tree, reference_tree)
            probe = np.random.default_rng(params["seed"]).normal(size=(7, cols))
            for rows_in in (X, probe) + ((X_val,) if val_rows else ()):
                assert _same_bits(model.predict(rows_in), reference.predict(rows_in))
            assert model.predict(probe[:0]).shape == (0,)
