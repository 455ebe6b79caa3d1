"""Gradient-boosted regression trees (XGBoost stand-in).

Least-squares gradient boosting (Friedman 2001) over the CART trees of
:mod:`repro.ml.tree`, with shrinkage, optional row subsampling and early
stopping on a validation set.  ``GBT-150`` / ``GBT-250`` in the paper's tables
correspond to 150 / 250 boosting rounds.  Prediction stacks the trees into
one :class:`~repro.ml.tree.NodeTable` and walks all trees and rows at once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import FitResult, Regressor, validate_training_inputs
from .metrics import mean_squared_error
from .preprocessing import flatten_windows
from .tree import NodeTable, RegressionTree


class GradientBoostedTrees(Regressor):
    """Least-squares gradient boosting with CART weak learners."""

    def __init__(
        self,
        n_estimators: int = 250,
        learning_rate: float = 0.08,
        max_depth: int = 4,
        subsample: float = 0.8,
        min_samples_leaf: int = 2,
        early_stopping_rounds: int = 50,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.early_stopping_rounds = early_stopping_rounds
        self.seed = seed
        self.name = f"GBT-{n_estimators}"
        self._trees: list[RegressionTree] = []
        self._base_prediction = 0.0
        #: ``(table, roots, depth)`` of the stacked trees, built on first predict.
        self._stacked: tuple[NodeTable, np.ndarray, int] | None = None

    def fit(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> FitResult:
        X = flatten_windows(X_train)
        y = np.asarray(y_train, dtype=float)
        validate_training_inputs(X, y)
        rng = np.random.default_rng(self.seed)

        has_val = X_val is not None and y_val is not None and len(y_val) > 0
        X_validation = flatten_windows(X_val) if has_val else None
        y_validation = np.asarray(y_val, dtype=float) if has_val else None

        self._trees = []
        self._stacked = None
        self._base_prediction = float(y.mean())
        predictions = np.full(len(y), self._base_prediction)
        val_predictions = (
            np.full(len(y_validation), self._base_prediction) if has_val else None
        )

        history: list[float] = []
        best_val = np.inf
        best_round = 0
        rounds_without_improvement = 0
        n_samples = len(y)
        sample_count = max(2, int(round(self.subsample * n_samples)))

        for round_index in range(self.n_estimators):
            residuals = y - predictions
            if self.subsample < 1.0 and n_samples > sample_count:
                chosen = rng.choice(n_samples, size=sample_count, replace=False)
            else:
                chosen = np.arange(n_samples)
            tree = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[chosen], residuals[chosen])
            self._trees.append(tree)
            predictions += self.learning_rate * tree.predict(X)
            train_loss = mean_squared_error(y, predictions)
            history.append(train_loss)

            if has_val:
                val_predictions += self.learning_rate * tree.predict(X_validation)
                val_loss = mean_squared_error(y_validation, val_predictions)
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    best_round = round_index + 1
                    rounds_without_improvement = 0
                else:
                    rounds_without_improvement += 1
                    if rounds_without_improvement >= self.early_stopping_rounds:
                        self._trees = self._trees[:best_round]
                        self._stacked = None
                        if not self._trees:
                            raise ValueError(
                                "GradientBoostedTrees.fit: the validation loss "
                                f"was never finite (last {val_loss!r}), so "
                                "early stopping would keep zero trees"
                            )
                        break

        final_pred = self.predict(X)
        train_loss = mean_squared_error(y, final_pred)
        val_loss = (
            mean_squared_error(y_validation, self.predict(X_validation))
            if has_val
            else None
        )
        return FitResult(
            train_loss=train_loss,
            val_loss=val_loss,
            epochs_run=len(self._trees),
            history=history,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("model has not been fitted")
        X = flatten_windows(X)
        if self._stacked is None:
            table, roots = NodeTable.stack([tree.nodes for tree in self._trees])
            self._stacked = table, roots, max(tree.depth for tree in self._trees)
        table, roots, depth = self._stacked
        start = np.broadcast_to(roots[:, None], (len(roots), len(X)))
        steps = self.learning_rate * table.value[table.descend(X, start, depth)]
        # cumsum adds row after row, so each prediction is summed exactly as
        # ((base + lr*tree_0) + lr*tree_1) + ..., in tree order.
        base = np.full((1, len(X)), self._base_prediction)
        return np.cumsum(np.vstack([base, steps]), axis=0)[-1]

    @property
    def n_trees_fitted(self) -> int:
        return len(self._trees)
