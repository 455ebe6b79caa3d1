"""CART regression tree used as the weak learner for gradient boosting.

A fitted tree is a flat :class:`NodeTable`, so prediction walks every row
at once in ``depth`` vectorised steps instead of recursing per row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NodeTable(NamedTuple):
    """A tree as parallel per-node arrays, in pre-order with the root at 0.

    A leaf has ``feature == -1`` and both children pointing at itself, so a
    walk that reaches it early stays there for the remaining steps.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def descend(self, X: np.ndarray, node: np.ndarray, steps: int) -> np.ndarray:
        """Move each row of *X* from *node* (shape ``(..., len(X))``) *steps* levels down."""
        rows = np.arange(len(X))
        for _ in range(steps):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node

    @classmethod
    def stack(cls, tables: list["NodeTable"]) -> tuple["NodeTable", np.ndarray]:
        """One table holding every table in *tables*, plus each one's root index."""
        sizes = [len(table.value) for table in tables]
        roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, value, left, right = map(np.concatenate, zip(*tables))
        offset = np.repeat(roots, sizes)
        return cls(feature, threshold, value, left + offset, right + offset), roots


class RegressionTree:
    """Exact-split CART regression tree minimising squared error."""

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 2,
        min_samples_split: int = 4,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.min_samples_split = max(2, min_samples_split)
        self.nodes: NodeTable | None = None
        #: Depth of the fitted tree (0 for a single leaf), at most max_depth.
        self.depth = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and the same length")
        nodes: list[list] = []
        self.depth = self._grow(X, y, 0, nodes)
        feature, threshold, value, left, right = zip(*nodes)
        self.nodes = NodeTable(
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=float),
            np.array(value, dtype=float),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.nodes is None:
            raise RuntimeError("tree has not been fitted")
        X = np.asarray(X, dtype=float)
        leaves = self.nodes.descend(X, np.zeros(len(X), dtype=np.intp), self.depth)
        return self.nodes.value[leaves]

    # -- construction -----------------------------------------------------------

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list) -> int:
        """Append the subtree of (X, y) to *nodes* in pre-order; return its depth."""
        index = len(nodes)
        node = [-1, 0.0, float(y.sum() / len(y)), index, index]
        nodes.append(node)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or y.max() - y.min() < 1e-12
        ):
            return 0

        feature, threshold = self._best_split(X, y)
        if feature < 0:
            return 0

        mask = X[:, feature] <= threshold
        node[0], node[1], node[3] = feature, threshold, len(nodes)
        left_depth = self._grow(X[mask], y[mask], depth + 1, nodes)
        node[4] = len(nodes)
        right_depth = self._grow(X[~mask], y[~mask], depth + 1, nodes)
        return 1 + max(left_depth, right_depth)

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float]:
        """Return the (feature, threshold) minimising weighted child variance.

        All features are searched at once: one stable column-wise sort, then
        prefix sums give the SSE of every (split point, feature) pair.  The
        winner is the first feature reaching the minimum, at its first split
        point, as a feature-by-feature scan with a strict ``<`` picks it.  Such
        a scan takes ``argmin`` per feature, which stops at a NaN (SSE
        overflow) that never compares ``<``, so a feature whose valid SSEs
        hold a NaN is skipped here too.
        """
        n_samples, n_features = X.shape
        min_leaf = self.min_samples_leaf
        order = X.argsort(axis=0, kind="stable")
        x_sorted = X[order, np.arange(n_features)]
        y_sorted = y[order]
        # Prefix sums for O(1) variance evaluation of every split point.
        cumsum = y_sorted.cumsum(axis=0)
        cumsum_sq = (y_sorted ** 2).cumsum(axis=0)
        left_sum = cumsum[:-1]
        left_sq = cumsum_sq[:-1]
        left_n = np.arange(1, n_samples, dtype=float)[:, None]
        right_n = n_samples - left_n
        right_sum = cumsum[-1] - left_sum
        right_sq = cumsum_sq[-1] - left_sq

        sse = (left_sq - left_sum ** 2 / left_n) + (
            right_sq - right_sum ** 2 / right_n
        )
        # Disallow splits between equal feature values and tiny leaves.
        valid = x_sorted[:-1] != x_sorted[1:]
        valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
        sse = np.where(valid, sse, np.inf)
        sse[:, np.isnan(sse).any(axis=0)] = np.inf
        feature, index = divmod(int(sse.T.argmin()), n_samples - 1)
        if not sse[index, feature] < np.inf:
            return -1, 0.0
        return feature, float(
            0.5 * (x_sorted[index, feature] + x_sorted[index + 1, feature])
        )
