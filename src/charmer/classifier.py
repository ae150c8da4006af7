"""Built-in linear classifier over hashed character n-gram counts.

Deterministic, differentiable in its weights and in convex mixtures of
feature rows, which is what the projected-gradient attack relaxation needs.
Sentences are conceptually padded with boundary markers at both ends before
n-gram extraction. Hashing uses CRC32 so the feature map is stable across
runs and machines; the persisted model format pins orders and dimension.
"""

from __future__ import annotations

import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import sparse

from .oracle import Oracle, OracleError

MAGIC = b"CHNG"
FORMAT_VERSION = 1

_BOUNDARY_LEFT = "\x02"
_BOUNDARY_RIGHT = "\x03"


class _GramHashes(dict):
    """Feature index of each n-gram for one feature width, hashed on first use.

    The n-gram order is the gram's length, so the salt is ``len(gram)``. The
    table is cleared when it reaches ``_GRAM_TABLE_CAP`` entries.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, gram: str) -> int:
        if len(self) >= _GRAM_TABLE_CAP:
            self.clear()
        h = self[gram] = zlib.crc32(gram.encode("utf-8") + bytes([len(gram)])) % self.dim
        return h


_GRAM_TABLE_CAP = 1 << 16
_GRAM_TABLES: dict[int, _GramHashes] = {}


@lru_cache(maxsize=1 << 12)
def _hashed_counts(text: str, orders: tuple[int, ...], dim: int):
    padded = _BOUNDARY_LEFT + text + _BOUNDARY_RIGHT
    table = _GRAM_TABLES.get(dim)
    if table is None:
        table = _GRAM_TABLES[dim] = _GramHashes(dim)
    grams = [padded[i : i + n] for n in orders for i in range(len(padded) - n + 1)]
    counts = Counter(map(table.__getitem__, grams))  # keys in first-occurrence order
    idx = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    val = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return idx, val


def feature_matrix(texts: Sequence[str], orders: tuple[int, ...], dim: int) -> sparse.csr_matrix:
    """Hashed n-gram count rows for a batch of sentences, one row each."""
    indptr = [0]
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for t in texts:
        idx, val = _hashed_counts(t, orders, dim)
        indices.append(idx)
        data.append(val)
        indptr.append(indptr[-1] + len(idx))
    if not texts:
        return sparse.csr_matrix((0, dim), dtype=np.float64)
    return sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.asarray(indptr)),
        shape=(len(texts), dim),
    )


@dataclass
class BuiltinClassifier:
    ngram_orders: tuple[int, ...]
    feature_dim: int
    weights: np.ndarray  # (num_classes, feature_dim)
    bias: np.ndarray  # (num_classes,)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def features(self, texts: Sequence[str]) -> sparse.csr_matrix:
        return feature_matrix(texts, self.ngram_orders, self.feature_dim)

    def logits(self, texts: Sequence[str]) -> np.ndarray:
        X = self.features(texts)
        return X @ self.weights.T + self.bias

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        if not len(texts):
            return np.zeros(0, dtype=np.int64)
        return np.argmax(self.logits(texts), axis=1)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<I", len(self.ngram_orders)))
            for n in self.ngram_orders:
                fh.write(struct.pack("<I", n))
            fh.write(struct.pack("<II", self.feature_dim, self.num_classes))
            fh.write(np.ascontiguousarray(self.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.bias, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "BuiltinClassifier":
        with open(path, "rb") as fh:
            if fh.read(4) != MAGIC:
                raise OracleError("not a builtin classifier file (bad magic)")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != FORMAT_VERSION:
                raise OracleError(f"unsupported model format version {version}")
            (n_orders,) = struct.unpack("<I", fh.read(4))
            orders = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(n_orders))
            dim, o = struct.unpack("<II", fh.read(8))
            weights = np.frombuffer(fh.read(8 * dim * o), dtype="<f8").reshape(o, dim).copy()
            bias = np.frombuffer(fh.read(8 * o), dtype="<f8").copy()
        return cls(ngram_orders=orders, feature_dim=dim, weights=weights, bias=bias)


@dataclass
class TrainConfig:
    ngram_orders: tuple[int, ...] = (1, 2, 3)
    feature_dim: int = 1 << 16
    steps: int = 200
    learning_rate: float = 1.0
    l2: float = 1e-4
    seed: int = 0


def train_builtin(dataset: Sequence[tuple[str, int]], config: TrainConfig = TrainConfig()) -> BuiltinClassifier:
    """Full-batch gradient descent on softmax cross-entropy over hashed counts.

    Reproducible: the seed fixes the weight initialization and the rest of
    the procedure is deterministic.
    """
    if not dataset:
        raise OracleError("training dataset is empty")
    texts = [t for t, _ in dataset]
    labels = np.asarray([y for _, y in dataset], dtype=np.int64)
    o = int(labels.max()) + 1
    if o < 2:
        raise OracleError("need at least 2 classes in the training data")
    if labels.min() < 0:
        raise OracleError("labels must be nonnegative class indices")

    X = feature_matrix(texts, config.ngram_orders, config.feature_dim)
    Y = np.zeros((len(texts), o))
    Y[np.arange(len(texts)), labels] = 1.0

    rng = np.random.default_rng(config.seed)
    W = rng.normal(0.0, 1e-3, size=(o, config.feature_dim))
    b = np.zeros(o)
    n = len(texts)
    for _ in range(config.steps):
        Z = X @ W.T + b
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        G = (P - Y) / n
        W -= config.learning_rate * (np.asarray(G.T @ X) + config.l2 * W)
        b -= config.learning_rate * G.sum(axis=0)
    return BuiltinClassifier(
        ngram_orders=config.ngram_orders, feature_dim=config.feature_dim, weights=W, bias=b
    )


def mixture_loss_and_grad(
    classifier: BuiltinClassifier,
    candidate_logits,
    u: np.ndarray,
    y: int,
) -> tuple[float, np.ndarray]:
    """CW loss of the classifier on the convex mixture of candidate feature rows.

    The model is linear, so on the mixture ``Xᵀu`` of feature rows ``X`` its
    logits are ``Zᵀu + b`` with ``Z = X·Wᵀ``. ``candidate_logits`` is that
    (m, num_classes) array, the candidates' logits without the bias. Returns
    ``z[j] - z[y]`` and its exact gradient ``Z[:, j] - Z[:, y]`` with respect
    to the weights ``u`` (a subgradient at argmax ties).
    """
    u = np.asarray(u, dtype=np.float64)
    shape = np.shape(candidate_logits)
    if len(shape) != 2 or shape[1] != classifier.num_classes:
        raise OracleError(f"logit rows of shape {shape} do not match {classifier.num_classes} classes")
    Z = np.asarray(candidate_logits, dtype=np.float64)
    m = Z.shape[0]
    if u.shape != (m,):
        raise OracleError(f"weight vector length {u.shape} does not match {m} candidates")
    if not 0 <= y < classifier.num_classes:
        raise OracleError(f"label {y} out of range")
    z = u @ Z + classifier.bias
    masked = z.copy()
    masked[y] = -np.inf
    j = int(np.argmax(masked))
    return float(z[j] - z[y]), Z[:, j] - Z[:, y]


class BuiltinOracle(Oracle):
    """Oracle adapter around a trained builtin classifier (raw logits out)."""

    def __init__(self, classifier: BuiltinClassifier, batch_limit: int = 512):
        if batch_limit < 1:
            raise OracleError("batch limit must be >= 1")
        self.classifier = classifier
        self.num_classes = classifier.num_classes
        self.batch_limit = batch_limit

    def _score_chunk(self, sentences: list[str]) -> list[list[float]]:
        if not sentences:
            return []
        return self.classifier.logits(sentences).tolist()
