"""Graph containers, dataset I/O and small synthetic generators.

A dataset is a triple (Graph, NodeFeatures, Labels).  Graphs are undirected,
stored as a deduplicated edge list with every edge canonicalized to i < j.
The on-disk format is a single JSON object:

    {"n": int, "num_classes": int, "d0": int,
     "edges": [[i, j], ...],
     "features": [row-major floats, length n*d0],
     "labels": [int, ...]}               # length n, values in [0, num_classes)
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected graph: n nodes, canonical (i < j) deduplicated edge array."""

    n: int
    edges: np.ndarray  # (m, 2) int64, i < j, lexicographically sorted
    degrees: np.ndarray  # (n,) int64

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a validated Graph from an arbitrary (possibly messy) edge list.

        Self-loops are dropped; duplicates (including reversed copies) collapse
        to a single undirected edge.
        """
        if n <= 0:
            raise ValueError(f"node count must be positive, got {n}")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError(
                f"edge endpoint out of range [0, {n}): found {e.min()}..{e.max()}"
            )
        e = e[e[:, 0] != e[:, 1]]  # no self-loops
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        e = np.unique(np.stack([lo, hi], axis=1), axis=0) if e.size else e.reshape(0, 2)
        deg = np.zeros(n, dtype=np.int64)
        if e.size:
            np.add.at(deg, e[:, 0], 1)
            np.add.at(deg, e[:, 1], 1)
        return Graph(n=n, edges=e, degrees=deg)


@dataclass(frozen=True)
class NodeFeatures:
    H: np.ndarray  # (n, d0) float64
    d0: int


@dataclass(frozen=True)
class Labels:
    y: np.ndarray  # (n,) int64 in [0, C)
    C: int


@dataclass(frozen=True)
class SplitMask:
    """Disjoint train/validation/test node index sets (sorted int arrays)."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int


def _integers(path, key: str, value, scalar: bool = False) -> np.ndarray:
    """value as int64; ValueError naming path and key unless every entry is
    an integral JSON number (a bool is not one, though numpy reads true as
    1), the list is rectangular and, with `scalar`, value is one number.
    """
    entries = np.asarray(value, dtype=object)   # a ragged list nests lists
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in entries.flat):
        raise ValueError(f"{path}: '{key}' must hold integers")
    a = entries.astype(np.float64)
    if not np.all(np.isfinite(a) & (a == np.round(a))):
        raise ValueError(f"{path}: '{key}' must hold integers")
    if scalar and a.ndim:
        raise ValueError(f"{path}: '{key}' must be one integer")
    return a.astype(np.int64)


def load_graph(path) -> tuple[Graph, NodeFeatures, Labels]:
    """Load a dataset from the JSON graph format.

    Parameters
    ----------
    path : str or Path to a JSON file with keys n, num_classes, d0, edges,
        features (row-major, length n*d0) and labels (length n); n,
        num_classes, d0, edges and labels hold integers (2.0 counts as one).

    Returns
    -------
    (Graph, NodeFeatures, Labels)
    """
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("n", "num_classes", "d0", "edges", "features", "labels"):
        if key not in obj:
            raise ValueError(f"{path}: missing required key '{key}'")
    n, C, d0 = (int(_integers(path, key, obj[key], scalar=True))
                for key in ("n", "num_classes", "d0"))
    if C < 2:
        raise ValueError(f"{path}: num_classes is {C}; a dataset needs at "
                         f"least 2 classes")
    g = Graph.from_edges(n, _integers(path, "edges", obj["edges"]))
    try:
        feats = np.asarray(obj["features"], dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: 'features' must hold numbers") from exc
    if feats.size != n * d0:
        raise ValueError(
            f"{path}: features length {feats.size} != n*d0 = {n * d0}"
        )
    y = _integers(path, "labels", obj["labels"])
    if y.shape != (n,):
        raise ValueError(f"{path}: labels length {y.size} != n = {n}")
    if y.size and (y.min() < 0 or y.max() >= C):
        raise ValueError(
            f"{path}: label out of range [0, {C}): found {y.min()}..{y.max()}"
        )
    return g, NodeFeatures(H=feats.reshape(n, d0), d0=d0), Labels(y=y, C=C)


def save_graph(path, g: Graph, feats: NodeFeatures, labels: Labels) -> None:
    """Write a dataset to the JSON graph format (inverse of load_graph)."""
    obj = {
        "n": g.n,
        "num_classes": labels.C,
        "d0": feats.d0,
        "edges": g.edges.tolist(),
        "features": feats.H.reshape(-1).tolist(),
        "labels": labels.y.tolist(),
    }
    Path(path).write_text(json.dumps(obj))


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            yield lineno, row


def convert_csv(edges_path, features_path, labels_path) -> tuple[Graph, NodeFeatures, Labels]:
    """Assemble a dataset from three CSV files.

    edges.csv holds one "i,j" pair per line; features.csv one row of d0 floats
    per node (row r -> node r); labels.csv one nonnegative integer per node.
    Malformed rows and negative labels raise ValueError naming the file and
    line number.
    """
    edges = []
    for lineno, row in _read_csv_rows(edges_path):
        try:
            i, j = int(row[0]), int(row[1])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{edges_path}:{lineno}: bad edge row {row!r}") from exc
        edges.append((i, j))

    rows = []
    d0 = None
    for lineno, row in _read_csv_rows(features_path):
        try:
            vec = [float(c) for c in row]
        except ValueError as exc:
            raise ValueError(f"{features_path}:{lineno}: bad feature row") from exc
        if d0 is None:
            d0 = len(vec)
        elif len(vec) != d0:
            raise ValueError(
                f"{features_path}:{lineno}: expected {d0} columns, got {len(vec)}"
            )
        rows.append(vec)
    if not rows:
        raise ValueError(f"{features_path}: no feature rows")

    ys = []
    for lineno, row in _read_csv_rows(labels_path):
        try:
            label = int(row[0])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{labels_path}:{lineno}: bad label row {row!r}") from exc
        if label < 0:
            raise ValueError(f"{labels_path}:{lineno}: negative label {label}")
        ys.append(label)
    n = len(rows)
    if len(ys) != n:
        raise ValueError(
            f"{labels_path}: {len(ys)} labels for {n} feature rows"
        )
    y = np.asarray(ys, dtype=np.int64)
    C = int(y.max()) + 1 if y.size else 1
    if C < 2:
        raise ValueError(f"{labels_path}: labels name {C} class(es); a "
                         f"dataset needs at least 2 classes")
    g = Graph.from_edges(n, edges if edges else np.zeros((0, 2)))
    return g, NodeFeatures(H=np.asarray(rows, dtype=np.float64), d0=d0), Labels(y=y, C=C)


def homophily_ratio(g: Graph, labels: Labels) -> float:
    """Fraction of edges whose endpoints carry the same label.

    Raises ValueError on an edgeless graph (the ratio is undefined).
    """
    if g.m == 0:
        raise ValueError("homophily ratio undefined on a graph with no edges")
    yi = labels.y[g.edges[:, 0]]
    yj = labels.y[g.edges[:, 1]]
    return float(np.mean(yi == yj))


def make_split(labels: Labels, per_class: int, seed: int,
               val_fraction: float = 1.0 / 3.0) -> SplitMask:
    """Deterministic class-balanced split.

    Exactly per_class training nodes are drawn from each class (all of them if
    a class is smaller); the remaining nodes are shuffled once and divided into
    validation and test by val_fraction (default 1:2 val:test).
    """
    if per_class <= 0:
        raise ValueError("per_class must be positive")
    if not 0.0 <= val_fraction <= 1.0:
        raise ValueError("val_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n = labels.y.shape[0]
    train = []
    for c in range(labels.C):
        idx = np.flatnonzero(labels.y == c)
        perm = rng.permutation(idx)
        train.extend(perm[:per_class].tolist())
    train = np.sort(np.asarray(train, dtype=np.int64))
    pool = np.setdiff1d(np.arange(n, dtype=np.int64), train)
    pool = rng.permutation(pool)
    n_val = int(len(pool) * val_fraction)
    val = np.sort(pool[:n_val])
    test = np.sort(pool[n_val:])
    return SplitMask(train=train, val=val, test=test, seed=seed)


def nrs(embeddings: np.ndarray, g: Graph | None = None) -> float:
    """Mean pairwise cosine similarity across all node pairs.

    High values mean representations have collapsed toward a common direction
    (over-smoothing); orthogonal rows give 0, identical nonzero rows give 1.
    Zero rows contribute zero similarity to every pair they appear in.
    """
    Z = np.asarray(embeddings, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("embeddings must be 2-D (n, h)")
    n = Z.shape[0]
    if g is not None and g.n != n:
        raise ValueError(f"embeddings rows {n} != graph nodes {g.n}")
    if n < 2:
        return 1.0
    norms = np.linalg.norm(Z, axis=1)
    unit = np.divide(Z, norms[:, None], out=np.zeros_like(Z), where=norms[:, None] > 0)
    # sum over i<j of <u_i, u_j> equals (||sum_i u_i||^2 - sum_i ||u_i||^2) / 2
    s = unit.sum(axis=0)
    total = 0.5 * (s @ s - float(np.einsum("ij,ij->", unit, unit)))
    return float(total / (n * (n - 1) / 2))


def _pair_draws(n: int, rng: np.random.Generator, below: float):
    """(i, j, u) of the i<j pairs whose uniform draw u falls below `below`.

    One draw per pair in triu order, a block of rows at a time, so no n^2
    array is built; consecutive draws equal one long draw.
    """
    rows = max(1, 1_000_000 // max(n, 1))
    for start in range(0, n, rows):
        i = np.arange(start, min(start + rows, n))
        length = n - 1 - i   # row i holds the pairs (i, i+1), ..., (i, n-1)
        ends = np.cumsum(length)
        u = rng.random(int(ends[-1]))
        k = np.flatnonzero(u < below)
        u = u[k]   # the block's draws go before the next block's come
        r = np.searchsorted(ends, k, side="right")
        yield i[r], i[r] + 1 + k - (ends[r] - length[r]), u


def erdos_renyi(n: int, avg_degree: float, seed: int,
                ensure_connected: bool = False) -> Graph:
    """G(n, p) with p chosen to hit the requested expected average degree."""
    rng = np.random.default_rng(seed)
    p = min(1.0, avg_degree / max(n - 1, 1))
    edges = [np.zeros((0, 2), dtype=np.int64)]
    edges += [np.stack([i, j], axis=1) for i, j, _ in _pair_draws(n, rng, p)]
    e = np.concatenate(edges, axis=0)
    if ensure_connected and n > 1:
        order = rng.permutation(n)
        spine = np.stack([order[:-1], order[1:]], axis=1)
        e = np.concatenate([e, np.sort(spine, axis=1)], axis=0)
    return Graph.from_edges(n, e)


def synthetic_dataset(n: int, num_classes: int, d0: int, seed: int,
                      homophily: float = 0.8, avg_degree: float = 6.0,
                      noise: float = 1.0,
                      ) -> tuple[Graph, NodeFeatures, Labels]:
    """Planted-partition benchmark with class-informative Gaussian features.

    Edges are drawn pair by pair: a same-class pair is accepted with
    probability proportional to `homophily`, a cross-class pair with
    probability proportional to (1 - homophily), calibrated so the expected
    average degree matches `avg_degree`.  Features are a class prototype plus
    isotropic noise, so low `noise` makes the classes linearly separable.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, num_classes, size=n)
    counts = np.bincount(y, minlength=num_classes)
    pairs = n * (n - 1) // 2
    same_pairs = int((counts * (counts - 1) // 2).sum())
    # exact integer ratio, as the boolean mean over every pair was
    frac_same = same_pairs / pairs if pairs else 0.0
    # p_in/p_out calibrated so the expected edge homophily equals `homophily`
    # and the expected average degree equals `avg_degree`
    p_avg = min(1.0, avg_degree / max(n - 1, 1))
    p_in = min(1.0, p_avg * homophily / max(frac_same, 1e-12))
    p_out = min(1.0, p_avg * (1.0 - homophily) / max(1.0 - frac_same, 1e-12))
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for i, j, u in _pair_draws(n, rng, max(p_in, p_out)):
        keep = u < np.where(y[i] == y[j], p_in, p_out)
        edges.append(np.stack([i[keep], j[keep]], axis=1))
    g = Graph.from_edges(n, np.concatenate(edges, axis=0))
    prototypes = rng.normal(size=(num_classes, d0)) * 3.0
    H = prototypes[y] + rng.normal(size=(n, d0)) * noise
    H = np.abs(H)  # keep features nonnegative like bag-of-words inputs
    return g, NodeFeatures(H=H, d0=d0), Labels(y=y, C=num_classes)
