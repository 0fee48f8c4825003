import json
import tracemalloc

import numpy as np
import pytest

from otsheaf.graphs import (
    Graph,
    Labels,
    NodeFeatures,
    convert_csv,
    erdos_renyi,
    homophily_ratio,
    load_graph,
    make_split,
    nrs,
    save_graph,
    synthetic_dataset,
)


def _write_json(tmp_path, obj, name="g.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def _toy_payload():
    return {
        "n": 3,
        "num_classes": 2,
        "d0": 2,
        "edges": [[1, 2], [2, 1], [0, 1]],
        "features": [1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        "labels": [0, 1, 1],
    }


class TestLoadGraph:
    def test_duplicate_and_reversed_edges_collapse(self, tmp_path):
        g, feats, labels = load_graph(_write_json(tmp_path, _toy_payload()))
        assert g.m == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert feats.H.shape == (3, 2)
        assert labels.C == 2

    def test_self_loops_dropped(self, tmp_path):
        obj = _toy_payload()
        obj["edges"] = [[0, 0], [0, 1]]
        g, _, _ = load_graph(_write_json(tmp_path, obj))
        assert g.m == 1

    def test_degrees_match_edges(self, tmp_path):
        g, _, _ = load_graph(_write_json(tmp_path, _toy_payload()))
        assert g.degrees.tolist() == [1, 2, 1]

    def test_parse_failure(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_graph(p)

    def test_feature_dimension_mismatch(self, tmp_path):
        obj = _toy_payload()
        obj["features"] = obj["features"][:-1]
        with pytest.raises(ValueError, match="features length"):
            load_graph(_write_json(tmp_path, obj))

    def test_label_out_of_range(self, tmp_path):
        obj = _toy_payload()
        obj["labels"] = [0, 1, 2]
        with pytest.raises(ValueError, match="label out of range"):
            load_graph(_write_json(tmp_path, obj))

    def test_one_class_rejected(self, tmp_path):
        # with C = 1 the normalized risk CE / ln C is 0/0 in every report
        obj = _toy_payload()
        obj["num_classes"] = 1
        obj["labels"] = [0, 0, 0]
        with pytest.raises(ValueError, match=r"g\.json: .*at least 2 classes"):
            load_graph(_write_json(tmp_path, obj))

    @pytest.mark.parametrize("key, value", [
        ("edges", [[0, 1.9], [1, 2]]),
        ("edges", [[0, 1], [2.5, 1]]),
        ("labels", [0, 1.7, 1]),
        ("n", 3.5),
        ("num_classes", 2.5),
        ("d0", 2.2),
    ])
    def test_non_integral_value_rejected(self, tmp_path, key, value):
        # int() would truncate each of these to a valid dataset
        obj = _toy_payload()
        obj[key] = value
        with pytest.raises(ValueError, match=rf"g\.json: '{key}' must hold "
                                             r"integers"):
            load_graph(_write_json(tmp_path, obj))

    @pytest.mark.parametrize("key, value, message", [
        ("n", "abc", "must hold integers"),            # a non-number
        ("labels", [0, "1", 1], "must hold integers"),
        ("edges", [[0, 1], [2]], "must hold integers"),  # a ragged list
        ("edges", [[0, 1], None], "must hold integers"),
        ("n", [3], "must be one integer"),             # a list for a count
        ("num_classes", [2], "must be one integer"),
        ("d0", [[2]], "must be one integer"),
        ("labels", [False, True, True], "must hold integers"),  # booleans
        ("edges", [[0, True], [1, 2]], "must hold integers"),
        ("n", True, "must hold integers"),
    ])
    def test_bad_integer_value_names_file_and_key(self, tmp_path, key, value,
                                                  message):
        # numpy's own errors name neither, and it reads true as 1
        obj = _toy_payload()
        obj[key] = value
        with pytest.raises(ValueError, match=rf"g\.json: '{key}' {message}"):
            load_graph(_write_json(tmp_path, obj))

    def test_non_number_feature_names_file_and_key(self, tmp_path):
        obj = _toy_payload()
        obj["features"][3] = "abc"
        with pytest.raises(ValueError,
                           match=r"g\.json: 'features' must hold numbers"):
            load_graph(_write_json(tmp_path, obj))

    @pytest.mark.parametrize("features", [
        [True, False, 0.0, 1.0, 1.0, 1.0],       # numpy reads true as 1.0
        [1.0, 0.0, 0.0, 1.0, 1.0, False],
        [True] * 6,
        [[1.0, 0.0], [0.0, True], [1.0, 1.0]],   # rows, one per node
        [1.0, 0.0, 0.0, 1.0, 1.0, None]])
    def test_boolean_feature_names_file_and_key(self, tmp_path, features):
        obj = _toy_payload()
        obj["features"] = features
        with pytest.raises(ValueError,
                           match=r"g\.json: 'features' must hold numbers"):
            load_graph(_write_json(tmp_path, obj))

    def test_feature_rows_and_integers_load(self, tmp_path):
        obj = _toy_payload()
        obj["features"] = [[1, 0], [0.5, 1], [1, 1]]
        _, feats, _ = load_graph(_write_json(tmp_path, obj))
        assert feats.H.dtype == np.float64
        assert feats.H.tolist() == [[1.0, 0.0], [0.5, 1.0], [1.0, 1.0]]

    def test_integral_floats_load_as_integers(self, tmp_path):
        obj = _toy_payload()
        obj["n"], obj["labels"] = 3.0, [0.0, 1.0, 1.0]
        obj["edges"] = [[1.0, 2.0], [0, 1]]
        g, _, labels = load_graph(_write_json(tmp_path, obj))
        assert g.n == 3 and g.edges.tolist() == [[0, 1], [1, 2]]
        assert labels.y.dtype == np.int64 and labels.y.tolist() == [0, 1, 1]

    def test_roundtrip(self, tmp_path):
        g, feats, labels = load_graph(_write_json(tmp_path, _toy_payload()))
        out = tmp_path / "copy.json"
        save_graph(out, g, feats, labels)
        g2, feats2, labels2 = load_graph(out)
        assert g2.edges.tolist() == g.edges.tolist()
        np.testing.assert_array_equal(feats2.H, feats.H)
        np.testing.assert_array_equal(labels2.y, labels.y)


class TestConvertCsv:
    def _write(self, tmp_path, edges, feats, labels):
        e = tmp_path / "edges.csv"
        f = tmp_path / "features.csv"
        l = tmp_path / "labels.csv"
        e.write_text(edges)
        f.write_text(feats)
        l.write_text(labels)
        return e, f, l

    def test_basic(self, tmp_path):
        paths = self._write(tmp_path, "0,1\n1,2\n", "1,0\n0,1\n1,1\n", "0\n1\n1\n")
        g, feats, labels = convert_csv(*paths)
        assert g.m == 2 and feats.d0 == 2 and labels.C == 2

    def test_bad_edge_row_names_line(self, tmp_path):
        paths = self._write(tmp_path, "0,1\nx,2\n", "1\n0\n1\n", "0\n1\n1\n")
        with pytest.raises(ValueError, match="edges.csv:2"):
            convert_csv(*paths)

    def test_ragged_features_names_line(self, tmp_path):
        paths = self._write(tmp_path, "0,1\n", "1,0\n0\n1,1\n", "0\n1\n1\n")
        with pytest.raises(ValueError, match="features.csv:2"):
            convert_csv(*paths)

    def test_one_class_rejected(self, tmp_path):
        paths = self._write(tmp_path, "0,1\n", "1\n0\n1\n", "0\n0\n0\n")
        with pytest.raises(ValueError,
                           match=r"labels\.csv: .*at least 2 classes"):
            convert_csv(*paths)

    def test_negative_label_names_line(self, tmp_path):
        # labels 0, 1, -1 would otherwise load as C = 2, and -1 would index
        # the last class
        paths = self._write(tmp_path, "0,1\n1,2\n", "1\n0\n1\n", "0\n1\n-1\n")
        with pytest.raises(ValueError,
                           match=r"labels\.csv:3: negative label -1"):
            convert_csv(*paths)

    def test_label_count_mismatch(self, tmp_path):
        paths = self._write(tmp_path, "0,1\n", "1\n0\n1\n", "0\n1\n")
        with pytest.raises(ValueError, match="labels"):
            convert_csv(*paths)


class TestHomophily:
    def test_triangle_same_label(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2], [0, 2]])
        assert homophily_ratio(g, Labels(y=np.zeros(3, dtype=np.int64), C=1)) == 1.0

    def test_path_alternating(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2]])
        labels = Labels(y=np.array([0, 1, 0]), C=2)
        assert homophily_ratio(g, labels) == 0.0

    def test_edgeless_raises(self):
        g = Graph.from_edges(3, np.zeros((0, 2)))
        with pytest.raises(ValueError):
            homophily_ratio(g, Labels(y=np.zeros(3, dtype=np.int64), C=1))

    def test_invariant_under_class_relabeling(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            g = erdos_renyi(30, 4.0, seed=trial)
            if g.m == 0:
                continue
            y = rng.integers(0, 4, size=30)
            perm = rng.permutation(4)
            a = homophily_ratio(g, Labels(y=y, C=4))
            b = homophily_ratio(g, Labels(y=perm[y], C=4))
            assert a == b


class TestMakeSplit:
    def _labels(self, seed=0, n=200, C=5):
        return Labels(y=np.random.default_rng(seed).integers(0, C, size=n), C=C)

    def test_deterministic(self):
        labels = self._labels()
        a = make_split(labels, per_class=20, seed=7)
        b = make_split(labels, per_class=20, seed=7)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.test, b.test)

    def test_different_seed_differs(self):
        labels = self._labels()
        a = make_split(labels, per_class=20, seed=7)
        b = make_split(labels, per_class=20, seed=8)
        assert not np.array_equal(a.train, b.train)

    def test_disjoint_and_exhaustive(self):
        labels = self._labels()
        s = make_split(labels, per_class=20, seed=3)
        parts = np.concatenate([s.train, s.val, s.test])
        assert len(np.unique(parts)) == len(parts) == 200

    def test_per_class_counts(self):
        labels = self._labels()
        s = make_split(labels, per_class=20, seed=3)
        for c in range(labels.C):
            assert int(np.sum(labels.y[s.train] == c)) == 20

    def test_small_class_takes_all(self):
        y = np.array([0] * 50 + [1] * 3)
        s = make_split(Labels(y=y, C=2), per_class=20, seed=0)
        assert int(np.sum(y[s.train] == 1)) == 3
        assert int(np.sum(y[s.train] == 0)) == 20

    def test_val_test_ratio_default_one_to_two(self):
        labels = self._labels()
        s = make_split(labels, per_class=20, seed=1)
        remainder = 200 - len(s.train)
        assert len(s.val) == remainder // 3
        assert len(s.test) == remainder - len(s.val)


class TestNrs:
    def test_identical_rows(self):
        Z = np.tile(np.array([1.0, 2.0, -1.0]), (5, 1))
        assert nrs(Z) == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        assert nrs(np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rows_contribute_zero(self):
        Z = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        # pairs: (0,2) similarity 1, pairs with the zero row contribute 0
        assert nrs(Z) == pytest.approx(1.0 / 3.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            Z = rng.normal(size=(n, 4))
            unit = Z / np.linalg.norm(Z, axis=1, keepdims=True)
            acc = [unit[i] @ unit[j] for i in range(n) for j in range(i + 1, n)]
            assert nrs(Z) == pytest.approx(float(np.mean(acc)), abs=1e-10)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(8, 6))
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert nrs(Z @ Q) == pytest.approx(nrs(Z), abs=1e-10)


class TestSynthetic:
    def test_erdos_renyi_degree(self):
        g = erdos_renyi(500, 10.0, seed=0)
        assert abs(g.degrees.mean() - 10.0) < 1.5

    def test_erdos_renyi_draws_one_uniform_per_pair_in_triu_order(self):
        # n=2100 spans five blocks of rows; the edges are those of one
        # draw over every i<j pair, so the block size cannot move them
        n = 2100
        i, j = np.triu_indices(n, k=1)
        keep = np.random.default_rng(4).random(i.size) < 6.0 / (n - 1)
        want = Graph.from_edges(n, np.stack([i[keep], j[keep]], axis=1))
        assert np.array_equal(erdos_renyi(n, 6.0, seed=4).edges, want.edges)

    def test_erdos_renyi_builds_no_index_array_over_all_pairs(self):
        # n=3000 has 4.5 M pairs: their (i, j) index arrays alone are 72 MB,
        # one block of rows draws about 1 M uniforms (8 MB)
        tracemalloc.start()
        try:
            erdos_renyi(3000, 6.0, seed=5, ensure_connected=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    @staticmethod
    def _dense_synthetic(n, num_classes, d0, seed, homophily=0.8,
                         avg_degree=6.0, noise=1.0):
        # synthetic_dataset as it was, with (n, n) and all-pairs arrays
        rng = np.random.default_rng(seed)
        y = rng.integers(0, num_classes, size=n)
        same = y[:, None] == y[None, :]
        frac_same = float(same[np.triu_indices(n, k=1)].mean())
        p_avg = min(1.0, avg_degree / max(n - 1, 1))
        p_in = min(1.0, p_avg * homophily / max(frac_same, 1e-12))
        p_out = min(1.0, p_avg * (1.0 - homophily)
                    / max(1.0 - frac_same, 1e-12))
        idx_i, idx_j = np.triu_indices(n, k=1)
        p_pair = np.where(same[idx_i, idx_j], p_in, p_out)
        keep = rng.random(idx_i.size) < p_pair
        g = Graph.from_edges(n, np.stack([idx_i[keep], idx_j[keep]], axis=1))
        prototypes = rng.normal(size=(num_classes, d0)) * 3.0
        H = np.abs(prototypes[y] + rng.normal(size=(n, d0)) * noise)
        return g, H, y

    @pytest.mark.parametrize("shape", [
        # the ascent_n40 and lift_n300 benchmark fixtures, the Cornell
        # shape, and n=1000, whose pairs span several blocks of rows
        dict(n=40, num_classes=3, d0=8, seed=0, noise=0.4),
        dict(n=300, num_classes=5, d0=64, seed=0),
        dict(n=183, num_classes=5, d0=1703, seed=0, homophily=0.1,
             avg_degree=3.0),
        dict(n=1000, num_classes=4, d0=6, seed=7, homophily=0.3),
    ])
    def test_synthetic_matches_the_all_pairs_draw(self, shape):
        g, feats, labels = synthetic_dataset(**shape)
        want_g, want_H, want_y = self._dense_synthetic(**shape)
        assert np.array_equal(g.edges, want_g.edges)
        assert np.array_equal(feats.H, want_H)
        assert np.array_equal(labels.y, want_y)

    def test_synthetic_builds_no_array_over_all_pairs(self):
        # n=3000 has 4.5 M pairs; the (n, n) class mask, the index arrays
        # and the per-pair probabilities peaked at 157 MB
        tracemalloc.start()
        try:
            synthetic_dataset(3000, 5, 16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"

    def test_synthetic_homophily_tracks_target(self):
        for target in (0.1, 0.5, 0.9):
            g, _, labels = synthetic_dataset(
                400, 3, 8, seed=11, homophily=target, avg_degree=10.0
            )
            assert abs(homophily_ratio(g, labels) - target) < 0.08

    def test_synthetic_features_separable(self):
        _, feats, labels = synthetic_dataset(120, 2, 6, seed=4, noise=0.3)
        mu0 = feats.H[labels.y == 0].mean(axis=0)
        mu1 = feats.H[labels.y == 1].mean(axis=0)
        assert np.linalg.norm(mu0 - mu1) > 1.0
