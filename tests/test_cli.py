import csv
import json

import numpy as np
import pytest

from otsheaf.cli import main
from otsheaf.config import build_config
from otsheaf.graphs import Graph, load_graph, save_graph, synthetic_dataset


@pytest.fixture()
def toy_json(tmp_path):
    g, feats, labels = synthetic_dataset(n=24, num_classes=2, d0=6, seed=1,
                                         noise=0.4)
    path = tmp_path / "toy.json"
    save_graph(path, g, feats, labels)
    return path


def _write_csvs(tmp_path, g, feats, labels, duplicate_first_edge=False):
    paths = {}
    with open(tmp_path / "edges.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerows(g.edges.tolist())
        if duplicate_first_edge:
            w.writerow(g.edges[0].tolist())
    with open(tmp_path / "features.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(feats.H.tolist())
    with open(tmp_path / "labels.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([[y] for y in labels.y.tolist()])
    for name in ("edges", "features", "labels"):
        paths[name] = str(tmp_path / f"{name}.csv")
    return paths


def _train_args(toy_json, out_dir, *extra):
    return ["train",
            "--set", f"data.path={toy_json}",
            "--set", "train.epochs=3",
            "--set", "train.d_v=4",
            "--set", "data.per_class=5",
            "--out", str(out_dir), *extra]


class TestConvert:
    def test_roundtrip_with_dedup(self, tmp_path, capsys):
        g, feats, labels = synthetic_dataset(n=12, num_classes=2, d0=3,
                                             seed=0)
        paths = _write_csvs(tmp_path, g, feats, labels,
                            duplicate_first_edge=True)
        out = tmp_path / "out.json"
        code = main(["convert", paths["edges"], paths["features"],
                     paths["labels"], str(out)])
        assert code == 0
        g2, feats2, labels2 = load_graph(out)
        assert g2.m == g.m            # duplicate edge collapsed
        assert np.array_equal(g2.edges, g.edges)
        assert np.allclose(feats2.H, feats.H)
        assert np.array_equal(labels2.y, labels.y)
        assert f"n={g.n}" in capsys.readouterr().out

    def test_edgeless_graph_reports_undefined_homophily(self, tmp_path,
                                                        capsys):
        # homophily is undefined without edges; the JSON is still written
        # and the command succeeds
        _, feats, labels = synthetic_dataset(n=12, num_classes=2, d0=3,
                                             seed=0)
        paths = _write_csvs(tmp_path, Graph.from_edges(12, []), feats, labels)
        out = tmp_path / "out.json"
        code = main(["convert", paths["edges"], paths["features"],
                     paths["labels"], str(out)])
        assert code == 0
        assert load_graph(out)[0].m == 0
        printed = capsys.readouterr().out.split()
        assert "m=0" in printed and "homophily=undefined" in printed

    def test_malformed_edge_row_exits_one_with_line_number(self, tmp_path,
                                                           capsys):
        (tmp_path / "edges.csv").write_text("0,1\n2,x\n")
        (tmp_path / "features.csv").write_text("1.0\n1.0\n1.0\n")
        (tmp_path / "labels.csv").write_text("0\n1\n0\n")
        code = main(["convert", str(tmp_path / "edges.csv"),
                     str(tmp_path / "features.csv"),
                     str(tmp_path / "labels.csv"),
                     str(tmp_path / "out.json")])
        assert code == 1
        assert ":2" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_and_row_count(self, toy_json, tmp_path):
        out = tmp_path / "run"
        assert main(_train_args(toy_json, out)) == 0
        with open(out / "curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3     # header plus one row per epoch
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["epochs_run"] == 3
        assert metrics["config"]["train.epochs"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"curves.csv", "metrics.json",
                                              "reliability.csv"}
        expected = build_config(
            overrides=[f"data.path={toy_json}", "train.epochs=3",
                       "train.d_v=4", "data.per_class=5"])
        assert manifest["config_hash"] == expected.hash()
        with open(out / "reliability.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["bin_low", "bin_high", "confidence", "accuracy",
                          "count"]

    def test_identical_seeds_identical_curves(self, toy_json, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(_train_args(toy_json, out1)) == 0
        assert main(_train_args(toy_json, out2)) == 0
        # wall-clock column is the only nondeterministic field
        for f1, f2 in [(out1 / "curves.csv", out2 / "curves.csv")]:
            rows1 = [r[:-1] for r in csv.reader(f1.open())]
            rows2 = [r[:-1] for r in csv.reader(f2.open())]
            assert rows1 == rows2

    def test_laplacian_dump_is_symmetric_coo(self, toy_json, tmp_path):
        out = tmp_path / "run"
        assert main(_train_args(toy_json, out, "--dump-laplacian")) == 0
        triples = [line.split() for line in
                   (out / "laplacian.txt").read_text().splitlines()]
        entries = {(int(r), int(c)): float(v) for r, c, v in triples}
        assert entries
        for (r, c), v in entries.items():
            assert entries[(c, r)] == pytest.approx(v, abs=1e-12)

    def test_laplacian_dump_lists_every_block_entry_row_major(
            self, toy_json, tmp_path, monkeypatch):
        # the file holds the operator's explicit entries in row-major order,
        # as the COO reference of the same blocks lists them
        import otsheaf.cli as cli
        from tests.test_laplacian import coo_reference_csr
        built = []
        real = cli.sheaf_laplacian

        def kept(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(cli, "sheaf_laplacian", kept)
        out = tmp_path / "run"
        assert main(_train_args(toy_json, out, "--dump-laplacian")) == 0
        assert len(built) == 1
        ref = coo_reference_csr(built[0]).tocoo()
        expected = "".join(f"{r} {c} {v:.17g}\n"
                           for r, c, v in zip(ref.row, ref.col, ref.data))
        assert (out / "laplacian.txt").read_text() == expected

    def test_laplacian_dump_is_the_operator_of_the_trained_model(
            self, toy_json, tmp_path, monkeypatch):
        # the dumped triplets are coo_rows() of the operator that
        # forward_tape builds from the parameters the fit returned
        import otsheaf.cli as cli
        from otsheaf.model import forward_tape
        from otsheaf.training import epoch_context
        fits = []
        real = cli.fit

        def kept(data, cfg):
            out = real(data, cfg)
            fits.append((data, cfg, out[0]))
            return out

        monkeypatch.setattr(cli, "fit", kept)
        out = tmp_path / "run"
        assert main(_train_args(toy_json, out, "--dump-laplacian")) == 0
        [(data, cfg, params)] = fits
        ctx = epoch_context(data, params.W_proj, cfg, "we_lift")
        rows, cols, vals = forward_tape(params, ctx)[2]["L"].coo_rows()
        expected = "".join(f"{r} {c} {v:.17g}\n"
                           for r, c, v in zip(rows, cols, vals))
        assert vals.size > 0
        assert (out / "laplacian.txt").read_text() == expected

    def test_lambda2_is_the_gap_of_the_best_operator(self, toy_json, tmp_path,
                                                     monkeypatch):
        # metrics.json's lambda2 describes the operator the model used: the
        # normalized gap of the Laplacian built from the best epoch's
        # parameters, which the fit returns
        import otsheaf.cli as cli
        from otsheaf.laplacian import normalized_range_gap
        from otsheaf.model import sheaf_laplacian
        from otsheaf.training import epoch_context
        fits = []
        real = cli.fit

        def kept(data, cfg):
            out = real(data, cfg)
            fits.append((data, cfg, out[0]))
            return out

        monkeypatch.setattr(cli, "fit", kept)
        out = tmp_path / "run"
        assert main(_train_args(toy_json, out)) == 0
        [(data, cfg, params)] = fits
        ctx = epoch_context(data, params.W_proj, cfg, "we_lift")
        L = sheaf_laplacian(params.W_theta, ctx.plans, ctx.edges, ctx.n)
        expected = normalized_range_gap(L, seed=cfg.seed).lambda2
        metrics = json.loads((out / "metrics.json").read_text())
        assert expected > 0
        assert metrics["lambda2"] == pytest.approx(expected, rel=1e-12)

    def test_edgeless_graph_writes_null_homophily(self, tmp_path):
        # the fit runs on a graph without edges, so the run writes every
        # artifact; its undefined homophily is null in metrics.json
        _, feats, labels = synthetic_dataset(n=20, num_classes=2, d0=6,
                                             seed=1, noise=0.4)
        path = tmp_path / "edgeless.json"
        save_graph(path, Graph.from_edges(20, []), feats, labels)
        out = tmp_path / "run"
        assert main(_train_args(path, out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["homophily"] is None
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"curves.csv", "metrics.json",
                                              "reliability.csv"}

    def test_missing_data_path_exits_one(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "data.path" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, toy_json, tmp_path, capsys):
        code = main(["train", "--set", f"data.path={toy_json}",
                     "--set", "train.epochz=3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "train.epochz" in capsys.readouterr().err

    def test_gap_steps_key_exits_one(self, toy_json, tmp_path, capsys):
        # training runs no gap ascent by default, and its step count is no
        # config key
        code = main(["train", "--set", f"data.path={toy_json}",
                     "--set", "train.gap_steps=3",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config key: 'train.gap_steps'" in err

    @pytest.mark.parametrize("source, key, text", [
        ("--set", "train.dt", "0.2"), ("--set", "train.gamma_cap", "10"),
        ("--config", "ot.eps", "0.1")])
    def test_removed_trainer_key_exits_one_before_fitting(
            self, toy_json, tmp_path, capsys, monkeypatch, source, key, text):
        # the values behind these keys are constants of `training` now
        import otsheaf.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr(cli, "fit", never)
        if source == "--set":
            extra = ["--set", f"{key}={text}"]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"{key} = {text}\n")
            extra = ["--config", str(cfg_file)]
        code = main(["train", "--set", f"data.path={toy_json}", *extra,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert (f"unknown config key: '{key}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extra, val, test", [
        ([], 0, 0),                               # 40 nodes, 3 x 20 to train
        (["data.per_class=5", "data.val_fraction=0"], 0, 25),
        (["data.per_class=5", "data.val_fraction=1"], 25, 0),
    ])
    def test_empty_validation_or_test_set_exits_one_before_fitting(
            self, tmp_path, capsys, monkeypatch, extra, val, test):
        # over an empty set val_acc, test_acc and ece would read 0.0
        import otsheaf.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr(cli, "fit", never)
        g, feats, labels = synthetic_dataset(n=40, num_classes=3, d0=8,
                                             seed=0)
        path = tmp_path / "small.json"
        save_graph(path, g, feats, labels)
        sets = [arg for key in extra for arg in ("--set", key)]
        code = main(["train", "--set", f"data.path={path}", *sets,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{val} validation and {test} test nodes of 40" in err
        assert "data.per_class=" in err and "data.val_fraction=" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, name", [("train.lr", "lr")])
    def test_non_finite_setting_exits_one_before_fitting(
            self, toy_json, tmp_path, capsys, monkeypatch, key, name):
        import otsheaf.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr(cli, "fit", never)
        code = main(["train", "--set", f"data.path={toy_json}",
                     "--set", "data.per_class=5", "--set", f"{key}=inf",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_no_epochs_exits_one_before_fitting(self, toy_json, tmp_path,
                                                capsys, monkeypatch, epochs):
        import otsheaf.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr(cli, "fit", never)
        code = main(["train", "--set", f"data.path={toy_json}",
                     "--set", f"train.epochs={epochs}",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "train.epochs must be at least 1" in err
        assert "best epoch" in err
        assert not (tmp_path / "x").exists()


class TestVerifyCommand:
    def test_passing_check_exits_zero(self, capsys):
        assert main(["verify", "gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "gradcheck" in out

    def test_failing_check_exits_two(self, capsys):
        assert main(["verify", "variance"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_unknown_check_is_a_usage_error(self, capsys):
        assert main(["verify", "bogus"]) == 1

