"""End-to-end acceptance gates.

Each test is one published criterion at its stated tolerance; the terminal
summary prints one verdict line per criterion.  Checks against reference
node-classification corpora (web-page and wiki graphs) look for converted
JSON files under data/real/ and skip, naming the missing file, when the
corpus has not been fetched; everything else runs on synthetic fixtures.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from otsheaf.cli import main
from otsheaf.graphs import (
    homophily_ratio,
    load_graph,
    make_split,
    save_graph,
    synthetic_dataset,
)
from otsheaf.training import (
    Dataset,
    TrainConfig,
    evaluate,
    fit,
    oversmoothing_sweep,
    risk_variance_series,
    write_reliability,
)
from otsheaf.verify import (
    check_cg_bound,
    check_gap_ascent,
    check_gradcheck,
    check_sparsifier,
    check_variance,
)

REAL_DATA = Path(__file__).resolve().parent.parent / "data" / "real"

TABLE_ACCURACY = {"cornell": 57.2, "texas": 63.5, "wisconsin": 64.7}
TABLE_HOMOPHILY = {"cora": 0.81, "texas": 0.06}


def _real_dataset(name: str):
    path = REAL_DATA / f"{name}.json"
    if not path.exists():
        pytest.skip(f"needs {path.relative_to(REAL_DATA.parent.parent)}")
    return load_graph(path)


def _split_dataset(g, feats, labels, seed: int, per_class: int = 20) -> Dataset:
    split = make_split(labels, per_class=per_class, seed=seed)
    return Dataset(g=g, feats=feats, labels=labels, split=split)


def test_criterion_01_desk_scale_accuracy():
    for name, target in TABLE_ACCURACY.items():
        g, feats, labels = _real_dataset(name)
        cfg = TrainConfig()
        accs = []
        for seed in range(10):
            data = _split_dataset(g, feats, labels, seed)
            params, _ = fit(data, cfg)
            accs.append(evaluate(params, data, cfg).test_acc * 100.0)
        mean = float(np.mean(accs))
        assert abs(mean - target) <= 5.0, (
            f"{name}: mean accuracy {mean:.1f} vs published {target}")


def test_criterion_02_homophily_ratios():
    for name, target in TABLE_HOMOPHILY.items():
        g, _, labels = _real_dataset(name)
        ratio = homophily_ratio(g, labels)
        assert ratio == pytest.approx(target, abs=0.01), (
            f"{name}: homophily {ratio:.3f} vs published {target}")


def test_criterion_03_cg_iteration_bound():
    r = check_cg_bound()
    assert r.passed, "\n".join(r.detail)
    assert r.measured <= r.bound


def test_criterion_04_gap_ascent_monotone():
    r = check_gap_ascent()
    assert r.passed, "\n".join(r.detail)
    assert r.measured == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="the stated posterior-variance cap is not a theorem: the exact "
           "Beta posterior variance crosses it on part of the grid (for "
           "example gamma=2, n_tot=13, s=6 gives 0.008577 > 0.008333); "
           "the sixty-percent contraction clause does hold everywhere")
def test_criterion_05_posterior_variance_grid():
    r = check_variance()
    for line in r.detail:
        print(line)
    assert r.passed


def test_criterion_06_bound_contraction():
    g, feats, labels = _real_dataset("cornell")
    data = _split_dataset(g, feats, labels, seed=0)
    cfg = TrainConfig(patience=200)   # need the full series, not early stop
    _, reports = fit(data, cfg)
    stats = risk_variance_series(reports, warmup=20)
    assert stats.monotone_fraction >= 0.9, (
        f"monotone fraction {stats.monotone_fraction:.3f}")


def test_criterion_07_bound_validity():
    for name in TABLE_ACCURACY:
        g, feats, labels = _real_dataset(name)
        cfg = TrainConfig()
        held = 0
        for seed in range(10):
            data = _split_dataset(g, feats, labels, seed)
            params, reports = fit(data, cfg)
            best = max(reports, key=lambda r: r.val_acc)
            res = evaluate(params, data, cfg)
            idx = data.split.test
            probs = res.predictions[idx, labels.y[idx]]
            risk = float(-np.log(np.clip(probs, 1e-12, None)).mean()
                         / np.log(labels.C))
            held += min(risk, 1.0) <= best.bound
        assert held >= 9, f"{name}: bound held in {held}/10 seeds"


def test_criterion_08_gradient_correctness():
    r = check_gradcheck()
    assert r.passed, "\n".join(r.detail)
    assert r.measured <= 1e-4


def test_criterion_09_sparsifier_sandwich():
    r = check_sparsifier()
    assert r.passed, "\n".join(r.detail)
    assert r.measured >= 0.99


def test_criterion_10_oversmoothing_depth():
    g, feats, labels = _real_dataset("cora")
    data = _split_dataset(g, feats, labels, seed=0)
    rows = oversmoothing_sweep(data, [2, 8])
    acc = {(r["variant"], r["depth"]): r["test_acc"] * 100 for r in rows}
    nrs = {(r["variant"], r["depth"]): r["nrs"] for r in rows}
    we_drop = acc[("we_lift", 2)] - acc[("we_lift", 8)]
    scalar_drop = acc[("scalar_edge", 2)] - acc[("scalar_edge", 8)]
    assert we_drop <= 5.0, f"transport-lift drop {we_drop:.1f} points"
    assert scalar_drop >= 10.0, f"scalar drop {scalar_drop:.1f} points"
    assert nrs[("we_lift", 8)] < nrs[("scalar_edge", 8)]


def test_criterion_11_calibration_ece(tmp_path):
    g, feats, labels = _real_dataset("chameleon")
    data = _split_dataset(g, feats, labels, seed=0)
    cfg = TrainConfig()
    params, _ = fit(data, cfg)
    res = evaluate(params, data, cfg)
    out = tmp_path / "reliability.csv"
    write_reliability(res.reliability, out)
    assert out.stat().st_size > 0
    assert res.ece <= 0.15, f"ece {res.ece:.4f}"


def test_criterion_12_determinism(tmp_path):
    g, feats, labels = synthetic_dataset(n=24, num_classes=2, d0=6, seed=1,
                                         noise=0.4)
    toy = tmp_path / "toy.json"
    save_graph(toy, g, feats, labels)
    args = ["train", "--set", f"data.path={toy}", "--set", "train.epochs=4",
            "--set", "train.d_v=4", "--set", "data.per_class=5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    # wall-clock is the one field that cannot be bit-reproducible; every
    # other byte of the curve files must match exactly
    strip = []
    for run in ("a", "b"):
        rows = list(csv.reader(open(tmp_path / run / "curves.csv")))
        strip.append("\n".join(",".join(r[:-1]) for r in rows))
    assert strip[0] == strip[1]
    metrics = [json.loads((tmp_path / run / "metrics.json").read_text())
               for run in ("a", "b")]
    assert metrics[0] == metrics[1]
