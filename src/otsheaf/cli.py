"""Command-line drivers: convert, train, verify.

Exit codes: 0 success, 1 runtime error, 2 verification failure.  Every
command is deterministic given its configuration and seed; run artifacts
land under the --out directory next to a manifest naming them and the
configuration hash they were produced from.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import REGISTRY, build_config
from .graphs import convert_csv, homophily_ratio, load_graph, make_split, save_graph
from .model import sheaf_laplacian
from .training import (
    Dataset,
    epoch_context,
    evaluate,
    fit,
    write_curves,
    write_reliability,
)
from .verify import CHECKS, run_checks


def _write_manifest(out_dir: Path, config_hash: str, artifacts) -> None:
    manifest = {"config_hash": config_hash,
                "artifacts": sorted(artifacts)}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_dataset(cfg) -> Dataset:
    path = cfg["data.path"]
    if not path:
        raise ValueError("data.path is required (set it in the config file "
                         "or with --set data.path=FILE)")
    g, feats, labels = load_graph(Path(path).resolve())
    split = make_split(labels, cfg["data.per_class"], cfg.seed,
                       cfg["data.val_fraction"])
    if not (split.val.size and split.test.size):   # metrics over no nodes
        raise ValueError(
            f"the split leaves {split.val.size} validation and "
            f"{split.test.size} test nodes of {g.n} (data.per_class="
            f"{cfg['data.per_class']}, data.val_fraction="
            f"{cfg['data.val_fraction']:g}); both must be non-empty")
    return Dataset(g=g, feats=feats, labels=labels, split=split)


def _homophily(g, labels) -> float | None:
    """homophily_ratio, or None on an edgeless graph, where it is undefined."""
    return homophily_ratio(g, labels) if g.m else None


def cmd_convert(args) -> int:
    g, feats, labels = convert_csv(args.edges, args.features, args.labels)
    save_graph(args.output, g, feats, labels)
    h = _homophily(g, labels)
    shown = "undefined" if h is None else f"{h:.4f}"
    print(f"wrote {args.output}: n={g.n} m={g.m} d0={feats.d0} "
          f"C={labels.C} homophily={shown}")
    return 0


def _dump_laplacian(params, data, cfg, path: Path) -> None:
    """`row col value` triplets of the trained operator, as the model builds it."""
    ctx = epoch_context(data, params.W_proj, cfg, "we_lift")
    L = sheaf_laplacian(params.W_theta, ctx.plans, ctx.edges, ctx.n)
    rows, cols, vals = L.coo_rows()
    with open(path, "w") as fh:
        for r, c, v in zip(rows, cols, vals):
            fh.write(f"{r} {c} {v:.17g}\n")


def cmd_train(args) -> int:
    cfg = build_config(args.config, args.set, args.out)
    if cfg["train.epochs"] < 1:
        raise ValueError("train.epochs must be at least 1: a run reports "
                         "its best epoch")
    data = _load_dataset(cfg)
    tc = cfg.train_config()
    out_dir = cfg.out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    params, reports = fit(data, tc)
    res = evaluate(params, data, tc)
    best_epoch = max(range(len(reports)), key=lambda t: reports[t].val_acc)

    write_curves(reports, out_dir / "curves.csv")
    write_reliability(res.reliability, out_dir / "reliability.csv")
    metrics = {
        "train_acc": res.train_acc,
        "val_acc": res.val_acc,
        "test_acc": res.test_acc,
        "ece": res.ece,
        "nrs": res.nrs,
        "bound": reports[best_epoch].bound,
        "lambda2": reports[best_epoch].lambda2,
        "best_epoch": best_epoch,
        "epochs_run": len(reports),
        "homophily": _homophily(data.g, data.labels),
        "config": cfg.values,
    }
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    artifacts = ["curves.csv", "reliability.csv", "metrics.json"]
    if args.dump_laplacian:
        _dump_laplacian(params, data, tc, out_dir / "laplacian.txt")
        artifacts.append("laplacian.txt")
    _write_manifest(out_dir, cfg.hash(), artifacts)
    print(f"test accuracy {res.test_acc:.4f}, ece {res.ece:.4f}, "
          f"{len(reports)} epochs; artifacts in {out_dir}")
    return 0


def cmd_verify(args) -> int:
    results = run_checks(None if args.which == "all" else [args.which])
    for r in results:
        print(r.summary())
        for line in r.detail:
            print("   ", line)
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otsheaf",
        description="Transport-lifted sheaf diffusion: dataset conversion, "
                    "training, and theorem verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="assemble a JSON dataset from CSVs")
    p.add_argument("edges", help="CSV of i,j pairs")
    p.add_argument("features", help="CSV of per-node feature rows")
    p.add_argument("labels", help="CSV of per-node integer labels")
    p.add_argument("output", help="destination JSON path")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="fit a model and write run artifacts")
    p.add_argument("--config", default=None,
                   help="key = value configuration file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable); known keys: "
                        + ", ".join(sorted(REGISTRY)))
    p.add_argument("--out", default="runs", help="artifact directory")
    p.add_argument("--dump-laplacian", action="store_true",
                   help="also write the trained operator as "
                        "'row col value' triplets")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="run empirical checks of the "
                                      "theoretical claims")
    p.add_argument("which", nargs="?", default="all",
                   choices=["all", *CHECKS])
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verification
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
