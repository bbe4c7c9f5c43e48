"""Command-line surface: staged commands plus the full experiment sweep.

Every command reads a JSON config (--config) and accepts targeted
overrides (--lambda, --seed, --out). Exit code 0 on success; errors are
reported with the failing stage and exit nonzero.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import data as datamod
from .archive import ModelState, load_model, save_model
from .errors import ConfigError, OodnetError
from .evalkit import write_metrics_csv
from .experiment import (RunConfig, _load_source, evaluate, run_calibration,
                         run_experiment, run_stage_one, run_stage_two)
from .nn import embed, extract_features


def _load_config(path, args) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = RunConfig.from_dict(raw)
    if getattr(args, "lam", None) is not None:
        cfg.lambdas = [args.lam]
    if getattr(args, "seed", None) is not None:
        cfg.seeds = [args.seed]
    if getattr(args, "out", None) is not None:
        cfg.output_dir = args.out
    return cfg


def _archive_path(cfg: RunConfig, args) -> str:
    if getattr(args, "model", None):
        return args.model
    lam, seed = cfg.lambdas[0], cfg.seeds[0]
    return os.path.join(cfg.output_dir, f"model_lam{lam:g}_seed{seed}.oodn")


def cmd_train(args):
    cfg = _load_config(args.config, args)
    os.makedirs(cfg.output_dir, exist_ok=True)
    main_train, _ = _load_source(cfg.main, anomaly=False)
    lam, seed = cfg.lambdas[0], cfg.seeds[0]
    model, centers, history = run_stage_one(main_train, lam, seed, cfg)
    state = ModelState(backbone=model, centers=centers,
                       meta={"lambda": lam, "seed": seed})
    path = _archive_path(cfg, args)
    save_model(path, state)
    for i, rec in enumerate(history):
        print(f"epoch {i}: loss={rec.loss:.6f} accuracy={rec.accuracy:.4f}")
    print(f"saved {path}")


def cmd_calibrate(args):
    cfg = _load_config(args.config, args)
    path = _archive_path(cfg, args)
    state = load_model(path)
    main_train, _ = _load_source(cfg.main, anomaly=False)
    state.detector = run_calibration(state.backbone, main_train, cfg.percentile)
    save_model(path, state)
    print(f"calibrated {len(state.detector.stats)} classes "
          f"(q={cfg.percentile}); updated {path}")


def cmd_train_head(args):
    cfg = _load_config(args.config, args)
    if cfg.anomaly is None:
        raise ConfigError("train-head requires an anomaly data source")
    path = _archive_path(cfg, args)
    state = load_model(path)
    main_train, _ = _load_source(cfg.main, anomaly=False)
    anomaly_train, _ = _load_source(cfg.anomaly, anomaly=True)
    state.head = run_stage_two(state.backbone, anomaly_train, main_train,
                               cfg.seeds[0], cfg)
    save_model(path, state)
    print(f"trained anomaly head; updated {path}")


def cmd_eval(args):
    cfg = _load_config(args.config, args)
    path = _archive_path(cfg, args)
    state = load_model(path)
    _, main_test = _load_source(cfg.main, anomaly=False)
    if cfg.anomaly is None:
        raise ConfigError("eval requires an anomaly data source")
    _, anomaly_test = _load_source(cfg.anomaly, anomaly=True)
    lam = state.meta.get("lambda", cfg.lambdas[0])
    seed = state.meta.get("seed", cfg.seeds[0])
    cell = evaluate(state, main_test, anomaly_test, lam, seed)
    rows = [
        {"lambda": lam, "seed": seed, "method": "classification",
         "f1": cell.classification_f1, "auc": None},
        {"lambda": lam, "seed": seed, "method": "semi-supervised",
         "f1": cell.semi_f1, "auc": cell.semi_auc},
    ]
    if cell.sup_f1 is not None:
        rows.append({"lambda": lam, "seed": seed, "method": "supervised",
                     "f1": cell.sup_f1, "auc": cell.sup_auc})
    out = getattr(args, "out", None) or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "eval_metrics.csv")
    write_metrics_csv(rows, csv_path)
    for row in rows:
        auc = "" if row["auc"] is None else f" auc={row['auc']:.4f}"
        print(f"{row['method']}: f1={row['f1']:.4f}{auc}")
    print(f"wrote {csv_path}")


def cmd_score(args):
    cfg = _load_config(args.config, args)
    state = load_model(_archive_path(cfg, args))
    if state.detector is None or state.detector.thresholds is None:
        raise ConfigError("archive has no calibrated detector; run calibrate")
    images = datamod.normalize(datamod.load_idx_file(args.image_file))
    if images.ndim == 2:
        images = images[None]
    feats, logits = embed(state.backbone, images)
    preds = logits.argmax(axis=1)
    normal = state.detector.is_normal_many(feats)
    scores = state.detector.anomaly_score_many(feats)
    head_p = state.head.forward_many(feats) if state.head is not None else None
    for i, (cls, ok, s) in enumerate(zip(preds, normal, scores)):
        verdict = "normal" if ok else "ood"
        line = f"{i}: class={cls} verdict={verdict} min_distance={s:.4f}"
        if head_p is not None:
            p = head_p[i]
            hv = "normal" if p >= state.head.tau else "ood"
            line += f" head_p={p:.4f} head_verdict={hv}"
        print(line)


def cmd_export_features(args):
    import csv as csvmod

    cfg = _load_config(args.config, args)
    state = load_model(_archive_path(cfg, args))
    _, main_test = _load_source(cfg.main, anomaly=False)
    feats = extract_features(state.backbone, main_test.images)
    out = getattr(args, "out", None) or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "features.csv")
    with open(path, "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow([f"f{i}" for i in range(feats.shape[1])] + ["label"])
        for row, label in zip(feats, main_test.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    print(f"wrote {path} ({len(feats)} rows, {feats.shape[1]} dims)")


def cmd_run_experiment(args):
    cfg = _load_config(args.config, args)
    results = run_experiment(cfg)
    for cell in results:
        sup = "" if cell.sup_f1 is None else \
            f" sup_f1={cell.sup_f1:.4f} sup_auc={cell.sup_auc:.4f}"
        print(f"lambda={cell.lam:g} seed={cell.seed} "
              f"cls_f1={cell.classification_f1:.4f} "
              f"semi_f1={cell.semi_f1:.4f} semi_auc={cell.semi_auc:.4f}{sup}")
    print(f"reports in {cfg.output_dir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodnet",
        description="Image classification with built-in anomaly detection")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, extra=None):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="override the balancing coefficient")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--model", default=None, help="model archive path")
        if extra:
            extra(p)
        p.set_defaults(fn=fn)
        return p

    add("train", cmd_train, "stage-one training (backbone + centroids)")
    add("calibrate", cmd_calibrate, "fit per-class statistics and thresholds")
    add("train-head", cmd_train_head, "stage-two training of the anomaly head")
    add("eval", cmd_eval, "evaluate a stored model")
    add("score", cmd_score, "score images from an IDX file",
        extra=lambda p: p.add_argument("image_file"))
    add("export-features", cmd_export_features,
        "dump deep features of the main test split to CSV")
    add("run-experiment", cmd_run_experiment,
        "full sweep over lambdas and seeds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except OodnetError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
