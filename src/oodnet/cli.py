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
from .evalkit import write_csv, write_metrics_csv
from .experiment import (RunConfig, _load_source, _tag, evaluate,
                         run_calibration, run_experiment, run_stage_one,
                         run_stage_two)
from .nn import embed, extract_features


def _read(load, path, what):
    """load(path); a path that cannot be read is a ConfigError."""
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _load_config(path, args) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):   # the overrides are checked like the file
        for key, value in (("lambdas", args.lam), ("seeds", args.seed)):
            if value is not None:
                raw[key] = [value]
        if args.out is not None:
            raw["output_dir"] = args.out
    return RunConfig.from_dict(raw)


def _archive_path(cfg: RunConfig, args) -> str:
    if args.model:
        return args.model
    return os.path.join(cfg.output_dir,
                        f"model_{_tag(cfg.lambdas[0], cfg.seeds[0])}.oodn")


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
    state = _read(load_model, path, "model archive")
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
    state = _read(load_model, path, "model archive")
    main_train, _ = _load_source(cfg.main, anomaly=False)
    anomaly_train, _ = _load_source(cfg.anomaly, anomaly=True)
    model = state.backbone
    state.head = run_stage_two(extract_features(model, main_train.images),
                               extract_features(model, anomaly_train.images),
                               cfg.seeds[0], cfg)
    save_model(path, state)
    print(f"trained anomaly head; updated {path}")


def cmd_eval(args):
    cfg = _load_config(args.config, args)
    state = _read(load_model, _archive_path(cfg, args), "model archive")
    _, main_test = _load_source(cfg.main, anomaly=False)
    if cfg.anomaly is None:
        raise ConfigError("eval requires an anomaly data source")
    _, anomaly_test = _load_source(cfg.anomaly, anomaly=True)
    lam = state.meta.get("lambda", cfg.lambdas[0])
    seed = state.meta.get("seed", cfg.seeds[0])
    rows = evaluate(state, main_test, anomaly_test, lam, seed).rows()
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, "eval_metrics.csv")
    write_metrics_csv(rows, csv_path)
    for row in rows:
        auc = "" if row["auc"] is None else f" auc={row['auc']:.4f}"
        print(f"{row['method']}: f1={row['f1']:.4f}{auc}")
    print(f"wrote {csv_path}")


def cmd_score(args):
    cfg = _load_config(args.config, args)
    state = _read(load_model, _archive_path(cfg, args), "model archive")
    if state.detector is None or state.detector.thresholds is None:
        raise ConfigError("archive has no calibrated detector; run calibrate")
    images = datamod.normalize(
        _read(datamod.load_idx_file, args.image_file, "image file"))
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
    cfg = _load_config(args.config, args)
    state = _read(load_model, _archive_path(cfg, args), "model archive")
    _, main_test = _load_source(cfg.main, anomaly=False)
    feats = extract_features(state.backbone, main_test.images)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, "features.csv")
    write_csv(path, [f"f{i}" for i in range(feats.shape[1])] + ["label"],
              (row + [label] for row, label in zip(feats.tolist(),
                                                   main_test.labels.tolist())))
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
