"""Command-line surface: staged commands plus the full experiment sweep.

Every command reads a JSON config (--config) and accepts targeted
overrides (--lambda, --seed, --out); every command but run-experiment
also takes a model archive path (--model). ``main`` is the one error
boundary: a bad config or archive, or any file a command cannot read or
write, is reported as ``error [<command>]: ...`` with exit code 1.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import data as datamod
from .archive import ModelState, load_model, save_model
from .errors import ConfigError, OodnetError, json_field, parse_json
from .evalkit import write_csv, write_metrics_csv
from .experiment import (RunConfig, _load_split, archive_path, evaluate,
                         run_calibration, run_experiment, run_stage_one,
                         run_stage_two)
from .nn import embed, extract_features


def _load_config(args) -> RunConfig:
    with open(args.config, "rb") as fh:
        raw = parse_json(fh.read(), "config", ConfigError)
    if isinstance(raw, dict):   # the overrides are checked like the file
        for key, value in (("lambdas", args.lam), ("seeds", args.seed)):
            if value is not None:
                raw[key] = [value]
        if args.out is not None:
            raw["output_dir"] = args.out
    return RunConfig.from_dict(raw)


def _archive_path(cfg: RunConfig, args) -> str:
    return args.model or archive_path(cfg.output_dir, cfg.lambdas[0], cfg.seeds[0])


def _load_calibrated(cfg: RunConfig, args) -> ModelState:
    """The archive's state, which must hold a calibrated detector."""
    state = load_model(_archive_path(cfg, args))
    if state.detector is None or state.detector.thresholds is None:
        raise ConfigError("archive has no calibrated detector; run calibrate")
    return state


def cmd_train(cfg: RunConfig, args):
    main_train = _load_split(cfg.main, "train", anomaly=False)
    lam, seed = cfg.lambdas[0], cfg.seeds[0]
    model, centers, history = run_stage_one(main_train, lam, seed, cfg)
    state = ModelState(backbone=model, centers=centers,
                       meta={"lambda": lam, "seed": seed})
    path = _archive_path(cfg, args)
    save_model(path, state)
    for i, rec in enumerate(history):
        print(f"epoch {i}: loss={rec.loss:.6f} accuracy={rec.accuracy:.4f}")
    print(f"saved {path}")


def cmd_calibrate(cfg: RunConfig, args):
    path = _archive_path(cfg, args)
    state = load_model(path)
    main_train = _load_split(cfg.main, "train", anomaly=False)
    state.detector = run_calibration(
        extract_features(state.backbone, main_train.images), main_train.labels,
        cfg.percentile)
    save_model(path, state)
    print(f"calibrated {len(state.detector.stats)} classes "
          f"(q={cfg.percentile}); updated {path}")


def cmd_train_head(cfg: RunConfig, args):
    anomaly_train = _load_split(cfg.anomaly, "train", anomaly=True)
    path = _archive_path(cfg, args)
    state = load_model(path)
    main_train = _load_split(cfg.main, "train", anomaly=False)
    model = state.backbone
    state.head = run_stage_two(extract_features(model, main_train.images),
                               extract_features(model, anomaly_train.images),
                               cfg.seeds[0], cfg)
    save_model(path, state)
    print(f"trained anomaly head; updated {path}")


def cmd_eval(cfg: RunConfig, args):
    anomaly_test = _load_split(cfg.anomaly, "test", anomaly=True)
    state = _load_calibrated(cfg, args)
    # the cell's lambda and seed: the archive's, else the config's first
    meta = {"lambda": cfg.lambdas[0], "seed": cfg.seeds[0], **state.meta}
    lam, seed = (json_field(meta, key, kind, "meta", 0)
                 for key, kind in (("lambda", float), ("seed", int)))
    main_test = _load_split(cfg.main, "test", anomaly=False)
    model = state.backbone
    rows = evaluate(state, *embed(model, main_test.images), main_test.labels,
                    extract_features(model, anomaly_test.images), lam,
                    seed).rows()
    csv_path = os.path.join(cfg.output_dir, "eval_metrics.csv")
    write_metrics_csv(rows, csv_path)
    for row in rows:
        auc = "" if row["auc"] is None else f" auc={row['auc']:.4f}"
        print(f"{row['method']}: f1={row['f1']:.4f}{auc}")
    print(f"wrote {csv_path}")


def cmd_score(cfg: RunConfig, args):
    state = _load_calibrated(cfg, args)
    feats, logits = embed(state.backbone, datamod.load_idx_file(args.image_file))
    verdict = {True: "normal", False: "ood"}
    lines = [f"{i}: class={cls} verdict={verdict[ok]} min_distance={s:.4f}"
             for i, (cls, ok, s) in enumerate(zip(
                 logits.argmax(axis=1).tolist(),
                 state.detector.is_normal_many(feats).tolist(),
                 state.detector.anomaly_score_many(feats).tolist()))]
    if state.head is not None:
        p = state.head.forward_many(feats)
        lines = [f"{line} head_p={p_i:.4f} head_verdict={verdict[ok]}"
                 for line, p_i, ok in zip(lines, p.tolist(),
                                          state.head.accepts(p).tolist())]
    print("\n".join(lines))


def cmd_export_features(cfg: RunConfig, args):
    state = load_model(_archive_path(cfg, args))
    main_test = _load_split(cfg.main, "test", anomaly=False)
    feats = extract_features(state.backbone, main_test.images)
    path = os.path.join(cfg.output_dir, "features.csv")
    write_csv(path, [f"f{i}" for i in range(feats.shape[1])] + ["label"],
              (row + [label] for row, label in zip(feats.tolist(),
                                                   main_test.labels.tolist())))
    print(f"wrote {path} ({len(feats)} rows, {feats.shape[1]} dims)")


def cmd_run_experiment(cfg: RunConfig, args):
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

    def add(name, fn, help_, extra=None, model=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="override the balancing coefficient")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")
        if model:
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
        "full sweep over lambdas and seeds", model=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(_load_config(args), args)
    except (OodnetError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
