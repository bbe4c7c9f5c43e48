"""Acceptance suite. Each test prints one pass/fail line.

Criteria 4-8 and the split-A part of criterion 9 train on real MNIST /
FashionMNIST IDX files and are skipped unless OODNET_DATA_DIR points at
a directory containing mnist/ and fashion-mnist/ subdirectories with the
standard ubyte files. Everything else runs on synthetic data.

Run: pytest tests/test_acceptance.py -v -s
"""
import os
import time
from statistics import median

import numpy as np
import pytest

from conftest import f64_setup
from oodnet import (Backbone, Centers, ClassStats, DetectorModel, OodHead,
                    TrainConfig, confusion, embed, extract_features, f1,
                    fit_stats, grad_check, pca2, roc, split_classes, train)
from oodnet.archive import load_model
from oodnet.data import load_idx_dataset
from oodnet.experiment import (RunConfig, _load_split, evaluate,
                               run_calibration, run_experiment)
from oodnet.head import HeadTrainConfig, train_head_on_features

# ---------------------------------------------------------------------------
# reporting

def check(num, desc, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\ncriterion {num}: {status} - {desc}{suffix}")
    assert condition, f"criterion {num} failed: {desc}{suffix}"


# ---------------------------------------------------------------------------
# real-data plumbing

DATA_DIR = os.environ.get("OODNET_DATA_DIR", "")
_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
          "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _have(subdir):
    return DATA_DIR and all(
        os.path.exists(os.path.join(DATA_DIR, subdir, f)) for f in _FILES)


needs_mnist = pytest.mark.skipif(
    not _have("mnist"),
    reason="MNIST IDX files not found; set OODNET_DATA_DIR (expects "
           "mnist/train-images-idx3-ubyte etc.)")
needs_fashion = pytest.mark.skipif(
    not (_have("mnist") and _have("fashion-mnist")),
    reason="MNIST+FashionMNIST IDX files not found; set OODNET_DATA_DIR")

_dataset_cache = {}
_cell_cache = {}


def real_dataset(subdir, split, role):
    key = (subdir, split)
    if key not in _dataset_cache:
        prefix = "train" if split == "train" else "t10k"
        base = os.path.join(DATA_DIR, subdir)
        _dataset_cache[key] = load_idx_dataset(
            os.path.join(base, f"{prefix}-images-idx3-ubyte"),
            os.path.join(base, f"{prefix}-labels-idx1-ubyte"), role)
    ds = _dataset_cache[key]
    return type(ds)(ds.images, ds.labels, ds.class_map, role)


def get_split(name):
    """-> (main_train, main_test, anomaly_train or None, anomaly_test)."""
    if name == "digits-vs-fashion":
        return (real_dataset("mnist", "train", "main-train"),
                real_dataset("mnist", "test", "main-test"),
                real_dataset("fashion-mnist", "train", "anomaly"),
                real_dataset("fashion-mnist", "test", "anomaly"))
    if name == "digits-only":
        return (real_dataset("mnist", "train", "main-train"),
                real_dataset("mnist", "test", "main-test"), None, None)
    if name == "zero-holdout":
        tr = real_dataset("mnist", "train", "main-train")
        te = real_dataset("mnist", "test", "main-test")
        keep = set(range(1, 10))
        return (split_classes(tr, keep),
                split_classes(te, keep),
                None,
                split_classes(real_dataset("mnist", "test", "anomaly"), {0}))
    raise ValueError(name)


def train_cell(split_name, lam, seed, epochs=3, with_head=False):
    """Train + calibrate (+ head) one cell; cached across criteria."""
    key = (split_name, lam, seed, with_head)
    if key in _cell_cache:
        return _cell_cache[key]
    main_train, main_test, anom_train, anom_test = get_split(split_name)
    model = Backbone(main_train.n_classes, input_side=28, seed=seed)
    centers = Centers(main_train.n_classes, model.feature_dim, seed=seed)
    train(model, centers, main_train,
          TrainConfig(epochs=epochs, lam=lam, seed=seed))
    det = run_calibration(extract_features(model, main_train.images),
                          main_train.labels, 0.975)

    feats_in = extract_features(model, main_test.images)
    preds = np.concatenate([
        model.forward(main_test.images[i:i + 1024])[1].argmax(axis=1)
        for i in range(0, len(main_test), 1024)])
    cls_f1 = f1(confusion(main_test.labels, preds, main_train.n_classes),
                "macro")

    result = {"model": model, "centers": centers, "det": det,
              "cls_f1": cls_f1, "feats_in": feats_in}
    if anom_test is None:
        _cell_cache[key] = result
        return result
    feats_out = extract_features(model, anom_test.images)
    feats_all = np.concatenate([feats_in, feats_out])
    is_ood = np.concatenate([np.zeros(len(feats_in), bool),
                             np.ones(len(feats_out), bool)])
    ood_pred = (~det.is_normal_many(feats_all)).astype(int)
    result["semi_f1"] = f1(confusion(is_ood.astype(int), ood_pred, 2),
                           "binary-positive")
    result["semi_auc"] = roc(det.anomaly_score_many(feats_all), is_ood).auc
    result["feats_out"] = feats_out
    if with_head:
        head = OodHead(model.feature_dim, seed=seed, tau=0.5)
        feats_main_tr = extract_features(model, main_train.images)
        feats_anom_tr = extract_features(model, anom_train.images)
        train_head_on_features(head, feats_main_tr, feats_anom_tr,
                               HeadTrainConfig(epochs=5, seed=seed))
        p = head.forward_many(feats_all)
        sup_pred = (p < head.tau).astype(int)
        result["sup_f1"] = f1(confusion(is_ood.astype(int), sup_pred, 2),
                              "binary-positive")
        result["sup_auc"] = roc(p, is_ood, higher_is_anomalous=False).auc
    _cell_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_correctness():
    start = time.time()
    model, centers, batch = f64_setup()
    worst = 0.0
    worst = max(worst, grad_check(model, batch, eps=1e-5, n_samples=120,
                                  seed=0))                       # L_S
    worst = max(worst, grad_check(model, batch, eps=1e-5, lam=1.0,
                                  centers=centers, n_samples=120,
                                  seed=1))                       # combined
    worst = max(worst, grad_check(model, batch, eps=1e-5, lam=10.0,
                                  centers=centers, n_samples=60,
                                  seed=2))                       # L_C-heavy

    # head gradients via central differences
    rng = np.random.default_rng(3)
    head = OodHead(6, seed=3).astype(np.float64)
    X = rng.normal(size=(5, 6))
    y = rng.integers(0, 2, 5).astype(float)

    def head_loss():
        p = np.clip(head.forward_many(X), 1e-7, 1 - 1e-7)
        return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).sum())

    tape = []
    grads = head.backward(head.forward_many(X, tape) - y, tape)
    params = head.parameters()
    eps = 1e-6
    for k, p in enumerate(params):
        flat = p.reshape(-1)
        for idx in rng.choice(flat.size, size=min(25, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = head_loss()
            flat[idx] = orig - eps
            down = head_loss()
            flat[idx] = orig
            num = (up - down) / (2 * eps)
            ana = grads[k].reshape(-1)[idx]
            worst = max(worst, abs(ana - num) / max(abs(ana), abs(num), 1e-3))
    elapsed = time.time() - start
    check(1, "analytic gradients match central differences (<= 1e-5)",
          worst <= 1e-5 and elapsed < 60,
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(0)
    # Mahalanobis factorized vs explicit inverse, d <= 10
    dist_err = 0.0
    for d in (2, 4, 7, 10):
        A = rng.normal(size=(d, d))
        S = A @ A.T + d * np.eye(d)
        mu = rng.normal(size=d)
        stats = ClassStats._from_moments(mu, S, 3 * d)
        for _ in range(10):
            x = rng.normal(size=d)
            inv = np.linalg.inv(S + stats.epsilon * np.eye(d))
            naive = np.sqrt((x - mu) @ inv @ (x - mu))
            dist_err = max(dist_err,
                           abs(stats.mahalanobis(x) - naive) / naive)

    # trapezoidal AUC vs exhaustive pairwise concordance, <= 50 samples
    auc_err = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 51))
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
        labels = rng.random(n) > 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        pos, neg = scores[labels], scores[~labels]
        conc = sum(1.0 if a > b else (0.5 if a == b else 0.0)
                   for a in pos for b in neg) / (len(pos) * len(neg))
        auc_err = max(auc_err, abs(roc(scores, labels).auc - conc))

    # covariance vs direct summation
    cov_err = 0.0
    for _ in range(5):
        feats = rng.normal(size=(30, 5))
        stats = ClassStats.fit(feats)
        mu = feats.sum(axis=0) / len(feats)
        S = sum(np.outer(x - mu, x - mu) for x in feats) / (len(feats) - 1)
        cov_err = max(cov_err, np.abs(stats.cov - S).max())

    # AUC agreement is exact up to float summation order (ulp-level)
    check(2, "factorized distance / AUC / covariance match oracles",
          dist_err <= 1e-8 and auc_err <= 1e-12 and cov_err <= 1e-12,
          f"dist {dist_err:.1e}, auc {auc_err:.1e}, cov {cov_err:.1e}")


def test_criterion_3_calibration_coverage():
    rng = np.random.default_rng(1)
    per_class = 400
    feats, labels = [], []
    for j in range(4):
        A = rng.normal(size=(5, 5))
        feats.append(rng.normal(size=(per_class, 5)) @ A + 10 * j)
        labels.append(np.full(per_class, j))
    feats, labels = np.concatenate(feats), np.concatenate(labels)
    det = DetectorModel(fit_stats(feats, labels), percentile=0.975)
    det.calibrate(feats, labels)
    det.snap32()
    ok = True
    rates = []
    for j in range(4):
        member = feats[labels == j]
        rate = (det.stats[j].mahalanobis_many(member)
                <= det.thresholds[j]).mean()
        rates.append(rate)
        ok &= (0.975 - 1 / per_class) <= rate <= (0.975 + 1 / per_class)
    check(3, "per-class acceptance on calibration set within q +/- 1/count",
          ok, "rates " + ", ".join(f"{r:.4f}" for r in rates))


@needs_mnist
def test_criterion_4_classification_f1():
    start = time.time()
    split = "digits-vs-fashion" if _have("fashion-mnist") else "digits-only"
    scores = {}
    for lam in (0.0, 0.1, 1.0):
        scores[lam] = train_cell(split, lam, seed=0)["cls_f1"]
    elapsed = time.time() - start
    check(4, "10-class macro F1 >= 0.97 for lambda in {0, 0.1, 1}",
          all(v >= 0.97 for v in scores.values()) and elapsed <= 1800,
          ", ".join(f"lam={k:g}: {v:.4f}" for k, v in scores.items())
          + f"; {elapsed:.0f}s")


@needs_mnist
def test_criterion_5_semi_supervised_zero_holdout():
    cell = train_cell("zero-holdout", 1.0, seed=0)
    check(5, "zero-holdout split: semi-supervised OOD F1 >= 0.85 at lambda=1",
          cell["semi_f1"] >= 0.85, f"F1 {cell['semi_f1']:.4f}")


@needs_fashion
def test_criterion_6_center_loss_benefit():
    seeds = (0, 1, 2)
    ok = True
    details = []
    for split in ("zero-holdout", "digits-vs-fashion"):
        f1s = {lam: median(train_cell(split, lam, s)["semi_f1"]
                           for s in seeds) for lam in (0.0, 1.0)}
        aucs = {lam: median(train_cell(split, lam, s)["semi_auc"]
                            for s in seeds) for lam in (0.0, 1.0)}
        ok &= f1s[1.0] > f1s[0.0] and aucs[1.0] >= aucs[0.0]
        details.append(f"{split}: F1 {f1s[0.0]:.4f}->{f1s[1.0]:.4f}, "
                       f"AUC {aucs[0.0]:.4f}->{aucs[1.0]:.4f}")
    check(6, "median semi-supervised F1 and AUC improve from lambda=0 to 1",
          ok, "; ".join(details))


@needs_fashion
def test_criterion_7_supervised_head():
    cell = train_cell("digits-vs-fashion", 0.0, seed=0, with_head=True)
    check(7, "supervised head F1 >= 0.95 at lambda=0 and >= semi-supervised",
          cell["sup_f1"] >= 0.95 and cell["sup_f1"] >= cell["semi_f1"],
          f"sup {cell['sup_f1']:.4f}, semi {cell['semi_f1']:.4f}")


@needs_fashion
def test_criterion_8_center_loss_not_helping_supervised():
    seeds = (0, 1, 2)
    meds = {lam: median(train_cell("digits-vs-fashion", lam, s,
                                   with_head=True)["sup_f1"]
                        for s in seeds) for lam in (0.0, 1.0)}
    check(8, "median supervised F1 at lambda=1 does not exceed lambda=0",
          meds[1.0] <= meds[0.0],
          f"lam=0: {meds[0.0]:.4f}, lam=1: {meds[1.0]:.4f}")


@needs_mnist
def test_criterion_9_feature_geometry_real():
    cell = train_cell("zero-holdout", 1.0, seed=0)
    centroids = cell["centers"].values.astype(np.float64)

    def mean_nearest(feats):
        d = np.linalg.norm(feats[:, None, :] - centroids[None], axis=2)
        return d.min(axis=1).mean()

    gap_in = mean_nearest(cell["feats_in"].astype(np.float64))
    gap_out = mean_nearest(cell["feats_out"].astype(np.float64))
    check(9, "OOD features sit farther from centroids than in-dist features",
          gap_out > gap_in, f"in {gap_in:.3f}, ood {gap_out:.3f}")


def test_criterion_9_pca_export(tmp_path):
    cfg = RunConfig.from_dict({
        "output_dir": str(tmp_path / "out"),
        "seeds": [0], "lambdas": [1.0],
        "train": {"epochs": 3, "batch_size": 32},
        "head_train": {"epochs": 5},
        "data": {
            "main": {"synthetic": {"n_classes": 3, "per_class_train": 120,
                                   "per_class_test": 30, "side": 12,
                                   "separation": 3.5, "seed": 0}},
            "anomaly": {"synthetic": {"n_classes": 2, "per_class_train": 60,
                                      "per_class_test": 30, "side": 12,
                                      "separation": 2.5, "seed": 7,
                                      "layout_seed": 99}},
        },
    })
    run_experiment(cfg)
    proj_path = tmp_path / "out" / "proj_lam1_seed0.csv"
    lines = proj_path.read_text().splitlines()
    ok = lines[0] == "x,y,label,is_ood" and len(lines) == 1 + 90 + 60
    state = load_model(tmp_path / "out" / "model_lam1_seed0.oodn")
    main_test = _load_split(cfg.main, "test", anomaly=False)
    anom_test = _load_split(cfg.anomaly, "test", anomaly=True)
    feats = np.concatenate([
        extract_features(state.backbone, main_test.images),
        extract_features(state.backbone, anom_test.images)])
    comps, _ = pca2(feats)
    ortho = np.abs(comps @ comps.T - np.eye(2)).max()
    check("9 (export)", "projection CSV well-formed, components orthonormal",
          ok and ortho < 1e-8, f"orthonormality dev {ortho:.1e}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    raw = {
        "output_dir": str(tmp_path / "out"),
        "seeds": [0], "lambdas": [0.0, 1.0],
        "train": {"epochs": 2, "batch_size": 32},
        "head_train": {"epochs": 5},
        "data": {
            "main": {"synthetic": {"n_classes": 3, "per_class_train": 120,
                                   "per_class_test": 30, "side": 12,
                                   "separation": 3.5, "seed": 0}},
            "anomaly": {"synthetic": {"n_classes": 2, "per_class_train": 60,
                                      "per_class_test": 30, "side": 12,
                                      "separation": 2.5, "seed": 7,
                                      "layout_seed": 99}},
        },
    }
    cfg = RunConfig.from_dict(raw)
    results = run_experiment(cfg)
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
    run_experiment(cfg)
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
    identical = first == second

    main_test = _load_split(cfg.main, "test", anomaly=False)
    anom_test = _load_split(cfg.anomaly, "test", anomaly=True)
    state = load_model(tmp_path / "out" / "model_lam1_seed0.oodn")
    cell = evaluate(state, *embed(state.backbone, main_test.images),
                    main_test.labels,
                    extract_features(state.backbone, anom_test.images), 1.0, 0)
    ref = next(r for r in results if r.lam == 1.0)
    reload_ok = (cell.classification_f1 == ref.classification_f1
                 and cell.semi_f1 == ref.semi_f1
                 and cell.semi_auc == ref.semi_auc
                 and cell.sup_f1 == ref.sup_f1
                 and cell.sup_auc == ref.sup_auc)
    check(10, "repeat runs bit-identical; archives re-evaluate identically",
          identical and reload_ok)
