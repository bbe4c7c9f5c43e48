import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oodnet import ClassStats, DetectorModel, detector, fit_stats
from oodnet.archive import ModelState, load_model, save_model
from oodnet.errors import (DegenerateClass, DimMismatch, FactorizationFailure,
                           NonFiniteFeature, NotCalibrated, ShapeMismatch)
from oodnet.nn import Backbone


def random_pd(rng, d):
    A = rng.normal(size=(d, d))
    return A @ A.T + d * np.eye(d)


def fitted_detector(rng, n_classes=3, d=3, per_class=60, percentile=0.975):
    feats, labels = [], []
    means = rng.normal(size=(n_classes, d)) * 5
    for j in range(n_classes):
        feats.append(rng.normal(size=(per_class, d)) + means[j])
        labels.append(np.full(per_class, j))
    feats = np.concatenate(feats)
    labels = np.concatenate(labels)
    det = DetectorModel(fit_stats(feats, labels), percentile)
    return det, feats, labels


class TestFitStats:
    def test_mean(self):
        stats = ClassStats.fit(np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]))
        np.testing.assert_allclose(stats.mean, [1.0, 1.0])

    def test_covariance_diagonal_case(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        stats = ClassStats.fit(feats)
        np.testing.assert_allclose(stats.cov, np.diag([4 / 3, 4 / 3]),
                                   atol=1e-7)

    def test_covariance_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(40, 4))
        stats = ClassStats.fit(feats)
        mu = feats.sum(axis=0) / len(feats)
        S = np.zeros((4, 4))
        for x in feats:
            S += np.outer(x - mu, x - mu)
        S /= len(feats) - 1
        np.testing.assert_allclose(stats.cov, S, atol=1e-6)

    def test_degenerate_class(self):
        with pytest.raises(DegenerateClass):
            ClassStats.fit(np.array([[0.0, 0.0]]))

    def test_fit_stats_per_class(self):
        feats = np.array([[0.0, 0], [1, 0], [0, 1], [9, 9], [10, 9], [9, 10]],
                         dtype=float)
        labels = np.array([0, 0, 0, 1, 1, 1])
        stats = fit_stats(feats, labels)
        assert len(stats) == 2
        np.testing.assert_allclose(stats[1].mean,
                                   feats[3:].mean(axis=0), atol=1e-6)

    def test_fit_stats_names_a_class_too_small_to_fit(self):
        feats = np.random.default_rng(0).normal(size=(7, 2))
        labels = np.array([0, 0, 0, 1, 2, 2, 2])
        with pytest.raises(DegenerateClass, match=r"^class 1: 1 samples for "
                                                  r"dimension 2; need >= 3$"):
            fit_stats(feats, labels)

    def test_fit_stats_on_no_rows_raises(self):
        with pytest.raises(DegenerateClass):
            fit_stats(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


class TestMahalanobis:
    def test_identity_covariance(self):
        stats = ClassStats._from_moments(np.zeros(2), np.eye(2), 10)
        assert stats.mahalanobis(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-6)

    def test_zero_at_mean(self):
        rng = np.random.default_rng(1)
        stats = ClassStats._from_moments(np.array([2.0, -1.0]),
                                         random_pd(rng, 2), 10)
        assert stats.mahalanobis(np.array([2.0, -1.0])) == 0.0

    def test_correlated_reference_value(self):
        stats = ClassStats._from_moments(
            np.zeros(2), np.array([[2.0, 1.0], [1.0, 2.0]]), 10)
        # solve S z = x directly: z = S^{-1} (1,1) = (1/3, 1/3); sqrt(x.z)
        assert stats.mahalanobis(np.array([1.0, 1.0])) == \
            pytest.approx(np.sqrt(2 / 3), rel=1e-5)

    def test_dim_mismatch(self):
        stats = ClassStats._from_moments(np.zeros(2), np.eye(2), 10)
        with pytest.raises(DimMismatch):
            stats.mahalanobis(np.zeros(3))

    @pytest.mark.parametrize("cov", [
        -np.eye(3), np.diag([1.0, np.nan, 1.0]), np.diag([1.0, np.inf, 1.0])],
        ids=["negative", "nan", "inf"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # eps * I at inf
    def test_negative_definite_covariance_fails_to_factor(self, cov):
        with pytest.raises(FactorizationFailure):
            ClassStats._from_moments(np.zeros(3), cov, 10)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_factorized_solve_matches_explicit_inverse(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            S = random_pd(rng, d)
            mu = rng.normal(size=d)
            stats = ClassStats._from_moments(mu, S, 2 * d)
            x = rng.normal(size=d)
            inv = np.linalg.inv(S + stats.epsilon * np.eye(d))
            naive = np.sqrt((x - mu) @ inv @ (x - mu))
            assert stats.mahalanobis(x) == pytest.approx(naive, rel=1e-8)


class TestCalibrate:
    def make_det_with_distances(self, distances):
        """Single-class detector in 1-D whose distances are |x| exactly."""
        stats = ClassStats._from_moments(np.zeros(1), np.eye(1) * (1 - 1e-6), 50)
        det = DetectorModel([stats], percentile=0.975)
        return det, np.asarray(distances, dtype=float)[:, None]

    def test_linear_interpolation_value(self):
        det, feats = self.make_det_with_distances(np.arange(1.0, 41.0))
        thr = det.calibrate(feats, np.zeros(40, dtype=int))
        # hand interpolation: index 0.975*39 = 38.025 between 39 and 40
        assert thr[0] == pytest.approx(39.025, rel=1e-6)

    @pytest.mark.parametrize("q", [0.3, 0.7, 0.975, 1.0])
    def test_all_equal_distances(self, q):
        det, feats = self.make_det_with_distances(np.full(20, 4.0))
        det.percentile = q
        thr = det.calibrate(feats, np.zeros(20, dtype=int))
        assert thr[0] == pytest.approx(4.0, rel=1e-6)

    def test_q_one_is_max(self):
        det, feats = self.make_det_with_distances([1.0, 7.0, 3.0])
        det.percentile = 1.0
        thr = det.calibrate(feats, np.zeros(3, dtype=int))
        assert thr[0] == pytest.approx(7.0, rel=1e-6)

    def test_missing_class_raises(self):
        rng = np.random.default_rng(2)
        det, feats, labels = fitted_detector(rng, n_classes=2)
        with pytest.raises(DegenerateClass):
            det.calibrate(feats, np.full(len(feats), 0))  # class 1 empty

    @pytest.mark.parametrize("per_class", [60, 200])
    def test_coverage_on_calibration_set(self, per_class):
        rng = np.random.default_rng(3)
        det, feats, labels = fitted_detector(rng, per_class=per_class)
        det.calibrate(feats, labels)
        q = det.percentile
        for j in range(det.n_classes):
            member = feats[labels == j]
            dists = det.stats[j].mahalanobis_many(member)
            rate = (dists <= det.thresholds[j]).mean()
            assert q - 1 / per_class <= rate <= q + 1 / per_class


class TestCriterion:
    def uncalibrated(self):
        rng = np.random.default_rng(4)
        det, feats, labels = fitted_detector(rng)
        return det, feats, labels

    def with_thresholds(self, thresholds):
        det, _, _ = self.uncalibrated()
        det.thresholds = np.asarray(thresholds, dtype=float)
        return det

    def test_not_calibrated(self):
        det, feats, _ = self.uncalibrated()
        with pytest.raises(NotCalibrated):
            det.is_normal(feats[0])
        with pytest.raises(NotCalibrated):
            det.is_normal_many(feats[:2])

    def test_any_class_inside_accepts(self):
        det, feats, labels = self.uncalibrated()
        det.calibrate(feats, labels)
        x = det.stats[1].mean  # distance 0 to its own class
        assert det.is_normal(x)

    def test_all_classes_outside_rejects(self):
        det, feats, labels = self.uncalibrated()
        det.calibrate(feats, labels)
        far = feats.max(axis=0) + 100.0
        assert not det.is_normal(far)

    def test_boundary_inclusive(self):
        det, feats, labels = self.uncalibrated()
        det.calibrate(feats, labels)
        x = feats[7]
        d = det.distances(x)
        det.thresholds = d.copy()  # every class boundary exactly at x
        assert det.is_normal(x)

    def test_monotone_in_thresholds(self):
        det, feats, labels = self.uncalibrated()
        det.calibrate(feats, labels)
        base = det.is_normal_many(feats)
        det.thresholds = det.thresholds + 1.0
        wider = det.is_normal_many(feats)
        assert (wider | ~base).all()  # normal never flips to anomalous


class TestAnomalyScore:
    def test_min_of_distances(self):
        rng = np.random.default_rng(5)
        det, feats, labels = fitted_detector(rng)
        det.calibrate(feats, labels)
        for x in feats[:10]:
            assert det.anomaly_score(x) == pytest.approx(
                det.distances(x).min(), rel=1e-12)

    def test_zero_at_any_class_mean(self):
        rng = np.random.default_rng(6)
        det, feats, labels = fitted_detector(rng)
        det.calibrate(feats, labels)
        for stats in det.stats:
            assert det.anomaly_score(stats.mean) == 0.0

    def test_score_threshold_equals_common_threshold_criterion(self):
        # (score <= t) must agree with acceptance under theta_j = t for all j
        rng = np.random.default_rng(7)
        det, feats, labels = fitted_detector(rng)
        xs = rng.normal(size=(30, 3)) * 6
        scores = det.anomaly_score_many(xs)
        for t in np.linspace(0.0, 8.0, 17):
            det.thresholds = np.full(det.n_classes, t)
            accepted = det.is_normal_many(xs)
            np.testing.assert_array_equal(scores <= t, accepted)


class TestDistanceKernel:
    """The stacked whitening product at the reference shape: 84-d, 10
    classes unless a test asks for another count."""

    @pytest.fixture(scope="class")
    def calibrated(self, request):
        rng = np.random.default_rng(8)
        det, feats, labels = fitted_detector(
            rng, n_classes=getattr(request, "param", 10), d=84, per_class=100)
        det.calibrate(feats, labels)
        xs = (rng.normal(size=(600, 84)) * 6).astype(np.float32)
        return det, xs

    @pytest.mark.parametrize("calibrated", range(2, 11), indirect=True,
                             ids=lambda n: f"{n}classes")
    def test_single_row_equals_its_row_in_any_batch(self, calibrated):
        det, xs = calibrated
        singles = np.stack([det.distances(x) for x in xs])
        for b in range(1, len(xs) + 1):
            np.testing.assert_array_equal(det.distances_many(xs[:b]),
                                          singles[:b])
        for start in (1, 5, 255, 257):
            for b in (1, 2, 255, 256, 257, len(xs) - start):
                np.testing.assert_array_equal(
                    det.distances_many(xs[start:start + b]),
                    singles[start:start + b])

    def test_matches_per_class_solves(self, calibrated):
        det, xs = calibrated
        ref = np.stack([s.mahalanobis_many(xs) for s in det.stats], axis=1)
        np.testing.assert_allclose(det.distances_many(xs), ref, rtol=1e-12)

    def test_zero_at_each_class_mean(self, calibrated):
        det, _ = calibrated
        for j, stats in enumerate(det.stats):
            assert det.distances(stats.mean)[j] == 0.0

    def test_dim_mismatch(self, calibrated):
        det, xs = calibrated
        with pytest.raises(DimMismatch):
            det.distances_many(xs[:, :83])

    def test_zero_rows_give_empty_results(self, calibrated):
        """No feature rows score to empty arrays, and calibrating on none
        finds each class without samples."""
        det, xs = calibrated
        empty = xs[:0]
        assert det.distances_many(empty).shape == (0, det.n_classes)
        assert det.is_normal_many(empty).shape == (0,)
        assert det.anomaly_score_many(empty).shape == (0,)
        check = DetectorModel(det.stats, det.percentile)
        with pytest.raises(DegenerateClass):
            check.calibrate(empty, np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("call", [
        lambda det, x: det.distances_many(x),
        lambda det, x: det.is_normal_many(x),
        lambda det, x: det.anomaly_score_many(x),
        lambda det, x: det.stats[0].mahalanobis_many(x),
    ], ids=["distances_many", "is_normal_many", "anomaly_score_many",
            "mahalanobis_many"])
    @pytest.mark.parametrize("shape", [(84,), (), (2, 84, 1)])
    def test_batch_calls_want_2d_rows(self, calibrated, call, shape):
        det, _ = calibrated
        with pytest.raises(DimMismatch):
            call(det, np.zeros(shape))

    def test_snap32_and_archive_round_trip_bit_identical(self, calibrated,
                                                          tmp_path):
        det, xs = calibrated
        snapped = DetectorModel(det.stats, det.percentile)
        snapped.thresholds = det.thresholds
        snapped.snap32()
        rebuilt = DetectorModel(snapped.stats, snapped.percentile)
        np.testing.assert_array_equal(rebuilt.distances_many(xs),
                                      snapped.distances_many(xs))
        path = tmp_path / "m.oodn"
        save_model(path, ModelState(backbone=Backbone(10, input_side=12),
                                    detector=snapped))
        loaded = load_model(path).detector
        np.testing.assert_array_equal(loaded.distances_many(xs),
                                      snapped.distances_many(xs))
        np.testing.assert_array_equal(loaded.thresholds, snapped.thresholds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_raises(self, calibrated, bad):
        det, xs = calibrated
        rows = xs[:4].copy()
        rows[2, 17] = bad
        for call in (det.is_normal, det.anomaly_score):
            with pytest.raises(NonFiniteFeature):
                call(rows[2])
        for call in (det.is_normal_many, det.anomaly_score_many):
            with pytest.raises(NonFiniteFeature):
                call(rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_reference_path_raises_on_a_non_finite_feature(self, calibrated,
                                                           bad):
        """The reference distance checks its rows by the detector's rule
        rather than returning a NaN distance."""
        det, xs = calibrated
        rows = xs[:4].copy()
        rows[1, 5] = bad
        with pytest.raises(NonFiniteFeature):
            det.stats[0].mahalanobis_many(rows)

    def test_scoring_and_calibration_make_no_solves(self, calibrated,
                                                    monkeypatch):
        det, xs = calibrated
        calls = []
        original = detector.cho_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(detector, "cho_solve", counted)
        det.is_normal(xs[0])
        det.anomaly_score(xs[0])
        det.is_normal_many(xs)
        det.anomaly_score_many(xs)
        check = DetectorModel(det.stats, det.percentile)
        check.calibrate(xs, np.arange(len(xs)) % det.n_classes)
        assert calls == []
        det.stats[0].mahalanobis(xs[0])  # the reference path is counted
        assert calls == [1]


class TestStoredForm:
    @pytest.mark.parametrize("counts", [[60] * 2, [60] * 4])
    def test_a_class_count_other_than_n_raises_before_any_blob(self, counts):
        header = {"percentile": 0.975, "counts": counts, "calibrated": True}
        with pytest.raises(ShapeMismatch, match="detector.counts"):
            DetectorModel.from_stored(header, {}, 3, 3)


# one fresh interpreter per run: OpenBLAS reads its thread count at load
SRC = Path(__file__).resolve().parent.parent / "src"
DISTANCE_HASH = """
import hashlib, sys
import numpy as np
from test_detector import fitted_detector
rng = np.random.default_rng(8)
det, feats, labels = fitted_detector(rng, n_classes=int(sys.argv[1]), d=84,
                                     per_class=100)
det.calibrate(feats, labels)
xs = rng.normal(size=(300, 84)) * 6
print(hashlib.sha256(det.distances_many(xs).tobytes()
                     + det.thresholds.tobytes()).hexdigest())
"""


def fresh_python(code, *args, **env):
    """stdout of code run by a new interpreter that imports oodnet from
    src/ and these tests. OPENBLAS_NUM_THREADS is unset (OpenBLAS's
    default) unless env sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env={**base, "PYTHONPATH": path, **env}).stdout


@pytest.mark.parametrize("n_classes", [3, 9, 10])
def test_distances_and_thresholds_are_the_same_bits_at_one_blas_thread(
        n_classes):
    default = fresh_python(DISTANCE_HASH, str(n_classes))
    one = fresh_python(DISTANCE_HASH, str(n_classes), OPENBLAS_NUM_THREADS="1")
    assert one == default


EMBED_AND_DISTANCE_HASH = """
import hashlib, os, sys
if sys.argv[1] == "pinned":   # before oodnet reads the usable CPUs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from oodnet import nn
from test_detector import fitted_detector
images = np.random.default_rng(3).random((600, 28, 28), dtype=np.float32)
feats, logits = nn.embed(nn.Backbone(10, input_side=28, seed=0), images)
det, _, _ = fitted_detector(np.random.default_rng(8), n_classes=10, d=84,
                            per_class=100)
dists = det.distances_many(feats)
print(nn._cpus(), hashlib.sha256(feats.tobytes() + logits.tobytes()
                                 + dists.tobytes()).hexdigest())
"""


def test_embed_and_distances_are_the_same_bits_on_one_cpu():
    """Pinned to one CPU, embed and distances_many run inline; unpinned,
    on helper threads with OpenBLAS at 1 thread."""
    cpus, inline = fresh_python(EMBED_AND_DISTANCE_HASH, "pinned").split()
    _, pooled = fresh_python(EMBED_AND_DISTANCE_HASH, "free").split()
    assert cpus == "1"
    assert inline == pooled


@pytest.mark.parametrize("m", [1, 255, 256, 257, 4097])
def test_distances_many_equals_a_row_by_row_loop(m):
    rng = np.random.default_rng(8)
    det, _, _ = fitted_detector(rng, n_classes=10, d=84, per_class=100)
    xs = rng.normal(size=(m, 84)) * 6
    np.testing.assert_array_equal(det.distances_many(xs),
                                  np.stack([det.distances(x) for x in xs]))


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, oodnet.cli; print('scipy' in sys.modules)"
    assert fresh_python(code).split() == ["False"]
