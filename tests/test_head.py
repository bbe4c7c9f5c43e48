import hashlib
import math

import numpy as np
import pytest

from oodnet import Backbone, OodHead, classify_ood, synth_blobs, train_head
from oodnet.errors import DimMismatch, EmptyDataset, NonFiniteFeature
from oodnet.head import HeadTrainConfig, bce_many, train_head_on_features
from oodnet.nn import Dense, extract_features


def ref_head_forward(head, feature):
    """Independent explicit-loop evaluation of the 3-layer head."""
    h = feature.astype(np.float64)
    dense = [l for l in head.layers if isinstance(l, Dense)]
    for i, layer in enumerate(dense):
        W, b = layer.W.astype(np.float64), layer.b.astype(np.float64)
        out = np.zeros(W.shape[1])
        for o in range(W.shape[1]):
            acc = b[o]
            for k in range(W.shape[0]):
                acc += h[k] * W[k, o]
            out[o] = acc
        h = np.maximum(out, 0) if i < len(dense) - 1 else out
    return 1.0 / (1.0 + math.exp(-h[0]))


def backbone_digest(model):
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(p.tobytes())
    return h.hexdigest()


class TestHeadForward:
    def test_zero_weights_half(self):
        head = OodHead(4, seed=0)
        for p in head.parameters():
            p[...] = 0
        assert head.forward_many(np.ones((1, 4)))[0] == pytest.approx(0.5)

    def test_large_final_bias_saturates(self):
        head = OodHead(4, seed=0)
        head.layers[-1].b[...] = 50.0
        assert head.forward_many(np.zeros((1, 4)))[0] > 0.999999

    def test_matches_explicit_loop_reference(self):
        head = OodHead(6, seed=0).astype(np.float64)
        feature = np.random.default_rng(0).normal(size=6)
        got = head.forward_many(feature[None])[0]
        assert got == pytest.approx(ref_head_forward(head, feature), rel=1e-12)

    def test_dim_mismatch(self):
        head = OodHead(4, seed=0)
        with pytest.raises(DimMismatch):
            head.forward_many(np.zeros((1, 5)))

    def test_output_open_interval(self):
        head = OodHead(3, seed=1)
        p = head.forward_many(np.random.default_rng(1).normal(size=(10, 3)))
        assert (p > 0).all() and (p < 1).all()

    def test_monotone_in_final_bias(self):
        head = OodHead(3, seed=2)
        x = np.random.default_rng(2).normal(size=3)
        before = head.forward_many(x[None])[0]
        head.layers[-1].b += 0.7
        assert head.forward_many(x[None])[0] >= before

    def test_zero_rows_give_zero_probabilities(self):
        p = OodHead(4, seed=0).forward_many(np.zeros((0, 4)))
        assert p.shape == (0,) and p.dtype == np.float32

    def test_batched_rows_equal_one_row_calls(self):
        """Rows spread over the thread pool (nn._map_rows) and one pass
        recording a training tape give each row the bits of its own
        one-row call."""
        head = OodHead(84, seed=0)
        feats = np.random.default_rng(3).random((600, 84), dtype=np.float32)
        singles = np.array([head.forward_many(f[None])[0] for f in feats],
                           dtype=np.float32)
        for n in (2, 255, 256, 257, 600):
            np.testing.assert_array_equal(head.forward_many(feats[:n]),
                                          singles[:n])
        np.testing.assert_array_equal(head.forward_many(feats, []), singles)


class TestBce:
    """bce_many of one-element arrays: the loss of a single probability."""

    def test_half_probability(self):
        for y in (0, 1):
            assert bce_many(np.array([0.5]), np.array([y])) \
                == pytest.approx(math.log(2), rel=1e-9)

    def test_confident_correct_near_zero(self):
        assert bce_many(np.array([1.0 - 1e-9]), np.array([1])) < 1e-6

    def test_reference_value(self):
        p = 1.0 / (1.0 + math.exp(-1.0))  # 0.7310585786
        assert bce_many(np.array([p]), np.array([1])) \
            == pytest.approx(0.3132616875182228, rel=1e-9)

    def test_nonnegative(self):
        for p in (0.0, 0.2, 0.8, 1.0):
            for y in (0, 1):
                assert bce_many(np.array([p]), np.array([y])) >= 0.0


class TestTrainHead:
    def separable_features(self, rng, d=8, n=120):
        main = rng.normal(size=(n, d)) + 6.0
        anom = rng.normal(size=(n, d)) - 6.0
        return main, anom

    def test_separable_clouds_high_accuracy(self):
        rng = np.random.default_rng(0)
        main, anom = self.separable_features(rng)
        # nearest-mean oracle: clouds are trivially separable
        mid = (main.mean(axis=0) + anom.mean(axis=0)) / 2
        assert ((main - mid) ** 2).sum(1).max() < ((main - anom.mean(0)) ** 2).sum(1).min()
        head = OodHead(8, seed=0)
        train_head_on_features(head, main.astype(np.float32),
                               anom.astype(np.float32),
                               HeadTrainConfig(epochs=20, seed=0))
        p_main = head.forward_many(main.astype(np.float32))
        p_anom = head.forward_many(anom.astype(np.float32))
        acc = ((p_main >= 0.5).mean() + (p_anom < 0.5).mean()) / 2
        assert acc >= 0.99

    def test_zero_learning_rate_unchanged(self):
        rng = np.random.default_rng(1)
        main, anom = self.separable_features(rng, n=30)
        head = OodHead(8, seed=1)
        before = [p.copy() for p in head.parameters()]
        train_head_on_features(head, main.astype(np.float32),
                               anom.astype(np.float32),
                               HeadTrainConfig(epochs=3, learning_rate=0.0))
        for p, q in zip(head.parameters(), before):
            np.testing.assert_array_equal(p, q)

    def test_backbone_frozen(self):
        model = Backbone(3, input_side=12, seed=0)
        main = synth_blobs(3, 30, side=12, separation=3.5, seed=0)
        anom = synth_blobs(2, 20, side=12, separation=2.0, seed=5,
                           role="anomaly", layout_seed=9)
        digest = backbone_digest(model)
        head = OodHead(model.feature_dim, seed=0)
        train_head(model, head, main, anom, HeadTrainConfig(epochs=2))
        assert backbone_digest(model) == digest

    def test_empty_dataset(self):
        model = Backbone(3, input_side=12, seed=0)
        main = synth_blobs(3, 5, side=12, seed=0)
        empty = synth_blobs(2, 1, side=12, seed=1, role="anomaly")
        empty = type(empty)(empty.images[:0], empty.labels[:0], {}, "anomaly")
        head = OodHead(model.feature_dim, seed=0)
        with pytest.raises(EmptyDataset):
            train_head(model, head, main, empty, HeadTrainConfig())

    @pytest.mark.parametrize("empty_source", ["main", "anomaly"])
    def test_empty_features_raise(self, empty_source):
        feats = np.random.default_rng(4).normal(size=(10, 5))
        empty = feats[:0]
        main, anom = (empty, feats) if empty_source == "main" else (feats, empty)
        with pytest.raises(EmptyDataset):
            train_head_on_features(OodHead(5, seed=0), main, anom,
                                   HeadTrainConfig(epochs=1))

    def test_gradient_check(self):
        # central differences on a sampled parameter subset, float64
        rng = np.random.default_rng(3)
        head = OodHead(5, seed=3).astype(np.float64)
        X = rng.normal(size=(6, 5))
        y = rng.integers(0, 2, 6).astype(float)

        def loss():
            p = np.clip(head.forward_many(X), 1e-7, 1 - 1e-7)
            return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).sum())

        tape = []
        p0 = head.forward_many(X, tape)
        grads = head.backward(p0 - y, tape)
        params = head.parameters()
        eps = 1e-6
        worst = 0.0
        for k, p in enumerate(params):
            flat = p.reshape(-1)
            for idx in rng.choice(flat.size, size=min(30, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss()
                flat[idx] = orig - eps
                down = loss()
                flat[idx] = orig
                num = (up - down) / (2 * eps)
                ana = grads[k].reshape(-1)[idx]
                worst = max(worst, abs(ana - num) / max(abs(ana), abs(num), 1e-3))
        assert worst <= 1e-6


class TestClassifyOod:
    def make_head_with_p(self, target_p):
        head = OodHead(2, seed=0)
        for p in head.parameters():
            p[...] = 0
        head.layers[-1].b[...] = math.log(target_p / (1 - target_p))
        return head

    def test_high_probability_normal(self):
        head = self.make_head_with_p(0.9)
        assert classify_ood(head, np.zeros(2)) == "normal"

    def test_low_probability_ood(self):
        head = self.make_head_with_p(0.1)
        assert classify_ood(head, np.zeros(2)) == "ood"

    def test_tie_is_normal(self):
        head = self.make_head_with_p(0.5)
        assert classify_ood(head, np.zeros(2)) == "normal"

    def test_one_feature_gets_the_batched_verdict(self):
        """With tau just above a float32 p, the one-feature call and the
        batched call compare p with tau alike."""
        head = OodHead(3, seed=1)
        feats = np.random.default_rng(1).normal(size=(4, 3))
        p = head.forward_many(feats)
        for i, p_i in enumerate(p):
            head.tau = float(p_i) + 1e-12
            batched = head.accepts(head.forward_many(feats))[i]
            assert classify_ood(head, feats[i]) == ("normal" if batched
                                                    else "ood")

    def test_tau_is_compared_exactly(self):
        """0.7 is no float32: a p on either side of float32(0.7) compares
        with 0.7 itself, not with 0.7 rounded to float32 (which p equals)."""
        below = np.float32(0.7)
        above = np.nextafter(below, np.float32(1))
        assert float(below) < 0.7 < float(above)
        head = OodHead(2, seed=0, tau=0.7)
        assert not head.accepts(below) and head.accepts(above)
        np.testing.assert_array_equal(
            head.accepts(np.array([below, above, below])), [False, True, False])

    def test_accepts_is_inclusive(self):
        head = OodHead(2, seed=0, tau=0.5)
        np.testing.assert_array_equal(head.accepts(np.array([0.4, 0.5, 0.6])),
                                      [False, True, True])
        assert head.accepts(0.5) and not OodHead(2, tau=0.6).accepts(0.5)


class TestNonFiniteFeature:
    @pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf])
    def test_head_calls_raise(self, pixel):
        model = Backbone(3, input_side=12, seed=0)
        head = OodHead(model.feature_dim, seed=0)
        image = np.zeros((1, 12, 12), dtype=np.float32)
        image[0, 5, 6] = pixel
        with np.errstate(invalid="ignore"):
            feats = extract_features(model, image)
        assert not np.isfinite(feats).all()
        for call in (lambda: classify_ood(head, feats[0]),
                     lambda: head.forward_many(feats[:1]),
                     lambda: head.forward_many(feats)):
            with pytest.raises(NonFiniteFeature):
                call()

    def test_a_float64_past_the_float32_range_raises(self):
        """The head checks its features after the cast to its dtype, where
        a float64 1e300 has become inf."""
        feats = np.zeros((2, 4))
        feats[1, 2] = 1e300
        with np.errstate(over="ignore"), pytest.raises(NonFiniteFeature):
            OodHead(4, seed=0).forward_many(feats)

    def test_training_on_a_nan_row_raises(self):
        rng = np.random.default_rng(0)
        main = rng.normal(size=(20, 4)).astype(np.float32)
        anom = rng.normal(size=(10, 4)).astype(np.float32)
        anom[3] = np.nan   # every epoch draws all of the smaller source
        with pytest.raises(NonFiniteFeature):
            train_head_on_features(OodHead(4, seed=0), main, anom,
                                   HeadTrainConfig(epochs=1))
