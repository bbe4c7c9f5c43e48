import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodnet import Centers, center_loss, center_loss_grads, combine
from oodnet.errors import DimMismatch, LabelOutOfRange


def make_centers(values, rate=0.5):
    values = np.asarray(values, dtype=np.float64)
    c = Centers(*values.shape)
    c.values = values
    c.rate = rate
    return c


class TestCenterLoss:
    def test_features_at_centers_zero(self):
        centers = make_centers([[1.0, 2.0], [3.0, 4.0]])
        feats = centers.values[[0, 1, 1]]
        assert center_loss(feats, np.array([0, 1, 1]), centers) == 0.0

    def test_single_sample(self):
        centers = make_centers([[0.0, 0.0], [9.0, 9.0]])
        loss = center_loss(np.array([[1.0, 0.0]]), np.array([0]), centers)
        assert loss == pytest.approx(0.5)

    def test_two_samples_sum(self):
        centers = make_centers([[0.0, 0.0], [0.0, 0.0]])
        feats = np.array([[1.0, 0.0], [0.0, 2.0]])
        loss = center_loss(feats, np.array([0, 1]), centers)
        assert loss == pytest.approx(2.5)

    def test_dim_mismatch(self):
        centers = make_centers([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DimMismatch):
            center_loss(np.zeros((1, 3)), np.array([0]), centers)

    @pytest.mark.parametrize("fn", [center_loss, center_loss_grads])
    @pytest.mark.parametrize("label", [2, -1])
    def test_label_outside_the_table_raises(self, fn, label):
        centers = make_centers([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(LabelOutOfRange):
            fn(np.zeros((2, 2)), np.array([0, label]), centers)

    def test_nonnegative_and_zero_iff_at_centers(self):
        rng = np.random.default_rng(0)
        centers = make_centers(rng.normal(size=(3, 4)))
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, 6)
        assert center_loss(feats, labels, centers) > 0

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, shift):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(3, 2))
        feats = rng.normal(size=(5, 2))
        labels = rng.integers(0, 3, 5)
        shift = np.asarray(shift)
        a = center_loss(feats, labels, make_centers(base))
        b = center_loss(feats + shift, labels, make_centers(base + shift))
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestCenterLossGrads:
    def test_all_zero_when_features_equal_centers(self):
        centers = make_centers([[1.0, 1.0], [2.0, 2.0]])
        feats = centers.values[[0, 1]]
        grads, deltas = center_loss_grads(feats, np.array([0, 1]), centers)
        np.testing.assert_array_equal(grads, 0)
        np.testing.assert_array_equal(deltas, 0)

    def test_single_sample_delta(self):
        centers = make_centers([[0.0, 0.0], [5.0, 5.0]])
        grads, deltas = center_loss_grads(np.array([[2.0, 0.0]]),
                                          np.array([0]), centers)
        np.testing.assert_allclose(grads, [[2.0, 0.0]])
        np.testing.assert_allclose(deltas[0], [-1.0, 0.0])  # (c - x)/(1+1)
        np.testing.assert_array_equal(deltas[1], 0)  # absent class untouched

    def test_feature_grads_match_finite_differences(self):
        rng = np.random.default_rng(2)
        centers = make_centers(rng.normal(size=(3, 4)))
        feats = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, 5)
        grads, _ = center_loss_grads(feats, labels, centers)
        eps = 1e-6
        for i in range(feats.shape[0]):
            for k in range(feats.shape[1]):
                up = feats.copy(); up[i, k] += eps
                dn = feats.copy(); dn[i, k] -= eps
                num = (center_loss(up, labels, centers)
                       - center_loss(dn, labels, centers)) / (2 * eps)
                assert grads[i, k] == pytest.approx(num, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("rate", [0.1, 0.5, 1.0])
    def test_update_moves_centers_toward_batch_means(self, rate):
        rng = np.random.default_rng(3)
        centers = make_centers(rng.normal(size=(3, 4)), rate=rate)
        feats = rng.normal(size=(20, 4))
        labels = rng.integers(0, 3, 20)
        means = np.stack([feats[labels == j].mean(axis=0) for j in range(3)])

        def objective():
            return ((centers.values - means) ** 2).sum()

        before = objective()
        _, deltas = center_loss_grads(feats, labels, centers)
        centers.apply_deltas(deltas)
        assert objective() <= before + 1e-12


class TestCombine:
    @pytest.mark.parametrize("ls,lc,lam,expected", [
        (7.0, 3.0, 0.0, 7.0),
        (2.0, 3.0, 1.0, 5.0),
        (1.0, 10.0, 0.1, 2.0),
    ])
    def test_values(self, ls, lc, lam, expected):
        assert combine(ls, lc, lam) == pytest.approx(expected)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            combine(1.0, 1.0, -0.1)
