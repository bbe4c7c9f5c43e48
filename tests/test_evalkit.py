import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodnet import confusion, f1, pca2, roc
from oodnet.errors import DegenerateInput, LabelOutOfRange, SingleClass
from oodnet.evalkit import replacing, write_csv


def concordance_auc(scores, is_anom, higher_is_anomalous=True):
    """Brute-force pairwise concordance probability."""
    s = np.asarray(scores, dtype=float)
    if not higher_is_anomalous:
        s = -s
    pos = s[np.asarray(is_anom, dtype=bool)]
    neg = s[~np.asarray(is_anom, dtype=bool)]
    total = 0.0
    for a in pos:
        for b in neg:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(pos) * len(neg))


class TestF1:
    def test_perfect(self):
        counts = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert f1(counts, "macro") == 1.0
        assert f1(counts[:2, :2], "binary-positive") == 1.0

    def test_binary_half(self):
        counts = np.array([[0, 1], [1, 1]])  # TP=1, FP=1, FN=1
        assert f1(counts, "binary-positive") == pytest.approx(0.5)

    def test_macro_mean(self):
        # class 0 perfect (F1 = 1), class 1: TP=1 FP=1 FN=1 (F1 = 0.5)
        counts = np.array([[4, 1], [1, 1]])
        per0 = 2 * 4 / (2 * 4 + 1 + 1)
        per1 = 0.5
        assert f1(counts, "macro") == pytest.approx((per0 + per1) / 2)

    def test_undefined_is_zero(self):
        counts = np.array([[3, 0], [0, 0]])  # positive class never occurs
        assert f1(counts, "binary-positive") == 0.0

    def test_macro_invariant_under_relabeling(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, 50)
        pred = rng.integers(0, 4, 50)
        base = f1(confusion(true, pred, 4), "macro")
        perm = np.array([2, 0, 3, 1])
        permuted = f1(confusion(perm[true], perm[pred], 4), "macro")
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_confusion_totals(self):
        true = [0, 1, 2, 1, 0]
        counts = confusion(true, [0, 2, 2, 1, 1], 3)
        assert counts.sum() == 5
        assert (counts >= 0).all()


@pytest.mark.parametrize("true,pred", [([0, 7], [0, 1]), ([0, -1], [0, 1]),
                                       ([0, 1], [0, 3])])
def test_confusion_rejects_label_outside_range(true, pred):
    with pytest.raises(LabelOutOfRange):
        confusion(np.array(true), np.array(pred), 3)


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([5.0, 6.0, 1.0, 2.0], [True, True, False, False])
        assert curve.auc == pytest.approx(1.0)
        assert any(np.isclose(p[0], 0) and np.isclose(p[1], 1)
                   for p in curve.points)

    def test_all_equal_diagonal(self):
        curve = roc([3.0] * 6, [True, False] * 3)
        assert curve.auc == pytest.approx(0.5)

    def test_endpoints_present(self):
        curve = roc([1.0, 2.0, 3.0, 4.0], [False, True, False, True])
        assert curve.points[0, 0] == 0.0 and curve.points[0, 1] == 0.0
        assert curve.points[-1, 0] == 1.0 and curve.points[-1, 1] == 1.0

    def test_monotone_sweep(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=40)
        labels = rng.random(40) > 0.5
        curve = roc(scores, labels)
        assert (np.diff(curve.points[:, 0]) >= 0).all()
        assert (np.diff(curve.points[:, 1]) >= 0).all()

    def test_four_sample_mixed_matches_concordance(self):
        scores = [0.9, 0.8, 0.8, 0.1]
        labels = [True, False, True, False]
        curve = roc(scores, labels)
        assert curve.auc == pytest.approx(concordance_auc(scores, labels),
                                          abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_auc_matches_concordance_random(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 30)
        scores = rng.choice([0.1, 0.25, 0.5, 0.7, 0.9], size=n)
        labels = rng.random(n) > 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        curve = roc(scores, labels)
        assert curve.auc == pytest.approx(concordance_auc(scores, labels),
                                          abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=2,
                    max_size=40).filter(lambda xs: len({y for _, y in xs}) == 2),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_auc_is_concordance_under_ties(self, samples, higher):
        """Tie-heavy integer scores, both orientations: the AUC is the
        pairwise concordance with a tie counting one half."""
        scores, labels = zip(*samples)
        assert abs(roc(scores, labels, higher_is_anomalous=higher).auc
                   - concordance_auc(scores, labels, higher)) <= 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=25)
        labels = rng.random(25) > 0.4
        labels[0], labels[1] = True, False
        assert roc(scores, labels).auc == pytest.approx(
            roc(scores + 17.3, labels).auc, rel=1e-12)

    def test_orientation_reversal(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=20)
        labels = rng.random(20) > 0.5
        labels[0], labels[1] = True, False
        a = roc(scores, labels, higher_is_anomalous=True).auc
        b = roc(scores, labels, higher_is_anomalous=False).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            roc([1.0, 2.0], [True, True])


class TestPca2:
    def test_collinear_second_coordinate_zero(self):
        t = np.linspace(0, 1, 10)
        feats = np.stack([t, 2 * t + 1, -t], axis=1)
        _, proj = pca2(feats)
        np.testing.assert_allclose(proj[:, 1], 0, atol=1e-10)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(0)
        comps, _ = pca2(rng.normal(size=(30, 6)))
        np.testing.assert_allclose(comps @ comps.T, np.eye(2), atol=1e-8)

    def test_matches_covariance_eigendecomposition(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(40, 2)) @ np.array([[3.0, 1.0], [0.0, 0.5]])
        comps, proj = pca2(feats)
        Xc = feats - feats.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc / (len(feats) - 1))
        order = np.argsort(evals)[::-1]
        for k in range(2):
            v = evecs[:, order[k]]
            # oracle direction defined up to sign
            assert min(np.abs(comps[k] - v).max(),
                       np.abs(comps[k] + v).max()) < 1e-8

    def test_projected_variance_bounded(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(25, 5))
        _, proj = pca2(feats)
        total = ((feats - feats.mean(0)) ** 2).sum()
        assert proj.var(axis=0, ddof=1).sum() * (len(feats) - 1) <= total + 1e-9

    def test_rank2_equality(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(2, 6))
        feats = rng.normal(size=(20, 2)) @ basis
        _, proj = pca2(feats)
        Xc = feats - feats.mean(0)
        assert (proj ** 2).sum() == pytest.approx((Xc ** 2).sum(), rel=1e-9)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            pca2(np.ones((5, 3)))
        with pytest.raises(DegenerateInput):
            pca2(np.ones((1, 3)))


class TestReplacing:
    def mode(self, path) -> int:
        return stat.S_IMODE(os.stat(path).st_mode)

    def test_a_new_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_csv(tmp_path / "new" / "a.csv", ["x"], [[1]])
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(umask)
        assert self.mode(tmp_path / "new" / "a.csv") == self.mode(tmp_path / "plain") == 0o640
        assert (tmp_path / "new" / "a.csv").read_bytes() == b"x\r\n1\r\n"

    def test_a_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("old")
        os.chmod(path, 0o604)
        write_csv(path, ["x"], [[2]])
        assert self.mode(path) == 0o604 and path.read_bytes() == b"x\r\n2\r\n"

    def test_an_error_in_the_block_leaves_the_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt):
            with replacing(path, "wb") as fh:
                fh.write(b"new bytes")
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == ["a.bin"] and path.read_bytes() == b"old"
