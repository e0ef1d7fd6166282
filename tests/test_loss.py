"""Objective terms, discrete scoring, and weight-matrix handling."""

import itertools

import numpy as np
import pytest

from scatternet import engine, loss
from scatternet import tensor as T
from scatternet.engine import DataError
from scatternet.loss import (WeightMatrix, bce, challenge_term, combined_loss,
                             discrete_challenge_score, identity_weight_matrix,
                             load_weight_matrix, merge_identical_classes,
                             merged_class_table, predict, save_weight_matrix,
                             soft_or_norm)
from scatternet.tensor import Tensor, grad_check


@pytest.fixture(autouse=True)
def _reset():
    engine.set_precision("float32")
    engine.seed(0)
    yield
    engine.set_precision("float32")


def all_binary_vectors(k):
    return [np.array(bits, dtype=np.float64)
            for bits in itertools.product((0.0, 1.0), repeat=k)]


class TestSoftOr:
    def test_substitution(self):
        assert soft_or_norm(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(1.5)

    def test_all_zero(self):
        assert soft_or_norm(np.zeros(3), np.zeros(3)) == 0.0

    def test_binary_p_counts_or(self):
        for k in range(1, 5):
            for t in all_binary_vectors(k):
                for p in all_binary_vectors(k):
                    want = float(np.logical_or(t, p).sum())
                    assert soft_or_norm(t, p) == pytest.approx(want, abs=1e-12)


class TestChallengeTerm:
    def test_identity_half_match(self):
        wm = identity_weight_matrix(["a", "b", "c", "d"])
        t = np.array([1.0, 1.0, 0.0, 0.0])
        assert challenge_term(t, t, wm) == pytest.approx(1.0)

    def test_degenerate_guarded(self):
        wm = identity_weight_matrix(["a", "b"])
        assert challenge_term(np.zeros(2), np.zeros(2), wm) == 0.0

    def test_double_loop_oracle(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(1)
        labels = [f"c{i}" for i in range(5)]
        for _ in range(20):
            w = rng.random((5, 5))
            np.fill_diagonal(w, w.max() + rng.random(5))  # keep diagonal dominant
            wm = WeightMatrix(labels=labels, w=w)
            t = (rng.random(5) < 0.4).astype(np.float64)
            p = rng.random(5)
            num = sum(t[i] * w[i, j] * p[j] for i in range(5) for j in range(5))
            den = sum(t[i] + p[i] - t[i] * p[i] for i in range(5))
            want = num / max(den, 1e-8)
            assert challenge_term(t, p, wm) == pytest.approx(want, abs=1e-12)

    def test_identity_w_optimality(self):
        # predicting exactly the truth maximizes the term, checked on a grid
        wm = identity_weight_matrix(["a", "b", "c"])
        grid = np.arange(0.0, 1.0 + 1e-9, 0.25)
        for t in all_binary_vectors(3):
            if not t.any():
                continue
            best = challenge_term(t, t, wm)
            for p in itertools.product(grid, repeat=3):
                assert challenge_term(t, np.array(p), wm) <= best + 1e-12


class TestBce:
    # 64-bit: 1 - 1e-7 is not even representable at float32
    def test_perfect_prediction(self):
        engine.set_precision("float64")
        t = np.array([1.0])
        p = np.array([1.0 - 1e-7])
        assert bce(t, p) == pytest.approx(1e-7, abs=1e-8)

    def test_substitution(self):
        engine.set_precision("float64")
        t = np.array([1.0, 0.0])
        p = np.array([0.5, 0.5])
        assert bce(t, p) == pytest.approx(2.0 * np.log(2.0), rel=1e-9)

    def test_clamp_keeps_extremes_finite(self):
        engine.set_precision("float64")
        t = np.array([1.0, 0.0])
        p = np.array([0.0, 1.0])  # worst case before clamping
        val = bce(t, p)
        assert np.isfinite(val)
        assert val == pytest.approx(-2.0 * np.log(1e-7), rel=1e-6)


class TestCombinedLoss:
    def test_is_bce_minus_challenge(self):
        wm = identity_weight_matrix(["a", "b", "c"])
        t = np.array([1.0, 0.0, 1.0])
        p = np.array([0.8, 0.2, 0.6])
        want = bce(t, p) - challenge_term(t, p, wm)
        assert combined_loss(t, p, wm) == pytest.approx(want, rel=1e-9)

    def test_gradient_against_central_differences(self):
        engine.set_precision("float64")
        rng = np.random.default_rng(2)
        labels = [f"c{i}" for i in range(6)]
        w = rng.random((6, 6))
        np.fill_diagonal(w, w.max() + 1.0)
        wm = WeightMatrix(labels=labels, w=w)
        t = Tensor((rng.random(6) < 0.5).astype(np.float64))
        p = Tensor(rng.uniform(0.05, 0.95, 6), requires_grad=True)

        def f(pp):
            return combined_loss(t, pp, wm)

        assert grad_check(f, [p]) < 1e-6

    def test_batch_mean(self):
        wm = identity_weight_matrix(["a", "b"])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.9, 0.1], [0.2, 0.7]])
        want = np.mean([combined_loss(t[i], p[i], wm) for i in range(2)])
        assert combined_loss(t, p, wm) == pytest.approx(want, rel=1e-6)


class TestPredictAndScore:
    def test_threshold_inclusive(self):
        y = predict(np.array([0.5, 0.49999, 0.9]), 0.5)
        np.testing.assert_array_equal(y, [1.0, 0.0, 1.0])

    def test_bad_threshold(self):
        with pytest.raises(DataError):
            predict(np.array([0.5]), 0.0)
        with pytest.raises(DataError):
            predict(np.array([0.5]), 1.0)

    def test_perfect_predictions_score_one(self):
        wm = identity_weight_matrix(["a", "b", "c"])
        t = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert discrete_challenge_score(t, t, wm) == pytest.approx(1.0)

    def test_all_ones_penalized(self):
        wm = identity_weight_matrix(["a", "b", "c", "d"])
        t = np.array([[1.0, 0.0, 0.0, 0.0]])
        y = np.ones((1, 4))
        assert discrete_challenge_score(t, y, wm) == pytest.approx(0.25)

    def test_matches_challenge_term_on_binary(self):
        engine.set_precision("float64")
        for k in range(1, 5):
            labels = [f"c{i}" for i in range(k)]
            wm = identity_weight_matrix(labels)
            for t in all_binary_vectors(k):
                for y in all_binary_vectors(k):
                    got = discrete_challenge_score(t[None, :], y[None, :], wm)
                    if not t.any() and not y.any():
                        assert got == 0.0
                        continue
                    want = challenge_term(t, y, wm)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_empty_record_contributes_zero(self):
        wm = identity_weight_matrix(["a", "b"])
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        # first record scores 1, second is t=y=0 and contributes 0
        assert discrete_challenge_score(t, y, wm) == pytest.approx(0.5)

    def test_pooled_variant(self):
        wm = identity_weight_matrix(["a", "b"])
        t = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([[1.0, 1.0], [1.0, 0.0]])
        # pooled: (1 + 1) / (2 + 2)
        got = discrete_challenge_score(t, y, wm, pooled=True)
        assert got == pytest.approx(0.5)
        per_record = discrete_challenge_score(t, y, wm)
        assert per_record == pytest.approx((1.0 / 2.0 + 1.0 / 2.0) / 2.0)


class TestWeightMatrix:
    def test_diagonal_must_dominate_rows(self):
        w = np.array([[0.5, 1.0], [0.0, 1.0]])
        with pytest.raises(DataError):
            WeightMatrix(labels=["a", "b"], w=w)

    def test_must_be_square(self):
        with pytest.raises(DataError):
            WeightMatrix(labels=["a", "b"], w=np.ones((2, 3)))

    def test_labels_unique(self):
        with pytest.raises(DataError):
            WeightMatrix(labels=["a", "a"], w=np.eye(2))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = rng.random((4, 4))
        np.fill_diagonal(w, 2.0)
        wm = WeightMatrix(labels=["w", "x", "y", "z"], w=w)
        path = tmp_path / "classes.csv"
        save_weight_matrix(path, wm)
        loaded = load_weight_matrix(path)
        assert loaded.labels == wm.labels
        np.testing.assert_array_equal(loaded.w, wm.w)

    def test_csv_header_row_order_must_agree(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",a,b\nb,1.0,0.0\na,0.0,1.0\n")
        with pytest.raises(DataError):
            load_weight_matrix(path)

    def test_csv_missing_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",a,b\na,1.0,0.0\n")
        with pytest.raises(DataError):
            load_weight_matrix(path)

    def test_csv_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",a,b\na,1.0,oops\nb,0.0,1.0\n")
        with pytest.raises(DataError):
            load_weight_matrix(path)


class TestMergeIdenticalClasses:
    def _dup_matrix(self):
        # classes b and c share identical rows and columns
        w = np.array([
            [1.0, 0.2, 0.2, 0.1],
            [0.3, 1.0, 1.0, 0.4],
            [0.3, 1.0, 1.0, 0.4],
            [0.0, 0.5, 0.5, 1.0],
        ])
        return WeightMatrix(labels=["a", "b", "c", "d"], w=w)

    def test_four_to_three(self):
        merged, table = merge_identical_classes(self._dup_matrix())
        assert len(merged.labels) == 3
        assert "b|c" in merged.labels
        assert table["b"] == table["c"] == merged.labels.index("b|c")
        assert table["a"] == merged.labels.index("a")

    def test_distinct_rows_unchanged(self):
        wm = identity_weight_matrix(["a", "b", "c"])
        wm = WeightMatrix(labels=wm.labels,
                          w=wm.w + np.diag([0.0, 0.1, 0.2]))
        merged, table = merge_identical_classes(wm)
        assert merged.labels == wm.labels
        np.testing.assert_array_equal(merged.w, wm.w)
        assert table == {"a": 0, "b": 1, "c": 2}

    def test_idempotent(self):
        once, _ = merge_identical_classes(self._dup_matrix())
        twice, _ = merge_identical_classes(once)
        assert twice.labels == once.labels
        np.testing.assert_array_equal(twice.w, once.w)

    def test_27_to_24(self):
        # three duplicate groups: {3,9}, {12,15,20}; 27 classes collapse to 24
        rng = np.random.default_rng(4)
        base = rng.random((27, 27)) * 0.5
        np.fill_diagonal(base, 1.0)
        for dup in (9,):
            base[dup, :] = base[3, :]
            base[:, dup] = base[:, 3]
        for dup in (15, 20):
            base[dup, :] = base[12, :]
            base[:, dup] = base[:, 12]
        labels = [f"c{i:02d}" for i in range(27)]
        wm = WeightMatrix(labels=labels, w=base)
        merged, table = merge_identical_classes(wm)
        assert len(merged.labels) == 24
        assert table["c03"] == table["c09"]
        assert table["c12"] == table["c15"] == table["c20"]
        assert len({table[l] for l in labels}) == 24

    def test_merged_class_table_resolves_members(self):
        merged, _ = merge_identical_classes(self._dup_matrix())
        again, table = merged_class_table(merged)
        assert again.labels == merged.labels
        assert table["b"] == table["c"] == table["b|c"]

    def test_label_map_aliases(self):
        wm = identity_weight_matrix(["a", "b"])
        merged, table = merge_identical_classes(wm, label_map={"alias": "a"})
        assert table["alias"] == table["a"]
        with pytest.raises(DataError):
            merge_identical_classes(wm, label_map={"alias": "missing"})


def as_tensor_pair_float64(t, p):
    """The pair as it was made: arrays through float64 before Tensor()."""
    was_tensor = isinstance(p, Tensor)
    t = t if isinstance(t, Tensor) else Tensor(np.asarray(t, dtype=np.float64))
    p = p if isinstance(p, Tensor) else Tensor(np.asarray(p, dtype=np.float64))
    return t, p, was_tensor


class TestNoFloat64RoundTrip:
    """Array inputs go straight to Tensor(), with the bits of the float64
    round trip."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("kind", ["float32", "float64", "list"])
    @pytest.mark.parametrize("shape", [(5,), (6, 5)])
    def test_same_bytes(self, monkeypatch, precision, kind, shape):
        engine.set_precision(precision)
        rng = np.random.default_rng(30)
        t = (rng.random(shape) > 0.5).astype(np.float64)
        p = rng.random(shape)
        p.reshape(-1)[0], p.reshape(-1)[-1] = 0.0, 1.0
        if kind == "list":
            t, p = t.tolist(), p.tolist()
        else:
            t, p = t.astype(kind), p.astype(kind)
        w = identity_weight_matrix([f"c{i}" for i in range(5)])
        fns = [bce, lambda a, b: challenge_term(a, b, w),
               lambda a, b: combined_loss(a, b, w)]
        if len(shape) == 1:  # batched, soft_or_norm returns one value per row
            fns.append(soft_or_norm)

        def results():
            return [np.asarray(f(t, p), dtype=np.float64).tobytes() for f in fns]

        got = results()
        monkeypatch.setattr(loss, "_as_tensor_pair", as_tensor_pair_float64)
        assert got == results()


class TestSoftOrBatched:
    """soft_or_norm of (B, K) arrays gives one count per record, each the
    value of its row alone."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("k", [3, 24])
    def test_per_record_counts_equal_the_rows(self, precision, k):
        engine.set_precision(precision)
        rng = np.random.default_rng(31)
        t = (rng.random((6, k)) > 0.5).astype(np.float64)
        p = rng.random((6, k))
        counts = soft_or_norm(t, p)
        assert isinstance(counts, np.ndarray) and counts.shape == (6,)
        assert counts.dtype == np.dtype(precision)
        for row, (tr, pr) in enumerate(zip(t, p)):
            one = soft_or_norm(tr, pr)
            assert isinstance(one, float)
            assert counts[row] == one

    def test_tensor_input_still_gives_a_tensor(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0]])
        counts = soft_or_norm(Tensor(t), Tensor(np.full((2, 2), 0.5)))
        assert isinstance(counts, Tensor)
        np.testing.assert_array_equal(counts.data, [1.5, 1.0])
