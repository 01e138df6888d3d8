import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from beamcanyon import classify
from beamcanyon.classify import (
    BLOCK,
    CHUNK,
    KnnModel,
    evaluate,
    examples_to_arrays,
    knn_classifier,
    majority_classifier,
    predict,
)
from beamcanyon.dataset import Examples


class TestMajorityClassifier:
    def test_predicts_most_frequent(self):
        model = majority_classifier(np.zeros((3, 2)), np.array([1, 1, 2]))
        assert predict(model, np.zeros((4, 2))).tolist() == [1, 1, 1, 1]

    def test_tie_goes_to_smallest_label(self):
        model = majority_classifier(np.zeros((4, 2)), np.array([2, 2, 1, 1]))
        assert model.label == 1

    def test_train_accuracy_equals_class_frequency(self):
        y = np.array([1, 1, 1, 2, 2, 3])
        model = majority_classifier(np.zeros((6, 1)), y)
        report = evaluate(model, np.zeros((6, 1)), y, np.zeros(6, dtype=bool))
        assert report["accuracy_all"] == pytest.approx(3 / 6)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            majority_classifier(np.zeros((0, 2)), np.array([], dtype=int))


class TestKnnClassifier:
    def test_exact_training_point(self):
        x = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        y = np.array([1, 2, 3])
        model = knn_classifier(x, y, k=1)
        assert predict(model, np.array([10.0, 0.0]))[0] == 2

    def test_k_equal_n_reduces_to_majority(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([7, 7, 7, 2])
        model = knn_classifier(x, y, k=4)
        assert predict(model, np.array([[100.0], [-50.0]])).tolist() == [7, 7]

    def test_two_separated_clusters(self):
        # separation much larger than the noise: perfect accuracy
        rng = np.random.default_rng(14)
        a = rng.integers(-1, 2, size=(30, 8))
        b = 100 + rng.integers(-1, 2, size=(30, 8))
        x = np.vstack([a, b])
        y = np.array([1] * 30 + [2] * 30)
        model = knn_classifier(x, y, k=3)
        queries = np.vstack(
            [rng.integers(-1, 2, size=(10, 8)), 100 + rng.integers(-1, 2, size=(10, 8))]
        )
        expected = np.array([1] * 10 + [2] * 10)
        assert (predict(model, queries) == expected).all()

    def test_distance_tie_takes_lower_train_index(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([5, 3])
        model = knn_classifier(x, y, k=1)
        assert predict(model, np.array([1.0, 0.0]))[0] == 5

    def test_vote_tie_takes_smallest_label(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([5, 3])
        model = knn_classifier(x, y, k=2)
        assert predict(model, np.array([1.0, 0.0]))[0] == 3

    def test_training_accuracy_with_distinct_points(self):
        rng = np.random.default_rng(15)
        x = rng.integers(-50, 51, size=(25, 4))
        assert len(np.unique(x, axis=0)) == len(x)
        y = rng.integers(1, 5, size=25)
        model = knn_classifier(x, y, k=1)
        assert (predict(model, x) == y).all()

    def test_dimension_mismatch_rejected(self):
        model = knn_classifier(np.zeros((3, 4)), np.array([1, 2, 3]), k=1)
        with pytest.raises(ValueError):
            predict(model, np.zeros((2, 5)))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            knn_classifier(np.zeros((3, 2)), np.array([1, 2, 3]), k=0)
        with pytest.raises(ValueError):
            knn_classifier(np.zeros((3, 2)), np.array([1, 2, 3]), k=4)


    def test_non_finite_query_rejected(self):
        model = knn_classifier(np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]]), np.array([1, 2, 3]), k=1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                predict(model, np.array([bad, 10.0]))

    def test_non_finite_train_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                knn_classifier(np.array([[0.0, 0.0], [bad, 5.0]]), np.array([1, 2]), k=1)

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            knn_classifier(np.zeros((2, 2)), np.array([1, -1]), k=1)


def _oracle_predict(train, labels, k, queries):
    labels = np.asarray(labels, dtype=np.int64)
    train = np.asarray(train, dtype=np.float64)
    model = KnnModel(
        features=train,
        columns=np.ones(train.shape[1], dtype=bool),
        labels=labels,
        k=k,
        num_classes=int(labels.max()),
    )
    return oracles.predict_knn(model, queries)


def _composite_key_votes(model, queries):
    """oracles._knn_votes over every train row at once, on float32 copies of the kept columns."""
    train = model.features.astype(np.float32)
    x = queries[:, model.columns].astype(np.float32)
    return oracles._knn_votes(replace(model, features=train), x, np.einsum("ij,ij->i", train, train))


# test sets of one row, of one full chunk and of one chunk plus a row
N_TEST = st.sampled_from([1, CHUNK, CHUNK + 1])


class TestKnnMatchesStableSortOracle:
    """predict picks the neighbours and votes exactly as the float64 full-argsort kNN it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(1, 40),
        d=st.integers(1, 12),
        distinct=st.integers(1, 4),
        n_test=N_TEST,
        data=st.data(),
    )
    def test_grid_codes_with_ties(self, seed, n_train, d, distinct, n_test, data):
        # train rows drawn from a few distinct code rows, so many train rows
        # share the k-th distance of a query
        rng = np.random.default_rng(seed)
        pool = rng.integers(-3, 2, size=(distinct, d)).astype(np.int8)
        train = pool[rng.integers(distinct, size=n_train)]
        queries = rng.integers(-3, 2, size=(n_test, d)).astype(np.int8)
        labels = rng.integers(0, 5, size=n_train)
        k = data.draw(st.integers(1, n_train), label="k")
        model = knn_classifier(train, labels, k)
        assert model.features.dtype == train.dtype
        assert np.array_equal(predict(model, queries), _oracle_predict(train, labels, k, queries))

    def test_non_integer_non_finite_and_past_bound_features_rejected(self):
        model = knn_classifier(np.array([[0, 1], [-3, 1], [1448, -1448]]), np.array([1, 2, 3]), k=1)
        bad_rows = [  # with d = 2, 4 * d * m**2 < 2**24 holds up to m = 1448
            [0.5, 0.0], [-1e-9, 0.0], [np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [1449.0, 0.0],
            [0.0, -1e300], np.array([0, 1449], dtype=np.int16), np.array([-1449, 0]),
        ]
        for bad_row in bad_rows:
            features = np.vstack([np.zeros_like(bad_row), bad_row])
            for call in (lambda: knn_classifier(features, np.array([1, 2]), k=1), lambda: predict(model, features)):
                with pytest.raises(ValueError, match="finite") as excinfo:
                    call()
                assert "exact range" in str(excinfo.value)

    def test_float32_at_the_exactness_bound(self):
        # 4 * 1 * 2047**2 < 2**24: the largest distance, 4094**2, is still exact in float32
        train = np.array([[-2047], [2047], [0], [2047], [-2047], [1]])
        labels = np.array([1, 2, 3, 4, 5, 6])
        queries = np.array([[2047], [-2047], [0], [1024], [-1024], [2], [-1]])
        for k in range(1, len(train) + 1):
            model = knn_classifier(train, labels, k)
            assert model.features.dtype == train.dtype
            assert np.array_equal(predict(model, queries), _oracle_predict(train, labels, k, queries))

    def test_query_outside_the_exact_range_rejected(self):
        model = knn_classifier(np.array([[0, 1], [-3, 1]], dtype=np.int8), np.array([1, 2]), k=1)
        for query in (np.array([[0.5, 1.0]]), np.array([[3000, 0]])):
            with pytest.raises(ValueError, match="exact range"):
                predict(model, query)


class TestKnnOnVaryingColumns:
    """The model drops the columns that are constant over its training rows and still predicts as the full-width oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(1, 40),
        d=st.integers(1, 10),
        n_const=st.integers(0, 6),
        distinct=st.integers(1, 4),
        n_test=N_TEST,
        data=st.data(),
    )
    def test_constant_columns_with_ties(self, seed, n_train, d, n_const, distinct, n_test, data):
        # one constant column of 0 and n_const of non-zero codes, shuffled among
        # varying columns drawn from a few distinct rows so that many train rows
        # share the k-th distance; query rows take any code in every column
        rng = np.random.default_rng(seed)
        pool = rng.integers(-3, 2, size=(distinct, d))
        constants = np.concatenate([[0], rng.choice([-3, -2, -1, 1], size=n_const)])
        width = d + len(constants)
        train = np.empty((n_train, width), dtype=np.int8)
        order = rng.permutation(width)
        train[:, order[:d]] = pool[rng.integers(distinct, size=n_train)]
        train[:, order[d:]] = constants
        queries = rng.integers(-3, 2, size=(n_test, width)).astype(np.int8)
        labels = rng.integers(0, 5, size=n_train)
        k = data.draw(st.integers(1, n_train), label="k")
        model = knn_classifier(train, labels, k)
        assert np.array_equal(model.columns, (train != train[0]).any(axis=0))
        assert not model.columns[order[d:]].any()
        assert np.array_equal(model.features, train[:, model.columns])
        assert np.array_equal(predict(model, queries), _oracle_predict(train, labels, k, queries))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(1, 40),
        d=st.integers(1, 12),
        n_test=N_TEST,
        data=st.data(),
    )
    def test_no_column_varies(self, seed, n_train, d, n_test, data):
        # every train row is the same, so every query ties with all of them
        rng = np.random.default_rng(seed)
        train = np.tile(rng.integers(-3, 2, size=d), (n_train, 1)).astype(np.int8)
        queries = rng.integers(-3, 2, size=(n_test, d)).astype(np.int8)
        labels = rng.integers(0, 5, size=n_train)
        k = data.draw(st.integers(1, n_train), label="k")
        model = knn_classifier(train, labels, k)
        assert model.features.shape == (n_train, 0)
        assert np.array_equal(predict(model, queries), _oracle_predict(train, labels, k, queries))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), label=st.integers(0, 5), n_test=N_TEST)
    def test_single_training_row(self, seed, d, label, n_test):
        rng = np.random.default_rng(seed)
        train = rng.integers(-3, 2, size=(1, d)).astype(np.int8)
        queries = rng.integers(-3, 2, size=(n_test, d)).astype(np.int8)
        model = knn_classifier(train, [label], 1)
        assert not model.columns.any()
        preds = predict(model, queries)
        assert (preds == label).all()
        assert np.array_equal(preds, _oracle_predict(train, [label], 1, queries))

    def test_fit_allocates_the_kept_columns_and_one_chunk(self):
        # half the columns vary; a float32 copy of them, or of one chunk of rows, would exceed the bound
        rng = np.random.default_rng(18)
        n, d = 4 * CHUNK, 256
        x = np.full((n, d), -1, dtype=np.int8)
        x[:, ::2] = rng.integers(-3, 2, size=(n, d // 2))
        x[0, ::2], x[1, ::2] = -3, 1
        labels = rng.integers(0, 5, size=n)
        tracemalloc.start()
        try:
            model = knn_classifier(x, labels, k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept_bytes = n * (d // 2)
        assert model.features.dtype == np.int8
        assert model.features.nbytes == kept_bytes
        # the int8 kept columns, plus a few arrays of one entry per column: the
        # column minima and maxima, the mask and its int64 indices
        assert peak <= kept_bytes + 16 * d

    def test_predict_allocates_one_block_and_one_chunk(self):
        # 8 blocks of training rows: a float32 copy of the training set, or one chunk's
        # keys over every training row, would exceed the bound
        rng = np.random.default_rng(19)
        n_train, d, k = 8 * BLOCK, 1024, 5
        x = np.full((n_train, d), -1, dtype=np.int8)
        x[:, ::2] = rng.integers(-3, 2, size=(n_train, d // 2))
        model = knn_classifier(x, rng.integers(0, 5, size=n_train), k)
        kept = int(model.columns.sum())
        queries = rng.integers(-3, 2, size=(CHUNK + 1, d)).astype(np.int8)
        tracemalloc.start()
        try:
            predict(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (
            len(queries) * kept           # the query rows' int8 kept columns
            + BLOCK * kept * 4            # one float32 block of training rows
            + CHUNK * kept * 4            # one float32 chunk of query rows
            + CHUNK * BLOCK * (4 + 8)     # the chunk's float32 distances and int64 keys
            + 4 * len(queries) * k * 8    # the running and merged k best, and the votes
            + 2**16                       # norms, indices and the merge of one chunk
        )
        assert n_train * kept * 4 > bound
        assert CHUNK * n_train * 8 > bound
        assert peak <= bound


class TestKnnVotesMatchTieFillOracle:
    """The composite-key selection votes exactly as the partition and tie fill it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(1, 40),
        d=st.integers(1, 12),
        distinct=st.integers(1, 4),
        n_test=st.sampled_from([1, CHUNK + 1, 2 * CHUNK + 3]),
        data=st.data(),
    )
    def test_grid_codes_with_ties(self, seed, n_train, d, distinct, n_test, data):
        # train rows drawn from a few distinct rows -1 + s * t (a sign s per
        # cell, a spread t in 0..2 per column): all of them lie at the same
        # distance from the all -1 row, which is one of the queries
        rng = np.random.default_rng(seed)
        spread = rng.integers(0, 3, size=d)
        pool = -1 + rng.choice([-1, 1], size=(distinct, d)) * spread
        train = pool[rng.integers(distinct, size=n_train)].astype(np.int8)
        queries = rng.integers(-3, 2, size=(n_test, d)).astype(np.int8)
        queries[rng.integers(n_test)] = -1
        assert len(np.unique(((train.astype(int) + 1) ** 2).sum(axis=1))) == 1
        labels = rng.integers(0, 5, size=n_train)
        k = data.draw(st.just(n_train) | st.integers(1, n_train), label="k")
        model = knn_classifier(train, labels, k)
        x = queries[:, model.columns].astype(np.float32)
        train_f32 = model.features.astype(np.float32)
        expected = oracles._knn_votes_tie_fill(
            replace(model, features=train_f32), x, np.einsum("ij,ij->i", train_f32, train_f32)
        )
        votes = predict(model, queries)
        assert votes.dtype == expected.dtype
        assert np.array_equal(votes, expected)
        assert np.array_equal(_composite_key_votes(model, queries), expected)


class TestBlockedKnnMatchesOracles:
    """predict over blocks of BLOCK train rows picks the neighbours that one pass over every train row picks."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 7),
        n_train=st.integers(1, 40),
        d=st.integers(1, 8),
        distinct=st.integers(1, 4),
        n_test=st.sampled_from([1, 5, CHUNK + 1]),
        data=st.data(),
    )
    def test_grid_codes_with_ties_across_blocks(self, seed, block, n_train, d, distinct, n_test, data):
        # train rows drawn from a few distinct rows -1 + s * t, all at one distance
        # from the all -1 query row, so duplicates and equidistant rows fall in
        # different blocks; k reaches n_train, so it often exceeds the block size
        rng = np.random.default_rng(seed)
        spread = rng.integers(0, 3, size=d)
        pool = -1 + rng.choice([-1, 1], size=(distinct, d)) * spread
        train = pool[rng.integers(distinct, size=n_train)].astype(np.int8)
        queries = rng.integers(-3, 2, size=(n_test, d)).astype(np.int8)
        queries[rng.integers(n_test)] = -1
        labels = rng.integers(0, 5, size=n_train)
        k = data.draw(st.just(n_train) | st.integers(1, n_train), label="k")
        model = knn_classifier(train, labels, k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "BLOCK", block)
            votes = predict(model, queries)
        assert np.array_equal(votes, _composite_key_votes(model, queries))
        assert np.array_equal(votes, _oracle_predict(train, labels, k, queries))

    def test_tie_across_a_block_edge_takes_the_lower_index(self):
        # rows 0 and 3 lie at distance 1 from the query, in different blocks of 2
        train = np.array([[1], [5], [6], [-1]], dtype=np.int8)
        queries = np.array([[0]], dtype=np.int8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "BLOCK", 2)
            assert predict(knn_classifier(train, [4, 2, 2, 3], 1), queries).tolist() == [4]
            assert predict(knn_classifier(train[::-1], [3, 2, 2, 4], 1), queries).tolist() == [3]


def test_examples_to_arrays_is_int8_and_equal_to_the_oracle():
    # several chunks of examples over grids with two receivers per scene, some
    # receivers absent from their grid
    rng = np.random.default_rng(17)
    n_scenes, n = 40, 2 * CHUNK + 3
    grids = rng.integers(-3, 1, size=(n_scenes, 5, 7)).astype(np.int16)
    grids[:, 0, 0], grids[:30, 4, 6] = 1, 2
    examples = Examples(
        grids=grids,
        grid_row=rng.integers(n_scenes, size=n),
        receiver=rng.integers(1, 3, size=n),
        label=rng.integers(0, 9, size=n),
        los=rng.choice(["LOS", "NLOS"], size=n),
        episode=np.zeros(n, dtype=np.int64),
        scene=np.zeros(n, dtype=np.int64),
        angles=np.zeros((n, 4)),
    )
    x, y, nlos = examples_to_arrays(examples)
    old_x, old_y, old_nlos = oracles.examples_to_arrays(examples)
    assert x.dtype == np.int8
    assert np.array_equal(x, old_x)
    assert np.array_equal(y, old_y)
    assert np.array_equal(nlos, old_nlos)


class TestEvaluate:
    def test_perfect_predictor(self):
        x = np.arange(8, dtype=float).reshape(-1, 1) * 10
        y = np.array([1, 2, 3, 4, 1, 2, 3, 4])
        model = knn_classifier(x, y, k=1)
        report = evaluate(model, x, y, np.array([True] * 4 + [False] * 4))
        assert report["accuracy_all"] == 1.0
        assert report["accuracy_nlos"] == 1.0
        confusion = np.array(report["confusion"])
        assert confusion.sum() - np.trace(confusion) == 0

    def test_hand_counted_fixture(self):
        # majority model trained on {1,1,2} always predicts 1;
        # y_true = [1,1,1,2,2,2,3,3,1,2], NLOS at even positions.
        # correct overall: positions 0,1,2,8 -> 4/10; correct NLOS: 0,2,8 of
        # {0,2,4,6,8} -> 3/5; confusion: [1,1]=4, [2,1]=4, [3,1]=2.
        model = majority_classifier(np.zeros((3, 1)), np.array([1, 1, 2]))
        y = np.array([1, 1, 1, 2, 2, 2, 3, 3, 1, 2])
        nlos = np.array([i % 2 == 0 for i in range(10)])
        report = evaluate(model, np.zeros((10, 1)), y, nlos)
        assert report["accuracy_all"] == pytest.approx(0.4)
        assert report["accuracy_nlos"] == pytest.approx(0.6)
        assert report["confusion"] == [[0] * 4, [0, 4, 0, 0], [0, 4, 0, 0], [0, 2, 0, 0]]
        assert report["n_examples"] == 10

    def test_accuracies_consistent_with_confusion(self):
        rng = np.random.default_rng(16)
        x = rng.integers(-5, 6, size=(40, 3))
        y = rng.integers(1, 4, size=40)
        model = knn_classifier(x[:30], y[:30], k=3)
        report = evaluate(model, x[30:], y[30:], rng.random(10) < 0.5)
        confusion = np.array(report["confusion"])
        assert report["accuracy_all"] == pytest.approx(np.trace(confusion) / confusion.sum())

    def test_no_nlos_examples_gives_none(self):
        model = majority_classifier(np.zeros((2, 1)), np.array([1, 1]))
        report = evaluate(model, np.zeros((3, 1)), np.array([1, 1, 2]), np.zeros(3, dtype=bool))
        assert report["accuracy_nlos"] is None

    def test_empty_test_rejected(self):
        model = majority_classifier(np.zeros((2, 1)), np.array([1, 1]))
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 1)), np.array([], dtype=int), np.array([], dtype=bool))


@pytest.mark.parametrize("n_scenes, n", [(40, 2 * CHUNK + 3), (3, 1), (2, 70)])
def test_stacking_the_varying_columns_fits_the_full_width_model(n_scenes, n):
    # grids whose first rows are fixed, so that many columns stay constant over the examples
    rng = np.random.default_rng(n)
    grids = rng.integers(-3, 1, size=(n_scenes, 5, 7)).astype(np.int16)
    grids[:, :2] = -1
    grids[:, 0, 0], grids[:, 4, 6] = 1, 2
    examples = Examples(
        grids=grids,
        grid_row=rng.integers(n_scenes, size=n),
        receiver=rng.integers(1, 3, size=n),
        label=rng.integers(0, 9, size=n),
        los=rng.choice(["LOS", "NLOS"], size=n),
        episode=np.zeros(n, dtype=np.int64),
        scene=np.zeros(n, dtype=np.int64),
        angles=np.zeros((n, 4)),
    )
    full, labels, _ = examples_to_arrays(examples)
    columns = classify.varying_columns(examples)
    assert np.array_equal(columns, full.min(axis=0) != full.max(axis=0))
    kept, _, _ = examples_to_arrays(examples, columns)
    assert kept.dtype == np.int8 and np.array_equal(kept, full[:, columns])
    k = min(3, n)
    model, oracle = knn_classifier(kept, labels, k, columns), knn_classifier(full, labels, k)
    assert model.features is kept
    assert np.array_equal(model.columns, oracle.columns) and np.array_equal(model.features, oracle.features)
    assert np.array_equal(predict(model, full), predict(oracle, full))
    assert not columns.all()
    with pytest.raises(ValueError, match="feature columns, but"):
        knn_classifier(full, labels, k, columns)
