import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costnet import trainer
from costnet.data import GeneratorConfig, gen_synthetic
from costnet.errors import ConfigError, DataError
from costnet.naive_bayes import NaiveBayesModel, nb_positive_probability, nb_train
from costnet.text import ngram_counts


def brute_force_posterior(documents, labels, alpha, query):
    """Bayes rule evaluated directly in probability space (float64)."""
    vocab = sorted(set(itertools.chain.from_iterable(d.keys() for d in documents)))
    joint = []
    for cls in (0, 1):
        docs = [d for d, l in zip(documents, labels) if l == cls]
        total = sum(sum(d.values()) for d in docs)
        prior = len(docs) / len(documents)
        p = prior
        for tok, c in query.items():
            if tok not in vocab:
                continue
            tok_count = sum(d.get(tok, 0) for d in docs)
            lik = (tok_count + alpha) / (total + alpha * len(vocab))
            p *= lik**c
        joint.append(p)
    return [j / sum(joint) for j in joint]


class TestTrain:
    def test_two_doc_hand_arithmetic(self):
        model = nb_train([{"a": 1}, {"b": 1}], [0, 1], alpha=1.0)
        assert np.exp(model.class_log_prior[0]) == pytest.approx(0.5)
        col = model.tokens.index("a")
        assert np.exp(model.token_log_prob[0, col]) == pytest.approx(2 / 3)

    def test_symmetric_corpus_swaps_cleanly(self):
        docs = [{"x": 2, "y": 1}, {"y": 2, "x": 1}]
        m = nb_train(docs, [0, 1])
        m_swapped = nb_train(docs, [1, 0])
        x, y = m.tokens.index("x"), m.tokens.index("y")
        assert m.token_log_prob[0, x] == pytest.approx(m_swapped.token_log_prob[1, x])
        assert m.token_log_prob[0, y] == pytest.approx(m_swapped.token_log_prob[1, y])

    def test_large_alpha_flattens_likelihoods(self):
        model = nb_train([{"a": 5}, {"b": 1}], [0, 1], alpha=1e9)
        probs = np.exp(model.token_log_prob)
        np.testing.assert_allclose(probs, 0.5, rtol=1e-6)

    def test_likelihoods_normalize(self):
        docs = [{"a": 3, "b": 1}, {"b": 2, "c": 4}, {"a": 1}]
        model = nb_train(docs, [0, 1, 0], alpha=0.5)
        sums = np.exp(model.token_log_prob).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert np.exp(model.class_log_prior).sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            nb_train([{"a": 1}, {"b": 1}], [0, 0])

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            nb_train([{"a": 1}, {"b": 1}], [0, 1], alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "int-past-float-range"])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ConfigError, match="finite"):
            nb_train([{"a": 1}, {"b": 1}], [0, 1], alpha=alpha)


class TestPredict:
    def test_empty_doc_falls_back_to_prior(self):
        model = nb_train([{"a": 1}, {"a": 1}, {"b": 1}], [0, 0, 1])
        assert nb_positive_probability(model, [{}])[0] == pytest.approx(1 / 3)

    def test_two_doc_posterior(self):
        model = nb_train([{"a": 1}, {"b": 1}], [0, 1], alpha=1.0)
        assert nb_positive_probability(model, [{"a": 1}])[0] == pytest.approx(1 / 3, rel=1e-12)

    def test_tied_scores_give_one_half(self):
        model = nb_train([{"a": 1}, {"a": 1}], [0, 1])
        assert nb_positive_probability(model, [{"a": 3}])[0] == pytest.approx(0.5)

    def test_unseen_tokens_ignored(self):
        model = nb_train([{"a": 1}, {"b": 1}], [0, 1])
        unseen, empty = nb_positive_probability(model, [{"zz": 7}, {}])
        assert unseen == empty

    def test_positive_probability_complements(self):
        # P(b | 1) = 3/4 and P(b | 0) = 1/4 at alpha 1, priors 1/2; a swaps them
        model = nb_train([{"a": 2}, {"b": 2}], [0, 1])
        assert nb_positive_probability(model, [{"b": 1}])[0] == pytest.approx(3 / 4)
        assert nb_positive_probability(model, [{"a": 1}])[0] == pytest.approx(1 / 4)

    def test_no_underflow_for_huge_documents(self):
        model = nb_train([{"a": 1, "b": 1}, {"b": 3}], [0, 1])
        doc = {"a": 600_000, "b": 400_000}
        p = nb_positive_probability(model, [doc])[0]
        assert math.isfinite(p)
        assert 0.0 <= p <= 1.0

    def test_posterior_invariant_under_corpus_duplication(self):
        # duplication scales counts and totals together; the smoothing mass
        # must scale with them for the likelihoods to stay literally equal
        # (at fixed alpha the invariance only holds in the alpha->0 limit)
        docs = [{"a": 2, "b": 1}, {"b": 4}, {"a": 1, "c": 2}]
        labels = [0, 1, 0]
        k = 3
        m1 = nb_train(docs, labels, alpha=1.0)
        m2 = nb_train(docs * k, labels * k, alpha=1.0 * k)
        for query in ({"a": 1}, {"b": 2, "c": 1}, {}):
            assert nb_positive_probability(m1, [query])[0] == pytest.approx(
                nb_positive_probability(m2, [query])[0], rel=1e-12
            )

    def test_priors_invariant_under_duplication_at_fixed_alpha(self):
        docs = [{"a": 2, "b": 1}, {"b": 4}, {"a": 1, "c": 2}]
        labels = [0, 1, 0]
        m1 = nb_train(docs, labels, alpha=1.0)
        m2 = nb_train(docs * 5, labels * 5, alpha=1.0)
        np.testing.assert_array_equal(m1.class_log_prior, m2.class_log_prior)


token_st = st.sampled_from(["t0", "t1", "t2", "t3", "t4"])
doc_st = st.dictionaries(token_st, st.integers(1, 4), min_size=1, max_size=4)


class TestBruteForceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(doc_st, min_size=2, max_size=3),
        labels_seed=st.integers(0, 100),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
        query=doc_st,
    )
    def test_posterior_matches_exhaustive_bayes(self, docs, labels_seed, alpha, query):
        rng = np.random.default_rng(labels_seed)
        labels = list(rng.integers(0, 2, len(docs)))
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        model = nb_train(docs, labels, alpha=alpha)
        expected = brute_force_posterior(docs, labels, alpha, query)
        p = nb_positive_probability(model, [query])[0]
        assert p == pytest.approx(expected[1], abs=1e-12)
        assert 1 - p == pytest.approx(expected[0], abs=1e-12)


class TestQualitativeImbalanceBehavior:
    def test_precision_exceeds_recall_on_imbalanced_synthetic_dga(self):
        # heavy legit prior plus short malicious strings: the prior wins on
        # weak-evidence payloads, so the positive class is under-recalled
        # while positive predictions stay nearly always right
        from costnet.data import GeneratorConfig, gen_synthetic
        from costnet.metrics import confusion, scores

        train = gen_synthetic(
            GeneratorConfig("dga", 4000, 200, seed=11, split="train",
                            malicious_range=(4, 8))
        )
        test = gen_synthetic(
            GeneratorConfig("dga", 400, 400, seed=12, split="test",
                            malicious_range=(4, 8))
        )
        n_range = (1, 2)
        docs = [ngram_counts(t, *n_range) for t in train.texts]
        model = nb_train(docs, train.labels, alpha=1.0)
        probs = [
            nb_positive_probability(model, [ngram_counts(t, *n_range)])[0] for t in test.texts
        ]
        s = scores(confusion(probs, test.labels))
        assert s["precision"] > s["recall"]
        assert s["recall"] < 99.0  # genuinely imperfect, not a rounding fluke


# The per-document code that the batched fit, scorer and n-gram counter
# replaced, kept here so the tests below can demand bit-identical results.


def loop_train(documents, labels, alpha):
    vocab = set()
    for doc in documents:
        vocab.update(doc.keys())
    tokens = tuple(sorted(vocab))
    index = {t: i for i, t in enumerate(tokens)}
    y = np.asarray(labels)
    counts = np.zeros((2, len(tokens)), dtype=np.float64)
    for doc, label in zip(documents, y):
        row = counts[int(label)]
        for tok, c in doc.items():
            row[index[tok]] += c
    totals = counts.sum(axis=1, keepdims=True)
    log_prob = np.log(counts + alpha) - np.log(totals + alpha * len(tokens))
    n = y.shape[0]
    prior = np.log(
        np.array([np.count_nonzero(y == 0), np.count_nonzero(y == 1)], dtype=np.float64) / n
    )
    return prior, log_prob, tokens


def loop_positive_probability(model, doc):
    scores = model.class_log_prior.copy()
    for tok, c in doc.items():
        col = model._index.get(tok)
        if col is not None:
            scores += c * model.token_log_prob[:, col]
    return float(np.exp(scores[1] - np.logaddexp(scores[0], scores[1])))


def loop_ngram_counts(text, n_lo, n_hi):
    text = text.lower()
    counts = Counter()
    for n in range(n_lo, n_hi + 1):
        for i in range(len(text) - n + 1):
            counts[text[i : i + n]] += 1
    return counts


seen_token_st = st.sampled_from(["t0", "t1", "t2", "t3", "t4", "t5"])
train_doc_st = st.dictionaries(seen_token_st, st.integers(1, 50), min_size=1, max_size=6)
# queries mix trained tokens with unseen ones, allow empty documents and
# counts far beyond any real text
query_token_st = st.one_of(seen_token_st, st.sampled_from(["u0", "u1", ""]))
query_count_st = st.one_of(st.integers(1, 9), st.integers(1, 10**12))
query_doc_st = st.dictionaries(query_token_st, query_count_st, max_size=8)


def labelled(docs, seed):
    labels = list(np.random.default_rng(seed).integers(0, 2, len(docs)))
    if len(set(labels)) < 2:
        labels[0] = 1 - labels[0]
    return labels


class TestBatchedEqualsPerDocumentLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        docs=st.lists(train_doc_st, min_size=2, max_size=8),
        labels_seed=st.integers(0, 1000),
        alpha=st.sampled_from([0.1, 1.0, 3.5]),
        queries=st.lists(query_doc_st, min_size=1, max_size=12),
    )
    def test_scores_bit_identical(self, docs, labels_seed, alpha, queries):
        model = nb_train(docs, labelled(docs, labels_seed), alpha=alpha)
        got = nb_positive_probability(model, queries)
        expected = np.array([loop_positive_probability(model, q) for q in queries])
        assert got.dtype == np.float64 and got.shape == (len(queries),)
        assert np.array_equal(got, expected)

    @settings(max_examples=80, deadline=None)
    @given(
        docs=st.lists(train_doc_st, min_size=2, max_size=12),
        labels_seed=st.integers(0, 1000),
        alpha=st.sampled_from([0.1, 1.0, 3.5, 1e9]),
    )
    def test_tables_bit_identical(self, docs, labels_seed, alpha):
        labels = labelled(docs, labels_seed)
        model = nb_train(docs, labels, alpha=alpha)
        prior, log_prob, tokens = loop_train(docs, labels, alpha)
        assert model.tokens == tokens
        assert np.array_equal(model.class_log_prior, prior)
        assert np.array_equal(model.token_log_prob, log_prob)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=40), n_lo=st.integers(1, 4), width=st.integers(0, 3))
    def test_ngram_counts_same_items_in_same_order(self, text, n_lo, width):
        n_hi = n_lo + width
        assert list(ngram_counts(text, n_lo, n_hi).items()) == list(
            loop_ngram_counts(text, n_lo, n_hi).items()
        )

    def test_generated_corpus_tables_and_scores_bit_identical(self):
        train = gen_synthetic(GeneratorConfig("url", 80, 40, seed=4, split="train"))
        test = gen_synthetic(GeneratorConfig("url", 30, 30, seed=5, split="test"))
        docs = [ngram_counts(t, 1, 3) for t in train.texts]
        model = nb_train(docs, train.labels, alpha=0.5)
        prior, log_prob, _ = loop_train(docs, train.labels, 0.5)
        assert np.array_equal(model.class_log_prior, prior)
        assert np.array_equal(model.token_log_prob, log_prob)
        queries = [ngram_counts(t, 1, 3) for t in test.texts]
        expected = np.array([loop_positive_probability(model, q) for q in queries])
        assert np.array_equal(nb_positive_probability(model, queries), expected)

    def test_single_text_predict_equals_its_batch_row(self):
        ckpt = trainer.train_naive_bayes(
            gen_synthetic(GeneratorConfig("dga", 40, 40, seed=3, split="train"))
        )
        texts = gen_synthetic(GeneratorConfig("dga", 10, 10, seed=30, split="test")).texts
        texts = list(texts) + ["", "zz-unseen-\u00ff"]
        batch = trainer.predict_probabilities(ckpt, texts)
        for i, text in enumerate(texts):
            assert trainer.predict_probability(ckpt, text) == batch[i]


def test_model_with_a_repeated_token_is_refused_when_made():
    model = nb_train([Counter("ab"), Counter("bc")], [0, 1])
    tokens = (model.tokens[1],) + model.tokens[1:]  # the index would score "a" nowhere
    with pytest.raises(DataError, match="unique"):
        NaiveBayesModel(model.class_log_prior, model.token_log_prob, tokens)
