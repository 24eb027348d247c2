import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costnet.errors import ConfigError, DataError
from costnet.naive_bayes import nb_positive_probability, nb_train
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


class TestPredict:
    def test_empty_doc_falls_back_to_prior(self):
        model = nb_train([{"a": 1}, {"a": 1}, {"b": 1}], [0, 0, 1])
        assert nb_positive_probability(model, {}) == pytest.approx(1 / 3)

    def test_two_doc_posterior(self):
        model = nb_train([{"a": 1}, {"b": 1}], [0, 1], alpha=1.0)
        assert nb_positive_probability(model, {"a": 1}) == pytest.approx(1 / 3, rel=1e-12)

    def test_tied_scores_give_one_half(self):
        model = nb_train([{"a": 1}, {"a": 1}], [0, 1])
        assert nb_positive_probability(model, {"a": 3}) == pytest.approx(0.5)

    def test_unseen_tokens_ignored(self):
        model = nb_train([{"a": 1}, {"b": 1}], [0, 1])
        assert nb_positive_probability(model, {"zz": 7}) == nb_positive_probability(model, {})

    def test_positive_probability_complements(self):
        # P(b | 1) = 3/4 and P(b | 0) = 1/4 at alpha 1, priors 1/2; a swaps them
        model = nb_train([{"a": 2}, {"b": 2}], [0, 1])
        assert nb_positive_probability(model, {"b": 1}) == pytest.approx(3 / 4)
        assert nb_positive_probability(model, {"a": 1}) == pytest.approx(1 / 4)

    def test_no_underflow_for_huge_documents(self):
        model = nb_train([{"a": 1, "b": 1}, {"b": 3}], [0, 1])
        doc = {"a": 600_000, "b": 400_000}
        p = nb_positive_probability(model, doc)
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
            assert nb_positive_probability(m1, query) == pytest.approx(
                nb_positive_probability(m2, query), rel=1e-12
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
        p = nb_positive_probability(model, query)
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
            nb_positive_probability(model, ngram_counts(t, *n_range)) for t in test.texts
        ]
        s = scores(confusion(probs, test.labels))
        assert s["precision"] > s["recall"]
        assert s["recall"] < 99.0  # genuinely imperfect, not a rounding fluke
