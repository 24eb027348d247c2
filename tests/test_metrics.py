import pytest
from hypothesis import given
from hypothesis import strategies as st

from costnet.errors import ContractError
from costnet.metrics import ConfusionMatrix, confusion, metrics_report, scores
from costnet.reference_results import REPORTED_ROWS


class TestConfusion:
    def test_basic_counts(self):
        cm = confusion([0.9, 0.1], [1, 0])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)

    def test_threshold_boundary_is_positive(self):
        cm = confusion([0.5], [1])
        assert cm.tp == 1 and cm.fn == 0

    def test_all_wrong_predictor(self):
        cm = confusion([0.9, 0.1], [0, 1])
        assert cm.tp == 0 and cm.tn == 0 and cm.fp == 1 and cm.fn == 1

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            confusion([0.5, 0.5], [1])


class TestScores:
    def test_published_email_nb_row(self):
        s = scores(ConfusionMatrix(tn=8122, fp=31, fn=5855, tp=4851))
        assert s["accuracy"] == pytest.approx(68.8, abs=0.1)
        assert s["precision"] == pytest.approx(99.4, abs=0.1)
        assert s["recall"] == pytest.approx(45.3, abs=0.1)
        assert s["f1"] == pytest.approx(62.2, abs=0.1)

    def test_published_url_rf_row(self):
        s = scores(ConfusionMatrix(tn=1095, fp=47, fn=125, tp=453))
        assert s["accuracy"] == pytest.approx(90.0, abs=0.1)
        assert s["precision"] == pytest.approx(90.6, abs=0.1)
        assert s["recall"] == pytest.approx(78.4, abs=0.1)
        assert s["f1"] == pytest.approx(84.0, abs=0.1)

    def test_perfect_classifier(self):
        s = scores(ConfusionMatrix(tn=10, fp=0, fn=0, tp=10))
        assert all(v == 100.0 for v in s.values())

    def test_zero_denominators(self):
        s = scores(ConfusionMatrix(tn=5, fp=0, fn=0, tp=0))
        assert s["precision"] == 0.0 and s["recall"] == 0.0 and s["f1"] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            scores(ConfusionMatrix(0, 0, 0, 0))

    @given(
        tn=st.integers(0, 1000), fp=st.integers(0, 1000),
        fn=st.integers(0, 1000), tp=st.integers(0, 1000),
    )
    def test_f1_between_precision_and_recall(self, tn, fp, fn, tp):
        cm = ConfusionMatrix(tn, fp, fn, tp)
        if cm.total == 0:
            return
        s = scores(cm)
        if s["precision"] > 0 and s["recall"] > 0:
            ulp = 1e-9  # harmonic-mean bound holds up to rounding
            assert min(s["precision"], s["recall"]) - ulp <= s["f1"]
            assert s["f1"] <= max(s["precision"], s["recall"]) + ulp

    @given(
        tn=st.integers(0, 500), fp=st.integers(0, 500),
        fn=st.integers(0, 500), tp=st.integers(1, 500),
        k=st.integers(2, 50),
    )
    def test_invariant_under_uniform_count_scaling(self, tn, fp, fn, tp, k):
        a = scores(ConfusionMatrix(tn, fp, fn, tp))
        b = scores(ConfusionMatrix(tn * k, fp * k, fn * k, tp * k))
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-12)

    def test_report_is_flat_and_complete(self):
        report = metrics_report(ConfusionMatrix(1, 2, 3, 4))
        assert set(report) == {"accuracy", "precision", "recall", "f1", "tn", "fp", "fn", "tp"}


class TestReportedRowSweep:
    @pytest.mark.parametrize(
        "row", [r for r in REPORTED_ROWS if r.consistent],
        ids=lambda r: f"{r.use_case}-{r.model}-{'cs' if r.cost_sensitive else 'ci'}",
    )
    def test_consistent_rows_recompute_within_rounding(self, row):
        s = scores(ConfusionMatrix(tn=row.tn, fp=row.fp, fn=row.fn, tp=row.tp))
        assert s["accuracy"] == pytest.approx(row.accuracy, abs=0.2)
        assert s["precision"] == pytest.approx(row.precision, abs=0.2)
        assert s["recall"] == pytest.approx(row.recall, abs=0.2)

    def test_flagged_rows_really_are_inconsistent(self):
        flagged = [r for r in REPORTED_ROWS if not r.consistent]
        assert len(flagged) == 2
        nb = next(r for r in flagged if r.model == "naive_bayes")
        s = scores(ConfusionMatrix(tn=nb.tn, fp=nb.fp, fn=nb.fn, tp=nb.tp))
        assert abs(s["f1"] - nb.f1) > 0.2  # printed f1 does not follow from counts
        hybrid = next(r for r in flagged if r.model == "cnn_lstm")
        s = scores(ConfusionMatrix(tn=hybrid.tn, fp=hybrid.fp, fn=hybrid.fn, tp=hybrid.tp))
        assert abs(s["accuracy"] - hybrid.accuracy) > 0.2
