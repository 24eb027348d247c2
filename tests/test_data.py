import csv
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costnet.data import (
    SOURCE_CORPUS_COUNTS,
    GeneratorConfig,
    LabeledDataset,
    check_disjoint,
    class_counts,
    gen_synthetic,
    load_csv,
    save_csv,
)
from costnet.errors import ConfigError, DataError, ParseError

FIXTURES = Path(__file__).parent / "fixtures"


class TestManifest:
    def test_published_train_counts(self):
        assert SOURCE_CORPUS_COUNTS["dga"]["train"] == (38276, 53052)
        assert SOURCE_CORPUS_COUNTS["email"]["train"] == (19337, 24665)
        assert SOURCE_CORPUS_COUNTS["url"]["train"] == (23374, 11116)

    def test_published_test_counts(self):
        assert SOURCE_CORPUS_COUNTS["dga"]["test"] == (12753, 17690)
        assert SOURCE_CORPUS_COUNTS["email"]["test"] == (8153, 10706)
        assert SOURCE_CORPUS_COUNTS["url"]["test"] == (1142, 578)


class TestLoadCsv:
    def test_tiny_fixtures_load(self):
        for name in ("dga_tiny.csv", "email_tiny.csv", "url_tiny.csv"):
            ds = load_csv(FIXTURES / name)
            assert len(ds) >= 4
            assert set(ds.labels) == {0, 1}

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label\nalpha.com,0\nzulu.net,1\nbeta.org,0\n")
        ds = load_csv(path)
        assert ds.texts == ("alpha.com", "zulu.net", "beta.org")
        assert ds.labels == (0, 1, 0)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label\nok.com,0\nbad.com,2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_duplicate_text_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label\nsame.com,0\nsame.com,1\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("domain,y\nx.com,0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize(
        "body", [b"\xfftext,label\n", b"text,label\nok.com,0\nb\xffd.com,1\n"], ids=["header", "row"]
    )
    def test_non_utf8_bytes_name_the_path(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_bytes(body)
        with pytest.raises(ParseError, match=r"d\.csv: not valid UTF-8"):
            load_csv(path)

    def test_quoted_round_trip(self, tmp_path):
        ds = LabeledDataset(
            texts=("hello, world", 'line\nbreak and "quotes"', "plain"),
            labels=(0, 1, 0),
        )
        path = tmp_path / "quoted.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.texts == ds.texts and back.labels == ds.labels


class TestDatasetInvariants:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            LabeledDataset(texts=("a",), labels=(0, 1))

    def test_train_split_needs_both_classes(self):
        with pytest.raises(DataError):
            LabeledDataset(texts=("a", "b"), labels=(0, 0), split="train")
        LabeledDataset(texts=("a", "b"), labels=(0, 0), split="test")  # fine

    def test_class_counts_order(self):
        ds = LabeledDataset(texts=("a", "b", "c"), labels=(0, 1, 1))
        assert class_counts(ds) == [1, 2]


class TestGenerator:
    def test_deterministic_and_counted(self):
        cfg = GeneratorConfig("dga", 100, 50, seed=7)
        a, b = gen_synthetic(cfg), gen_synthetic(cfg)
        assert a.texts == b.texts and a.labels == b.labels
        assert class_counts(a) == [100, 50]

    def test_seed_sensitivity(self):
        a = gen_synthetic(GeneratorConfig("dga", 10, 10, seed=7))
        b = gen_synthetic(GeneratorConfig("dga", 10, 10, seed=8))
        assert Counter(a.texts) != Counter(b.texts)

    def test_texts_unique_within_split(self):
        ds = gen_synthetic(GeneratorConfig("url", 300, 300, seed=3))
        assert len(set(ds.texts)) == len(ds.texts)

    @pytest.mark.parametrize("use_case", ["dga", "email", "url"])
    def test_train_test_disjoint(self, use_case):
        train = gen_synthetic(GeneratorConfig(use_case, 200, 200, seed=5, split="train"))
        test = gen_synthetic(GeneratorConfig(use_case, 150, 150, seed=99, split="test"))
        check_disjoint(train, test)

    def test_disjoint_even_with_same_seed(self):
        train = gen_synthetic(GeneratorConfig("dga", 300, 300, seed=4, split="train"))
        test = gen_synthetic(GeneratorConfig("dga", 300, 300, seed=4, split="test"))
        check_disjoint(train, test)

    def test_check_disjoint_raises_on_overlap(self):
        a = LabeledDataset(texts=("x.com", "y.com"), labels=(0, 1))
        b = LabeledDataset(texts=("y.com",), labels=(1,))
        with pytest.raises(DataError, match="share"):
            check_disjoint(a, b)

    def test_malicious_dga_has_higher_character_entropy(self):
        ds = gen_synthetic(GeneratorConfig("dga", 1000, 1000, seed=17))

        def char_entropy(text: str) -> float:
            counts = Counter(text)
            total = len(text)
            return -sum(c / total * math.log2(c / total) for c in counts.values())

        by_label = {0: [], 1: []}
        for text, label in zip(ds.texts, ds.labels):
            by_label[label].append(char_entropy(text))
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(by_label[1]) > mean(by_label[0])

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            GeneratorConfig("dns", 1, 1, seed=0)
        with pytest.raises(ConfigError):
            GeneratorConfig("dga", 0, 1, seed=0)
        with pytest.raises(ConfigError):
            GeneratorConfig("dga", 1, 1, seed=0, split="dev")

    @pytest.mark.parametrize("bounds", [(5, 1), (0, 3), (-2, -1)])
    @pytest.mark.parametrize("which", ["legit_range", "malicious_range"])
    def test_bad_length_range(self, which, bounds):
        with pytest.raises(ConfigError, match="1 <= LO <= HI"):
            GeneratorConfig("dga", 1, 1, seed=0, **{which: bounds})

    def test_single_value_range_accepted(self):
        ds = gen_synthetic(GeneratorConfig("dga", 3, 3, seed=0, legit_range=(1, 1)))
        assert len(ds) == 6

    def test_email_texts_look_like_word_bags(self):
        ds = gen_synthetic(GeneratorConfig("email", 20, 20, seed=2))
        for text in ds.texts:
            assert all(w.isalpha() for w in text.split())

    def test_url_texts_have_scheme(self):
        ds = gen_synthetic(GeneratorConfig("url", 20, 20, seed=2))
        assert all(t.startswith(("http://", "https://")) for t in ds.texts)


# pieces of CSV files: raw bytes, the characters CSV parsing turns on, and
# fields around csv.field_size_limit() long, bare or quoted
_CSV_PIECES = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"text,label\n", b",", b"\n", b"\r", b'"', b"0", b"1", b"\x00", b"\xff", b"a.com"]),
    st.builds(
        lambda n, quote: quote + b"a" * n + quote,
        st.integers(csv.field_size_limit() - 2, csv.field_size_limit() + 2),
        st.sampled_from([b"", b'"']),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(_CSV_PIECES, max_size=12).map(b"".join),
    split=st.sampled_from([None, "train", "test"]),
)
@example(raw=b'text,label\nok.com,0\n"' + b"a" * (csv.field_size_limit() + 1) + b'",1\n', split=None)
def test_any_bytes_load_or_raise_a_data_error(tmp_path_factory, raw, split):
    path = tmp_path_factory.getbasetemp() / "property-bytes.csv"
    path.write_bytes(raw)
    try:
        assert isinstance(load_csv(path, split=split), LabeledDataset)
    except DataError:  # ParseError included
        pass
