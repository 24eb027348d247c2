import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costnet import cli, trainer
from costnet.errors import CheckpointError, ConfigError, CostnetError
from costnet.metrics import ConfusionMatrix, scores
from costnet.naive_bayes import nb_train
from costnet.text import ngram_counts


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train_csv = root / "train.csv"
    test_csv = root / "test.csv"
    assert cli.main([
        "gen-data", "--use-case", "dga", "--legit", "60", "--malicious", "60",
        "--seed", "5", "--split", "train", "--out", str(train_csv),
    ]) == 0
    assert cli.main([
        "gen-data", "--use-case", "dga", "--legit", "30", "--malicious", "30",
        "--seed", "6", "--split", "test", "--out", str(test_csv),
    ]) == 0
    model = root / "model.ckpt"
    assert cli.main([
        "train", "--train", str(train_csv), "--preset", "cnn", "--gamma", "0",
        "--epochs", "3", "--lr", "0.01", "--seed", "1", "--max-len", "30",
        "--out", str(model),
    ]) == 0
    return root, train_csv, test_csv, model


class TestGenData:
    def test_identical_flags_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["gen-data", "--use-case", "url", "--legit", "20", "--malicious",
                 "20", "--seed", "3", "--out"]
        assert cli.main(flags + [str(a)]) == 0
        assert cli.main(flags + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_stays_clean(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "gen-data", "--use-case", "dga", "--legit", "5",
            "--malicious", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0 and out == "" and "wrote" in err


    def test_inverted_range_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen-data", "--use-case", "dga", "--legit", "5", "--malicious", "5",
            "--legit-range", "5,1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2 and err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()


class TestWeights:
    def test_manifest_gamma_one(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--manifest", "dga:train", "--gamma", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [38276, 53052]
        assert payload["raw"] == [1 / 38276, 1 / 53052]

    def test_counts_flag(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--counts", "9,1", "--gamma", "1")
        payload = json.loads(out)
        assert payload["normalized"] == pytest.approx([5 / 9, 5.0])

    def test_csv_input(self, capsys, toy_corpus):
        _, train_csv, _, _ = toy_corpus
        code, out, _ = run_cli(capsys, "weights", "--train", str(train_csv), "--gamma", "0.5")
        assert code == 0
        assert json.loads(out)["counts"] == [60, 60]

    def test_empty_train_path_is_data_error(self, capsys):
        # an empty path is a path to open, not an absent --train
        code, out, err = run_cli(capsys, "weights", "--train", "", "--gamma", "1")
        assert code == 1 and out == "" and err.startswith("error: cannot open")

    def test_bad_manifest_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "weights", "--manifest", "dns:train", "--gamma", "1")
        assert code == 2 and "error" in err

    def test_counts_beyond_float_range_are_data_error(self, capsys):
        code, out, err = run_cli(capsys, "weights", "--counts", f"{10**310},1", "--gamma", "1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestTrainEvaluatePredict:
    def test_evaluate_emits_parseable_metrics(self, capsys, toy_corpus):
        _, _, test_csv, model = toy_corpus
        code, out, _ = run_cli(capsys, "evaluate", "--model", str(model), "--test", str(test_csv))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"accuracy", "precision", "recall", "f1", "tn", "fp", "fn", "tp"}

    def test_predict_schema(self, capsys, toy_corpus):
        _, _, _, model = toy_corpus
        code, out, _ = run_cli(capsys, "predict", "--model", str(model), "--text", "example.com")
        payload = json.loads(out)
        assert code == 0 and set(payload) == {"probability", "label"}
        assert payload["label"] in (0, 1)

    def test_loss_lines_on_stderr(self, capsys, toy_corpus):
        root, train_csv, _, _ = toy_corpus
        code, out, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--preset", "lstm",
            "--epochs", "2", "--max-len", "20", "--out", str(root / "l.ckpt"),
        )
        assert code == 0 and out == ""
        lines = [l for l in err.splitlines() if l.startswith("epoch ")]
        assert len(lines) == 2

    def test_label_flip_transposes_confusion(self, capsys, toy_corpus, tmp_path):
        root, _, test_csv, model = toy_corpus
        flipped = tmp_path / "flipped.csv"
        rows = test_csv.read_text().splitlines()
        out_rows = [rows[0]]
        for row in rows[1:]:
            body, label = row.rsplit(",", 1)
            out_rows.append(f"{body},{1 - int(label)}")
        flipped.write_text("\n".join(out_rows) + "\n")
        _, out_a, _ = run_cli(capsys, "evaluate", "--model", str(model), "--test", str(test_csv))
        _, out_b, _ = run_cli(capsys, "evaluate", "--model", str(model), "--test", str(flipped))
        a, b = json.loads(out_a), json.loads(out_b)
        assert (a["tp"], a["fn"], a["tn"], a["fp"]) == (b["fp"], b["tn"], b["fn"], b["tp"])
        recomputed = scores(ConfusionMatrix(tn=b["tn"], fp=b["fp"], fn=b["fn"], tp=b["tp"]))
        assert recomputed["recall"] == pytest.approx(b["recall"])

    def test_config_file_precedence(self, capsys, toy_corpus, tmp_path):
        root, train_csv, _, _ = toy_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "max_len": 20, "preset": "cnn"}))
        out_path = tmp_path / "cfg.ckpt"
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--config", str(cfg),
            "--epochs", "2", "--out", str(out_path),
        )
        assert code == 0
        assert len([l for l in err.splitlines() if l.startswith("epoch ")]) == 2  # flag wins

    def test_empty_config_path_is_data_error(self, capsys, toy_corpus, tmp_path):
        # an empty path is a file to open, not an absent --config
        _, train_csv, _, _ = toy_corpus
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--config", "", "--epochs", "1",
            "--out", str(tmp_path / "m.ckpt"),
        )
        assert code == 1 and err.startswith("error:")
        assert not (tmp_path / "m.ckpt").exists()

    def test_config_file_unknown_key(self, capsys, toy_corpus, tmp_path):
        _, train_csv, _, _ = toy_corpus
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning": 1}))
        code, _, _ = run_cli(
            capsys, "train", "--train", str(train_csv), "--config", str(cfg),
            "--out", str(tmp_path / "x.ckpt"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text", ['{"epochs": ', '{"epochs": "five"}', '{"raw_weights": 1}', '[1, 2]'],
        ids=["malformed", "string-epochs", "int-flag", "not-object"],
    )
    def test_bad_config_file_is_usage_error(self, capsys, toy_corpus, tmp_path, text):
        _, train_csv, _, _ = toy_corpus
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--config", str(cfg),
            "--out", str(tmp_path / "x.ckpt"),
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("ngrams", ["1,x", "3", "2,1"])
    def test_bad_ngram_range_is_usage_error(self, capsys, toy_corpus, tmp_path, ngrams):
        _, train_csv, _, _ = toy_corpus
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--preset", "naive_bayes",
            "--ngrams", ngrams, "--out", str(tmp_path / "x.ckpt"),
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--eval-every", "-1"),
                                            ("--max-len", "0"), ("--max-len", str(10**20))])
    def test_bad_train_value_is_usage_error(self, capsys, toy_corpus, tmp_path, flag, value):
        _, train_csv, _, _ = toy_corpus
        out_path = tmp_path / "x.ckpt"
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--epochs", "1", flag, value,
            "--out", str(out_path),
        )
        assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err and not out_path.exists()

    @pytest.mark.parametrize("flags", [
        ["--lr", "nan"], ["--lr", "inf"],
        ["--preset", "naive_bayes", "--alpha", "nan"], ["--preset", "naive_bayes", "--alpha", "inf"],
    ], ids=["lr-nan", "lr-inf", "alpha-nan", "alpha-inf"])
    def test_non_finite_step_is_usage_error(self, capsys, toy_corpus, tmp_path, flags):
        _, train_csv, _, _ = toy_corpus
        out_path = tmp_path / "x.ckpt"
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--epochs", "1", *flags,
            "--out", str(out_path),
        )
        assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err and not out_path.exists()

    @pytest.mark.parametrize("text,flags", [
        (json.dumps({"lr": 10**400}), []),
        (json.dumps({"alpha": 10**400}), ["--preset", "naive_bayes"]),
        (json.dumps({"max_len": 10**400}), []),
        ("{}", ["--max-len", str(10**400)]),
        (json.dumps({"alpha": 0}), ["--preset", "naive_bayes"]),
        (json.dumps({"use_case": "xx"}), []),
        (json.dumps({"preset": "xx"}), []),
        ('{"epochs": 1' + "0" * 5000 + "}", []),
    ], ids=["lr-huge", "alpha-huge", "max-len-huge", "max-len-huge-flag", "alpha-zero",
            "unknown-use-case", "unknown-preset", "int-past-digit-limit"])
    def test_bad_config_value_is_one_usage_error(self, capsys, toy_corpus, tmp_path, text, flags):
        _, train_csv, _, _ = toy_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out_path = tmp_path / "x.ckpt"
        code, _, err = run_cli(
            capsys, "train", "--train", str(train_csv), "--epochs", "1", "--config", str(cfg),
            *flags, "--out", str(out_path),
        )
        assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err and not out_path.exists()

    def test_naive_bayes_preset(self, capsys, toy_corpus, tmp_path):
        _, train_csv, test_csv, _ = toy_corpus
        nb_path = tmp_path / "nb.ckpt"
        code, _, _ = run_cli(
            capsys, "train", "--train", str(train_csv), "--preset", "naive_bayes",
            "--out", str(nb_path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "evaluate", "--model", str(nb_path), "--test", str(test_csv))
        assert code == 0 and json.loads(out)["accuracy"] > 80


class TestErrorsAndHelp:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["weights", "--gamma", "1", "--bogus"]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "evaluate", "--model", str(tmp_path / "no.ckpt"),
            "--test", str(tmp_path / "no.csv"),
        )
        assert code == 1

    def test_non_utf8_csv_is_data_error(self, capsys, toy_corpus, tmp_path):
        _, _, _, model = toy_corpus
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"text,label\nok.com,0\n\xff.com,1\n")
        code, out, err = run_cli(capsys, "evaluate", "--model", str(model), "--test", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(bad) in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_field_over_the_csv_limit_is_data_error(self, capsys, toy_corpus, tmp_path, command):
        _, _, _, model = toy_corpus
        bad = tmp_path / "long.csv"  # one character past the csv module's field limit
        bad.write_text('text,label\nok.com,0\n"' + "a" * 131_073 + '",1\n')
        argv = (["train", "--train", str(bad), "--out", str(tmp_path / "m.ckpt")]
                if command == "train" else ["evaluate", "--model", str(model), "--test", str(bad)])
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{bad}: line 3: field larger than field limit" in err

    @pytest.mark.parametrize("max_len", [131_073, 10**20])
    def test_header_max_len_past_the_limit_is_checkpoint_error(self, capsys, tmp_path, max_len):
        # lstm shapes do not depend on max_len, so only the limit stops this one
        fixture = Path(__file__).parent / "fixtures" / "dga_tiny_lstm.ckpt"
        head, blob = fixture.read_bytes().split(b"\x00", 1)
        header = dict(json.loads(head), max_len=max_len)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode("utf-8") + b"\x00" + blob)
        code, out, err = run_cli(capsys, "predict", "--model", str(bad), "--text", "a.com")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "max_len" in err

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def too_big(args):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setitem(cli._COMMANDS, "predict", too_big)
        code, out, err = run_cli(capsys, "predict", "--model", "m.ckpt", "--text", "a.com")
        assert code == 1 and out == ""
        assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"

    def test_bad_gamma_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "weights", "--counts", "5,5", "--gamma", "7")
        assert code == 2

    def test_every_flag_documented_in_help(self, capsys):
        parser = cli.build_parser()
        sub_actions = [a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))]
        for name, sub in sub_actions[0].choices.items():
            text = sub.format_help()
            for action in sub._actions:
                for opt in action.option_strings:
                    assert opt in text, f"{name}: {opt} missing from --help"

    def test_gradcheck_single_preset(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--preset", "cnn")
        assert code == 0
        payload = json.loads(out)
        assert payload["preset_cnn"] < 1e-4


def _tampered(header, fault):
    """The header of a saved checkpoint with one field broken."""
    if fault == "no-preset":
        del header["preset"]
    elif fault == "unknown-dims-key":
        header["hyperparameters"]["dims"]["bogus"] = 1
    elif fault == "short-manifest-entry":
        header["manifest"][0] = header["manifest"][0][:3]
    elif fault == "string-max-len":
        header["max_len"] = str(header["max_len"])
    elif fault == "list-header":
        header = [header]
    elif fault == "int-vocab":
        header["vocab"] = 5
    elif fault == "negative-offset":
        header["manifest"][0][2] = -4
    elif fault == "zero-embed-dim":
        header["hyperparameters"]["dims"]["embed_dim"] = 0
    elif fault == "head-dropout-one":
        header["hyperparameters"]["dims"]["head_dropout"] = 1.0
    elif fault == "zero-pool":
        header["hyperparameters"]["dims"]["pool"] = 0
    elif fault == "kernel-past-max-len":
        header["hyperparameters"]["dims"]["conv_kernel"] = header["max_len"] + 1
    elif fault == "alpha-zero":
        header["hyperparameters"]["alpha"] = 0
    elif fault == "alpha-negative":
        header["hyperparameters"]["alpha"] = -1
    elif fault == "alpha-huge":
        header["hyperparameters"]["alpha"] = 10**400
    elif fault == "bool-manifest-count":
        header["manifest"][0][3] = True
    return header


@pytest.mark.parametrize("fault", [
    "no-preset", "unknown-dims-key", "short-manifest-entry", "string-max-len",
    "list-header", "int-vocab", "negative-offset",
    "zero-embed-dim", "head-dropout-one", "zero-pool", "kernel-past-max-len",
])
def test_tampered_header_is_clean_error(toy_corpus, tmp_path, fault):
    _, _, _, model = toy_corpus
    head, blob = model.read_bytes().split(b"\x00", 1)
    header = _tampered(json.loads(head), fault)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode("utf-8") + b"\x00" + blob)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "costnet", "predict", "--model", str(bad), "--text", "a.com"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.fixture(scope="module")
def toy_nb_model(toy_corpus):
    root, train_csv, _, _ = toy_corpus
    model = root / "nb.ckpt"
    assert cli.main(["train", "--train", str(train_csv), "--preset", "naive_bayes",
                     "--out", str(model)]) == 0
    return model


@pytest.mark.parametrize("fault", [
    "alpha-zero", "alpha-negative", "alpha-huge", "bool-manifest-count",
])
def test_tampered_header_is_checkpoint_error(toy_corpus, toy_nb_model, tmp_path, fault):
    # more faults of the kind above, checked in-process to spare a subprocess each
    model = toy_nb_model if fault.startswith("alpha") else toy_corpus[3]
    head, blob = model.read_bytes().split(b"\x00", 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(_tampered(json.loads(head), fault)).encode("utf-8") + b"\x00" + blob)
    with pytest.raises(CheckpointError):
        trainer.load(bad)


def test_int_past_digit_limit_in_header_is_checkpoint_error(toy_corpus, tmp_path):
    head, blob = toy_corpus[3].read_bytes().split(b"\x00", 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(head[:-1] + b',"x":1' + b"0" * 5000 + b"}\x00" + blob)
    with pytest.raises(CheckpointError, match="malformed header"):
        trainer.load(bad)


def _with_vocab_fault(tmp_path, fault):
    """A copy of a fixture checkpoint whose header vocab cannot score."""
    fixture = "dga_tiny_naive_bayes.ckpt" if fault == "repeated-token" else "dga_tiny_cnn.ckpt"
    head, blob = (Path(__file__).parent / "fixtures" / fixture).read_bytes().split(b"\x00", 1)
    header = json.loads(head)
    vocab = header["vocab"]
    if fault == "two-char-entry":
        vocab[1] = "ab"
    else:  # a repeated character, or a repeated naive bayes token
        vocab[1] = vocab[0]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode("utf-8") + b"\x00" + blob)
    return bad


VOCAB_FAULTS = ["two-char-entry", "repeated-char", "repeated-token"]


@pytest.mark.parametrize("fault", VOCAB_FAULTS)
def test_vocab_that_cannot_score_is_refused_by_load(tmp_path, fault):
    bad = _with_vocab_fault(tmp_path, fault)
    with pytest.raises(CheckpointError, match="unique|single characters") as caught:
        trainer.load(bad)
    assert str(bad) in str(caught.value)


@pytest.mark.parametrize("fault", VOCAB_FAULTS)
def test_vocab_that_cannot_score_is_one_predict_error(capsys, tmp_path, fault):
    bad = _with_vocab_fault(tmp_path, fault)
    code, out, err = run_cli(capsys, "predict", "--model", str(bad), "--text", "a.com")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and str(bad) in err
    assert "Traceback" not in err


# JSON scalars and nested lists: values some option takes, values none takes,
# and the edges between, such as ints beyond float range, NaN and bools
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from([10**400, -(10**400), 2**63, 1e308]),
    st.sampled_from([0, 1, 2, 64, 0.5, "cnn", "naive_bayes", "dga", "email",
                     "1,2", "2,1", "1,x", "1,99", [1, 3]]),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS, st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3))
)
# values each of the 12 options takes, so that the object with one value
# drawn from _JSON_VALUES often passes the merge and reaches the trainer
_IN_KIND = {
    "preset": ["cnn", "lstm", "naive_bayes"], "gamma": [0, 0.5, 1.0], "epochs": [1, 3],
    "lr": [0.01, 2], "batch_size": [2, 64], "seed": [0, 7], "max_len": [None, 30],
    "use_case": [None, "dga"], "raw_weights": [False, True], "eval_every": [0, 2],
    "alpha": [0.5, 1], "ngrams": ["1,3", [2, 4]],
}


@settings(max_examples=200, deadline=None)
@example(file_cfg={}, key="lr", value=10**400)
@example(file_cfg={"preset": "naive_bayes"}, key="alpha", value=10**400)
@example(file_cfg={}, key="max_len", value=10**400)
@given(
    file_cfg=st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(values) for key, values in _IN_KIND.items()}
    ),
    key=st.sampled_from(sorted(_IN_KIND)),
    value=_JSON_VALUES,
)
def test_any_config_object_is_accepted_or_a_config_error(tmp_path_factory, file_cfg, key, value):
    file_cfg[key] = value
    path = tmp_path_factory.getbasetemp() / "property-config.json"
    path.write_text(json.dumps(file_cfg))
    args = cli.build_parser().parse_args(
        ["train", "--train", "unread.csv", "--out", "unwritten.ckpt", "--config", str(path)]
    )
    try:
        opts = cli._merge_train_options(args)
    except ConfigError:
        return
    builds = [
        lambda: trainer.TrainConfig(
            learning_rate=opts["lr"], epochs=opts["epochs"], batch_size=opts["batch_size"],
            gamma=opts["gamma"], normalize_weights=not opts["raw_weights"], seed=opts["seed"],
            preset=opts["preset"], max_len=opts["max_len"], eval_every=opts["eval_every"],
        ),
        lambda: nb_train([{"a": 1}, {"b": 1}], [0, 1], alpha=opts["alpha"]),
        lambda: ngram_counts("ab.com", *opts["ngrams"]),
    ]
    for build in builds:
        try:
            build()
        except ConfigError:
            pass


def _header_paths(node, prefix=()):
    """The key path of every value in a header; lists give their first three items."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node[:3]) if isinstance(node, list) else ()
    for key, value in items:
        yield from _header_paths(value, prefix + (key,))


_DELETED = object()


@settings(max_examples=200, deadline=None)
@given(nb=st.booleans(), data=st.data())
def test_any_single_field_mutation_of_a_header_loads_or_is_a_checkpoint_error(
    toy_corpus, toy_nb_model, tmp_path_factory, nb, data
):
    head, blob = (toy_nb_model if nb else toy_corpus[3]).read_bytes().split(b"\x00", 1)
    header = json.loads(head)
    path = data.draw(st.sampled_from(list(_header_paths(header))), label="path")
    value = data.draw(st.one_of(st.just(_DELETED), _JSON_VALUES), label="value")
    if not path:
        header = None if value is _DELETED else value
    else:
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    bad = tmp_path_factory.getbasetemp() / "property-header.ckpt"
    bad.write_bytes(json.dumps(header).encode("utf-8") + b"\x00" + blob)
    try:
        ckpt = trainer.load(bad)
    except CheckpointError:
        return
    # one that loads scores, or fails as cleanly: a moved offset can read NaN weights
    try:
        assert 0.0 <= trainer.predict_probability(ckpt, "a.com") <= 1.0
    except CostnetError:
        pass


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=300), keep=st.integers(0, 1 << 20))
def test_any_bytes_are_a_checkpoint_or_a_checkpoint_error(toy_corpus, tmp_path_factory, raw, keep):
    # bare bytes, and a saved checkpoint cut anywhere with bytes appended
    path = tmp_path_factory.getbasetemp() / "property-bytes.ckpt"
    for content in (raw, toy_corpus[3].read_bytes()[:keep] + raw):
        path.write_bytes(content)
        try:
            trainer.load(path)
        except CheckpointError:
            pass


def _flags(command):
    """Every option string of one CLI subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [opt for action in sub.choices[command]._actions for opt in action.option_strings]


_FIXTURE_DIR = Path(__file__).parent / "fixtures"
_FIXTURES = sorted(p.name for p in _FIXTURE_DIR.iterdir())
#: a legal run of each command that drawn flags are appended to. Each example
#: runs in a fresh directory that holds copies of the fixtures, so every path
#: a vector reads or writes lies inside it. Every number below has at most
#: three digits, and no legal --max-len is above 100, so no example allocates
#: much.
_ARGV_BASES = {
    "gen-data": ["--use-case", "dga", "--legit", "3", "--malicious", "3", "--out", "out.csv"],
    "weights": ["--counts", "5,1", "--gamma", "1"],
    "train": ["--train", "dga_tiny.csv", "--preset", "cnn", "--out", "out.ckpt"],
    "evaluate": ["--model", "dga_tiny_cnn.ckpt", "--test", "dga_tiny.csv"],
    "predict": ["--model", "dga_tiny_lstm.ckpt", "--text", "a.com"],
}
_ARGV_FLAGS = sorted({flag for command in _ARGV_BASES for flag in _flags(command)})
_ARGV_VALUES = (
    ["", "-1", "nan", "inf", "1e400", "2,1", "transformer", "missing/x.csv", "."]
    + _FIXTURES
    + ["out.csv", "out.ckpt"]
    + ["0", "1", "2", "3", "40", "100", "0.5", "1,2", "5,9", "dga:train", "a.com"]
    + sorted(cli.TRAIN_OPTIONS["preset"][1]) + ["dga", "email", "url", "train", "test"]
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(_ARGV_BASES)),
    keep_base=st.booleans(),
    data=st.data(),
)
def test_no_argument_vector_prints_a_traceback(tmp_path_factory, command, keep_base, data):
    # pairs of the command's own flags and pool values, so that many vectors
    # parse, and at most one stray token (any flag or value), so that some do not
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(_flags(command)), st.sampled_from(_ARGV_VALUES)), max_size=4),
        label="pairs",
    )
    stray = data.draw(st.lists(st.sampled_from(_ARGV_FLAGS + _ARGV_VALUES), max_size=1), label="stray")
    argv = [command] + (_ARGV_BASES[command] if keep_base else [])
    argv += [token for pair in pairs for token in pair]
    argv[data.draw(st.integers(1, len(argv)), label="at"):0] = stray
    if command == "train":
        # a drawn --max-len comes later and wins; none would leave email's 500
        argv[1:1] = ["--max-len", "40"]
        argv += ["--epochs", "1"]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        for name in _FIXTURES:
            shutil.copy(_FIXTURE_DIR / name, tmp)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, costnet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # its import would land on every cold predict; the kept scoring threads'
    # ThreadPoolExecutors import it on the first threaded scoring instead
    code = "import sys, costnet.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_gradcheck_unloaded():
    # cold predicts neither compile nor run the gradient checks
    code = "import sys, costnet.cli; print('costnet.gradcheck' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_public_names_resolve_and_train_option_defaults_agree():
    import inspect

    import costnet
    from costnet.data import load_csv

    assert [name for name in costnet.__all__ if not hasattr(costnet, name)] == []
    config = trainer.TrainConfig()
    nb = inspect.signature(trainer.train_naive_bayes).parameters
    fed = {
        "preset": config.preset, "gamma": config.gamma, "epochs": config.epochs,
        "lr": config.learning_rate, "batch_size": config.batch_size, "seed": config.seed,
        "max_len": config.max_len, "raw_weights": not config.normalize_weights,
        "eval_every": config.eval_every,
        "use_case": inspect.signature(load_csv).parameters["use_case"].default,
        "alpha": nb["alpha"].default, "ngrams": list(nb["n_range"].default),
    }
    assert {key: default for key, (default, _) in cli.TRAIN_OPTIONS.items()} == fed
