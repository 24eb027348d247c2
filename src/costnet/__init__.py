"""Cost-sensitive character-level classifiers for imbalanced security text.

Per-class loss weights (1/n_i)^gamma steer four small neural architectures
(dnn, cnn, lstm, cnn_lstm) on DGA domain, spam email, and malicious URL
data, next to a Naive Bayes baseline. Built on an in-repo reverse-mode
autodiff engine with finite-difference verification.
"""

from .autodiff import Tape, Tensor, grad_check
from .data import GeneratorConfig, LabeledDataset, class_counts, gen_synthetic, load_csv
from .loss import ClassWeights, compute_class_weights, weighted_bce
from .metrics import ConfusionMatrix, confusion, scores
from .models import ModelSpec, PresetDims, build_model, forward
from .naive_bayes import NaiveBayesModel, nb_train
from .text import CharVocabulary, fit_vocab, ngram_counts
from .trainer import Checkpoint, TrainConfig, evaluate, load, save, train

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "grad_check",
    "GeneratorConfig",
    "LabeledDataset",
    "class_counts",
    "gen_synthetic",
    "load_csv",
    "ClassWeights",
    "compute_class_weights",
    "weighted_bce",
    "ConfusionMatrix",
    "confusion",
    "scores",
    "ModelSpec",
    "PresetDims",
    "build_model",
    "forward",
    "NaiveBayesModel",
    "nb_train",
    "CharVocabulary",
    "fit_vocab",
    "ngram_counts",
    "Checkpoint",
    "TrainConfig",
    "evaluate",
    "load",
    "save",
    "train",
]
