"""Scatter-augmented 1-D residual networks for multilabel biosignal
classification, built on a small numpy autodiff core."""

from .engine import (ConfigError, DataError, NumericalAbort, ShapeError,
                     WindowTooShort, derived_rng, no_grad, precision, seed)
from .tensor import Tensor, grad_check
from .wavelets import FilterBank, analyticity_report, fft, filter_bank
from .scatter import scatter_forward
from .model import (LayerSpec, ModelConfig, build_model, layer_specs,
                    layer_table, parameter_count, tiny_config)
from .loss import (WeightMatrix, bce, challenge_term, combined_loss,
                   discrete_challenge_score, identity_weight_matrix,
                   load_weight_matrix, merge_identical_classes,
                   merged_class_table, predict, save_weight_matrix,
                   soft_or_norm)
from .pipeline import (AugmentConfig, Record, Window, augment, aux_features,
                       center_crop_pad, disabled_augment, filter_and_split,
                       load_dataset, make_synthetic_dataset, make_window,
                       normalize_arctan, piece_offsets, prepare_pieces,
                       random_crop_pad, resample_to_500, split_windows,
                       synthetic_weight_matrix, target_vector, write_dataset)
from .trainer import (Adam, Checkpoint, TrainConfig, adam_step, evaluate_model,
                      load_config_file, lr_schedule_step, new_schedule_state,
                      train)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AugmentConfig", "Checkpoint", "ConfigError", "DataError",
    "FilterBank", "LayerSpec", "ModelConfig", "NumericalAbort", "Record",
    "ShapeError", "Tensor", "TrainConfig", "WeightMatrix",
    "Window", "WindowTooShort", "adam_step", "analyticity_report", "augment",
    "aux_features", "bce", "build_model", "center_crop_pad", "challenge_term",
    "combined_loss", "derived_rng", "disabled_augment",
    "discrete_challenge_score", "evaluate_model", "fft",
    "filter_and_split", "filter_bank", "grad_check", "identity_weight_matrix",
    "layer_specs", "layer_table", "load_config_file", "load_dataset",
    "load_weight_matrix", "lr_schedule_step", "make_synthetic_dataset",
    "make_window", "merge_identical_classes", "merged_class_table",
    "new_schedule_state", "no_grad", "normalize_arctan", "parameter_count",
    "piece_offsets", "precision", "predict", "prepare_pieces",
    "random_crop_pad", "resample_to_500", "save_weight_matrix",
    "scatter_forward", "seed", "soft_or_norm", "split_windows",
    "synthetic_weight_matrix", "target_vector", "tiny_config", "train",
    "write_dataset",
]
