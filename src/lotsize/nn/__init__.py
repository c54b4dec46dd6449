from .lstm import (
    BiLstmModel,
    backward_batch,
    bilstm_forward,
    forward_batch,
    predict_instance,
)
from .model_io import FORMAT_VERSION, load_model, save_model
from .standardize import (
    FEATURE_COLUMNS,
    Standardizer,
    instance_features,
    standardize_fit,
)
from .train import (
    AdamState,
    EpochStats,
    TrainConfig,
    TrainResult,
    accuracy_on_arrays,
    adam_step,
    batch_loss_and_grads,
    bce_loss,
    pairs_to_arrays,
    predictions_to_labels,
    train,
)

__all__ = [
    "AdamState",
    "BiLstmModel",
    "EpochStats",
    "FEATURE_COLUMNS",
    "FORMAT_VERSION",
    "Standardizer",
    "TrainConfig",
    "TrainResult",
    "accuracy_on_arrays",
    "adam_step",
    "backward_batch",
    "batch_loss_and_grads",
    "bce_loss",
    "bilstm_forward",
    "forward_batch",
    "instance_features",
    "load_model",
    "pairs_to_arrays",
    "predict_instance",
    "predictions_to_labels",
    "save_model",
    "standardize_fit",
    "train",
]
