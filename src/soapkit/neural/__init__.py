from .embeddings import HashEmbeddings
from .model import MODEL_VARIANTS, ModelConfig, SequenceClassifier, load_model
from .train import TrainConfig, TrainingError, collect_scores, train_model

__all__ = [
    "HashEmbeddings",
    "MODEL_VARIANTS", "ModelConfig", "SequenceClassifier", "load_model",
    "TrainConfig", "TrainingError", "collect_scores", "train_model",
]
