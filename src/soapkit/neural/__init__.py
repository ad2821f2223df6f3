from .embeddings import HashEmbeddings, load_embeddings
from .model import MODEL_VARIANTS, ModelConfig, SequenceClassifier, load_model
from .train import TrainConfig, TrainingError, collect_scores, train_model

__all__ = [
    "HashEmbeddings", "load_embeddings",
    "MODEL_VARIANTS", "ModelConfig", "SequenceClassifier", "load_model",
    "TrainConfig", "TrainingError", "collect_scores", "train_model",
]
