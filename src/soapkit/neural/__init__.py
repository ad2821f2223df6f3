"""The neural classifier: hashed embeddings, network kernels, the model and its trainer."""
