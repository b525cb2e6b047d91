"""Emotion propagation over multilingual lexical graphs.

The package turns a typed synset/lexical-unit graph into token sequences
via self-avoiding random walks, trains skip-gram embeddings on them, and
propagates 26-dimensional emotion/sentiment/valuation annotations from an
annotated seed to the rest of the graph with a multilabel regressor,
evaluated under 10-fold cross-validation.
"""

__version__ = "0.1.0"
