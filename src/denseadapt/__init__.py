"""Unsupervised domain adaptation of dense retrievers at desk scale.

The pipeline: generate synthetic queries for a target corpus, mine hard
negatives with lexical and dense retrievers, pseudo-label (query, positive,
negative) tuples with a cross-encoder margin, and fine-tune a bi-encoder to
regress those margins. Also ships the in-batch ranking baseline, six
pre-training objectives, and trec-style evaluation.

Each name is imported from the module that defines it, for example
`from denseadapt.pipeline import run_pipeline`.
"""

__version__ = "0.1.0"
