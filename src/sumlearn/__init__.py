"""Weakly supervised digit classification from grid-sum supervision.

Pipeline: embed images (autoencoder or PCA), cluster with k-means++,
assign each cluster a digit by exactly solving a small integer program per
batch with a cross-batch vote, repair labels by constraint propagation,
then train a CNN on the inferred labels. The supervision is a Corpus: the
(n, h, w) grids of image ids of one shape and the (n,) sums they spell out,
which every step reads as whole arrays. `run_pipeline` and `sweep` drive
the stages; each stage lives in its own module.
"""

from .errors import ConsistencyError, DivergenceError, IdxFormatError, InputError, InsufficientDataError
from .pipeline import RunConfig, RunReport, run_pipeline, sweep

__version__ = "0.1.0"
