"""Weakly supervised digit classification from grid-sum supervision.

Pipeline: embed images (autoencoder or PCA), cluster with k-means++,
assign each cluster a digit by exactly solving a small integer program per
batch with a cross-batch vote, repair labels by constraint propagation,
then train a CNN on the inferred labels. The supervision is a Corpus: the
(n, h, w) grids of image ids of one shape and the (n,) sums they spell out,
which every step reads as whole arrays.
"""

from .assignment import (
    BatchSystem,
    DigitAssignment,
    build_batch_system,
    solve_batch,
    solve_corpus,
)
from .classifier import CnnParams, classify, eval_addition, eval_classification, train_cnn
from .clustering import ClusterModel, distance_percentiles, kmeans, purity
from .dataset import (
    Corpus,
    ImageStore,
    build_corpus,
    generate_synthetic,
    grid_sums,
    load_corpus,
    load_idx,
    save_corpus,
)
from .embedding import AutoencoderParams, encode, pca_embed, train_autoencoder
from .errors import ConsistencyError, DivergenceError, IdxFormatError, InsufficientDataError
from .inference import (
    LabelState,
    images_within_radius,
    infer_correct_labels,
    init_labels,
    resolve_image_label,
    run_inference,
)
from .pipeline import RunConfig, RunReport, label_accuracy, run_pipeline, sweep

__version__ = "0.1.0"
