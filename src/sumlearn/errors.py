"""Exception types shared across the pipeline."""


class IdxFormatError(ValueError):
    """Bad magic number or truncated header in an IDX file."""


class ConsistencyError(ValueError):
    """Aligned structures disagree (counts, lengths, image ids)."""


class InsufficientDataError(ValueError):
    """Not enough images to build even a single example grid."""


class InputError(ValueError):
    """A value the stage that reads it refuses, before anything is written.
    `name` is the RunConfig field or the input it comes from (embed_dim,
    kmeans_k, w, h, store, labels, cnn)."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""
