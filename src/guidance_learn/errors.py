"""Exception types shared across the package."""


class GuidanceLearnError(Exception):
    """Base class for all package errors."""


class ShapeError(GuidanceLearnError):
    """Array dimensions do not match what an operation requires."""


class ParameterError(GuidanceLearnError):
    """A hyperparameter or option is outside its valid domain."""


class InputError(GuidanceLearnError):
    """Input values are invalid (non-finite, not one-hot, empty, ...)."""


class FormatError(GuidanceLearnError):
    """A file does not conform to its declared on-disk format."""


class DataError(GuidanceLearnError):
    """Dataset contents violate an invariant (bad label, short class, ...)."""


class ConfigurationError(GuidanceLearnError):
    """A run is configured in a way that cannot be executed."""


class EmptySubsetError(ConfigurationError):
    """The data has no samples in a split or subset that a run needs."""


class ConsistencyError(GuidanceLearnError):
    """Two artifacts that must agree (cache vs. config, ...) do not."""


class DivergenceError(GuidanceLearnError):
    """Training produced non-finite logits or parameters."""

    def __init__(self, stage: str, epoch: int, step: int, lr: float, reason: object):
        super().__init__(f"{stage} diverged at epoch {epoch}, step {step} "
                         f"(learning rate {lr!r}): {reason}")
        self.stage, self.epoch, self.step, self.lr = stage, epoch, step, lr
