"""Exception types shared across the package."""


class LotsizeError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LotsizeError):
    """Vector lengths or array shapes do not match the declared horizon."""


class ValidationError(LotsizeError):
    """Input data violates a documented precondition."""


class GenerationError(LotsizeError):
    """Instance generation exhausted its redraw budget."""


class DatasetError(LotsizeError):
    """Dataset assembly failed, e.g. the oracle solver did not reach optimality."""


class ResourceLimitError(LotsizeError):
    """A solver's state-space or enumeration budget was exceeded."""


class DivergenceError(LotsizeError):
    """Training produced a non-finite loss."""


class ModelFormatError(LotsizeError):
    """Weight file is missing, corrupt, or has an unsupported format version."""


class PartitionError(LotsizeError):
    """Horizon cannot be split into equal chunks."""


class UsageError(LotsizeError):
    """Command-line arguments are invalid."""
