"""Exception hierarchy shared across all pipeline stages."""


class VeriscopeError(Exception):
    """Base class for every error raised by this package."""


class ProviderUnavailable(VeriscopeError):
    """A provider or source failed; verify_claim's stage decides: abstain or abort the claim."""


class DegenerateNegation(VeriscopeError):
    """A negation provider returned empty text or text equivalent to the input."""


class EmptyCorpus(VeriscopeError):
    """Indexing produced zero valid documents."""


class RankingFailed(VeriscopeError):
    """The claim embedded to a zero vector, so its candidates cannot be ranked."""


class TemplateMissingPlaceholder(VeriscopeError, ValueError):
    """A prompt template lacks one of the required placeholders."""


class NoValidOption(VeriscopeError):
    """The verdict provider assigned probability to none of the option letters."""


class WrongArity(VeriscopeError, ValueError):
    """An operation received the wrong number of inputs."""


class TooFewSamples(VeriscopeError, ValueError):
    """Dispersion needs at least two values."""


class DegenerateSamples(VeriscopeError, ValueError):
    """Density estimation needs samples with nonzero spread."""


class UnknownGoldLabel(VeriscopeError, ValueError):
    """A gold label does not belong to the label scheme."""


class EmptyDataset(VeriscopeError):
    """A claims file contained no usable records."""


class ConfigurationError(VeriscopeError):
    """Providers or the CLI were configured inconsistently (e.g. remote in mock mode)."""
