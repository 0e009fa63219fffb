"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
ProviderError -> 3.
"""


class ConfigError(Exception):
    """Bad configuration or usage: unknown key, bad value, missing setting, locked output dir."""


class DataError(Exception):
    """Invalid or inconsistent input data: schema violations, dangling references, corrupted dumps."""


class ProviderError(Exception):
    """A chat or embedding provider failed for good (non-retryable, or retries exhausted)."""

    def __init__(self, message: str, status: int | None = None, attempts: int = 1):
        super().__init__(message)
        self.status = status
        self.attempts = attempts


class TransientProviderError(ProviderError):
    """Retryable provider failure: rate limit, 5xx, timeout, network error; ``retry_after`` in seconds."""

    def __init__(self, message: str, status: int | None = None, retry_after: float | None = None):
        super().__init__(message, status=status)
        self.retry_after = retry_after
