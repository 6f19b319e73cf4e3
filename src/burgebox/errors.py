"""Shared exception types."""


class BudgetError(ValueError):
    """A work budget is exceeded; a ValueError: exit 2 at the CLI, a failed sweep instance."""
