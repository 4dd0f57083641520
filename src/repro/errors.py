"""Exceptions shared by the compiler and the layers below it."""


class SpplParseError(ValueError):
    """Raised when an SPPL source program cannot be parsed or translated."""
