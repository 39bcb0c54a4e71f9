"""Base exception for the package; a subclass exists only where camlpad catches it by type.

An error that camlpad reports (an ``error:`` line, exit 1) is a ``CamlpadError`` or an ``OSError``;
a library call given an argument outside a function's contract raises ``ValueError``.
"""


class CamlpadError(Exception):
    """Root of every error that camlpad reports, bar an ``OSError``."""
