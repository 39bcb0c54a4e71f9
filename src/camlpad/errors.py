"""Base exception for the package; a subclass exists only where camlpad catches it by type."""


class CamlpadError(Exception):
    """Root of every error this package raises on purpose."""
