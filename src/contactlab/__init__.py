"""Numerical laboratory for contact processes in the critical regime."""

__version__ = "0.28.0"
