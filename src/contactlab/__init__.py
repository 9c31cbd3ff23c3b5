"""Numerical laboratory for contact processes in the critical regime."""

__version__ = "0.29.0"
