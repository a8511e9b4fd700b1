"""Trace-driven processor front end."""

from .processor import Processor

__all__ = ["Processor"]
