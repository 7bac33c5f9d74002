"""Desk-scale speculative decoding: exact draft-verify sampling, model zoo,
latency analysis, and a verification harness."""

__version__ = "0.1.0"
