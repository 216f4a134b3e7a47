"""Operator tooling: cache inspection and reporting utilities."""
