"""Repeatable, layer-attributed benchmark of the reproduction (see run.py)."""
