"""Committed crystal fixtures: one pattern file per frieze group."""

from pathlib import Path


def crystals_dir() -> Path:
    # next to this file; importlib.resources would cost a cold `table` or
    # `fragility` its import
    return Path(__file__).parent / "crystals"
