"""Simulator and sizing toolkit for portable high-flow pneumatic supply/regulation."""

__version__ = "0.1.0"
