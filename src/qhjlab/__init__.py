"""qhjlab: residual-check laboratory for 1-D trajectory quantum mechanics."""

__version__ = "0.1.0"
