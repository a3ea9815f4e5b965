"""labelattn: training one classifier from multiple noisy annotation sets by
attending over the label sets with meta-training feedback.

The package root holds no names but ``__version__``: import each from its
module, e.g. ``from labelattn.experiment import run_single``."""

__version__ = "0.1.0"
