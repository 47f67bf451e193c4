"""Exact calculus for sequences of symmetric-group representations, over the
rationals.  Each name is reached at its home, `fistab.<module>.<name>`
(README's "Library" section lists them); `import fistab` loads no submodule."""

from importlib import import_module as _import_module

__version__ = "0.1.0"


def _forward(owner: str, module: str, names):
    """owner's module __getattr__ (PEP 562): each of names is fistab.<module>'s,
    imported on first use and looked up on every access, so a rebound one is
    what owner gives.  Only names the benchmark's tracer reads are forwarded."""

    def __getattr__(name: str):
        if name in names:
            return getattr(_import_module(f".{module}", __name__), name)
        raise AttributeError(f"module {owner!r} has no attribute {name!r}")

    return __getattr__
