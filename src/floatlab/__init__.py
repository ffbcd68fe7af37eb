"""floatlab: spectra, resolvents, truncated-domain dynamics and LQR feedback
for a floating solid on a viscous shallow-water channel.

scipy is imported inside the functions that use it, never at module level,
so importing the package loads numpy only; tests/test_cli.py pins which
verbs load scipy."""

__version__ = "0.1.0"
