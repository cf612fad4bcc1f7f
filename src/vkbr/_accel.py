"""Kernel backend flag, kept for callers that record the run conditions.

Frontier contraction in _kernels and the reference sweeps are pure
Python, with no compiled alternative, so nothing is ever compiled just
in time.
"""

JIT_ENABLED = False
