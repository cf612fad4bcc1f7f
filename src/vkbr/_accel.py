"""Kernel backend flag, kept for callers that record the run conditions.

The enumeration kernels in _kernels are vectorised numpy with no compiled
alternative, so nothing is ever compiled just in time.
"""

JIT_ENABLED = False
