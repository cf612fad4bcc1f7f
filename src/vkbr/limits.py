"""Caps on the exponential enumerations.

Both state sums (2^n splitting states, 2^e spanning subgraphs) refuse to
run past a configurable size, whichever route computes them.  The default
cap is 24; the environment variable VKBR_MAX_CROSSINGS overrides it for
both kinds of sum.  A sweep also refuses when its arrays would not fit in
physical memory, which only a raised cap can bring about.
"""

import os

DEFAULT_CAP = 24
CAP_ENV_VAR = "VKBR_MAX_CROSSINGS"
# Bytes a sweep holds per index at its peak: its int16 outputs, and the
# int64 mask, popcount and histogram key arrays with their temporaries.
SWEEP_BYTES_PER_INDEX = 48


class SizeLimitError(ValueError):
    """An enumeration would exceed the configured size cap."""


def enumeration_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SizeLimitError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise SizeLimitError(f"{CAP_ENV_VAR} must be nonnegative, got {cap}")
    return cap


def check_enumeration_size(count: int, what: str) -> None:
    """Raise SizeLimitError when `count` items exceed the cap."""
    cap = enumeration_cap()
    if count > cap:
        raise SizeLimitError(
            f"{what}: size {count} exceeds the cap of {cap} "
            f"(set {CAP_ENV_VAR} to override)"
        )


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not tell."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


def check_sweep_memory(n_bits: int, what: str) -> None:
    """Raise SizeLimitError when a sweep over 2^n_bits indices would need
    more bytes than there is physical memory, before it allocates them."""
    need = SWEEP_BYTES_PER_INDEX << n_bits
    have = physical_memory()
    if have is not None and need > have:
        raise SizeLimitError(
            f"{what}: its arrays need about {need} bytes, more than the "
            f"{have} bytes of physical memory"
        )
