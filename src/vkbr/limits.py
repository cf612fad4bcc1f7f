"""Caps on the exponential enumerations.

Both state sums (2^n splitting states, 2^e spanning subgraphs) refuse to
run past a configurable size, whichever route computes them.  The default
cap is 24; the environment variable VKBR_MAX_CROSSINGS overrides it for
both kinds of sum.  A sweep also refuses when its arrays would not fit in
memory, which only a raised cap can bring about.  The ribbon graph
builders refuse when the graph's dart-less vertices, one per free loop of
the diagram, would not fit.  Memory is checked before the allocation,
against physical memory or the address-space limit (ulimit -v) if lower.
"""

import os

DEFAULT_CAP = 24
CAP_ENV_VAR = "VKBR_MAX_CROSSINGS"
# Bytes a sweep holds per index at its peak: its int16 outputs, and the
# int64 mask, popcount and histogram key arrays with their temporaries.
SWEEP_BYTES_PER_INDEX = 48
# Bytes build-ribbon and build-signed hold per free loop at their peak: the
# dart-less vertex, its name, its entries in the graph's tables and its line
# of output (about 270 of resident memory per loop on O 1000000).
BYTES_PER_FREE_LOOP = 300


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


def memory_budget() -> tuple[int, str] | None:
    """(bytes, what they are) of the memory a process here may use: the
    address-space limit when one is set below physical memory, else
    physical memory; None where neither is known."""
    budgets = []
    size = physical_memory()
    if size is not None:
        budgets.append((size, "physical memory"))
    try:
        import resource

        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            budgets.append((limit, "the address-space limit"))
    except (ImportError, AttributeError, ValueError, OSError):
        pass  # no resource module, or no such limit, on this system
    return min(budgets, default=None)


def check_memory(need: int, what: str) -> None:
    """Raise SizeLimitError when `what` would need `need` bytes, more than
    memory_budget(), before anything is allocated."""
    budget = memory_budget()
    if budget is not None and need > budget[0]:
        raise SizeLimitError(
            f"{what}: it needs about {need} bytes, more than the "
            f"{budget[0]} bytes of {budget[1]}"
        )


def check_sweep_memory(n_bits: int, what: str) -> None:
    """Raise SizeLimitError when a sweep over 2^n_bits indices would need
    more bytes than there is memory, before it allocates them."""
    check_memory(SWEEP_BYTES_PER_INDEX << n_bits, what)
