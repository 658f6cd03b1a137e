"""Compiled per-program kernel backend.

``repro.kernel.lower`` turns a validated IR program into a generated
Python module (content-addressed by the SHA-256 of its printed IR) with
two entry points: a request-yielding generator byte-compatible with the
interpreter, and a flat fast-mode state machine consumed by
``repro.kernel.runtime``'s bucket-queue event loop.

Select it per run with ``Simulator(..., backend="compiled")`` (or
``"auto"``, which falls back per-program on unsupported constructs).
"""

from .lower import (
    KERNEL_ABI,
    CompiledKernel,
    UnsupportedConstructError,
    cache_stats,
    cached_kernels,
    clear_cache,
    kernel_for,
    load_kernel_source,
    lower_program,
    program_fingerprint,
    record_fallback,
    set_warm_dir,
)
from .runtime import run_fast

__all__ = [
    "KERNEL_ABI",
    "CompiledKernel",
    "UnsupportedConstructError",
    "cache_stats",
    "cached_kernels",
    "clear_cache",
    "kernel_for",
    "load_kernel_source",
    "lower_program",
    "program_fingerprint",
    "record_fallback",
    "run_fast",
    "set_warm_dir",
]
