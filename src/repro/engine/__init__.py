"""Unified execution context shared by every engine layer (DESIGN.md §5)."""

from repro.engine.context import (
    BACKEND_ENV,
    BACKENDS,
    EngineContext,
    WorldCursor,
    ensure_context,
    is_batched,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "EngineContext",
    "WorldCursor",
    "ensure_context",
    "is_batched",
    "resolve_backend",
]
