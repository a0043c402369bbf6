"""RL002 fixture: every ctx-threading violation class."""

import os

from repro.engine import EngineContext, ensure_context


def spread_with_knob(graph, k, backend="sequential", seed=None):
    # working backend kwarg + raw comparison + env re-read
    if backend != "sequential":
        batched = True
    else:
        batched = False
    fallback = os.environ.get("REPRO_RR_BACKEND", "batched")
    from repro.engine.context import resolve_backend

    resolved = resolve_backend(None)
    return batched, fallback, resolved, seed


def silently_ignored(graph, backend=None):
    # 'backend' accepted but never read: a no-op execution-state kwarg.
    return graph


def spread(graph, k, ctx=None, backend=None, seed=None):
    # A tombstone: the kwargs exist only to be handed to the engine.
    ctx = ensure_context(ctx, backend=backend, seed=seed, caller="spread")
    return graph, k, ctx


def legacy_constructor(graph, backend=None):
    if backend is None:
        backend = "batched"
    ctx = EngineContext.create(backend=backend)
    return graph, ctx
