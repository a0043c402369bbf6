"""RL002 fixture: ctx-threading patterns that must lint clean."""

from repro.engine import ensure_context, is_batched


def spread(graph, k, rng=None, *, ctx=None):
    # Execution state arrives as ctx= (or rng=) and resolves in the engine.
    ctx = ensure_context(ctx, rng=rng, caller="spread")
    if ctx.is_batched:
        return _batched(graph, k, ctx)
    return _sequential(graph, k, ctx)


def capability(ctx):
    return is_batched(ctx.backend)


def _batched(graph, k, ctx):
    return graph, k, ctx


def _sequential(graph, k, ctx):
    return graph, k, ctx
