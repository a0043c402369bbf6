"""RL002 — ctx-threading: execution state flows through EngineContext.

The EngineContext migration (DESIGN.md §5) made ``ctx=`` the one spelling
of backend/seed/triggering state.  This rule keeps it that way:

* **params** — functions under ``rrset/``, ``diffusion/``, ``baselines/``
  and ``store/`` take no ``backend`` / ``seed`` parameter at all:
  execution state arrives as ``ctx=`` (or ``rng=``) and resolves through
  ``ensure_context``.  The one documented exception (``extend_store``'s
  persisted-backend override) carries a suppression.
* **resolution** — no call to ``resolve_backend`` and no read/write of
  ``os.environ["REPRO_RR_BACKEND"]`` outside ``repro.engine``: backend
  resolution happens exactly once, at context construction.
* **capability checks** — raw ``backend != "sequential"`` string
  comparisons must go through ``EngineContext.is_batched`` (or the
  module-level ``repro.engine.is_batched`` for bare backend names).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint._ast_utils import call_name, walk_functions
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintFile, Rule, rule

_CTX_DIRS = (
    "src/repro/rrset/",
    "src/repro/diffusion/",
    "src/repro/baselines/",
    "src/repro/store/",
)

_BACKEND_ENV_NAME = "REPRO_RR_BACKEND"


def _in_engine(rel_path: str) -> bool:
    return rel_path.startswith("src/repro/engine/")


@rule
class CtxThreadingRule(Rule):
    rule_id = "RL002"
    title = "backend/seed state must thread through EngineContext"

    def scope(self, rel_path: str) -> bool:
        return rel_path.startswith("src/repro/") and not _in_engine(rel_path)

    def check(self, file: LintFile) -> Iterable[Diagnostic]:
        in_ctx_dirs = file.rel_path.startswith(_CTX_DIRS)
        if in_ctx_dirs:
            yield from self._check_params(file)
            yield from self._check_sequential_compares(file)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Call):
                name = call_name(node) or ""
                if name.rsplit(".", maxsplit=1)[-1] == "resolve_backend":
                    yield file.diagnostic(
                        self.rule_id,
                        node,
                        "resolve_backend() outside repro.engine re-reads "
                        "$REPRO_RR_BACKEND after context construction; "
                        "build an EngineContext and use ctx.backend",
                    )
            yield from self._check_environ(file, node)

    # ------------------------------------------------------------------
    # (a) backend=/seed= parameters
    # ------------------------------------------------------------------
    def _check_params(self, file: LintFile) -> Iterable[Diagnostic]:
        for func in walk_functions(file.tree):
            args = func.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for param in params:
                if param.arg in ("backend", "seed"):
                    yield file.diagnostic(
                        self.rule_id,
                        param,
                        f"{func.name}() takes a {param.arg}= parameter; "
                        "execution state must arrive as ctx= and resolve "
                        "via ensure_context",
                    )

    # ------------------------------------------------------------------
    # (c) $REPRO_RR_BACKEND access
    # ------------------------------------------------------------------
    def _check_environ(self, file: LintFile, node: ast.AST) -> Iterable[Diagnostic]:
        def is_backend_key(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Constant):
                return expr.value == _BACKEND_ENV_NAME
            return isinstance(expr, ast.Name) and expr.id == "BACKEND_ENV"

        if isinstance(node, ast.Subscript):
            target = call_name_like(node.value)
            if target in ("os.environ", "environ") and is_backend_key(node.slice):
                yield file.diagnostic(
                    self.rule_id,
                    node,
                    "os.environ[$REPRO_RR_BACKEND] outside repro.engine; "
                    "the environment is read exactly once, at "
                    "EngineContext construction",
                )
        elif isinstance(node, ast.Call):
            name = call_name(node) or ""
            if name in (
                "os.environ.get",
                "environ.get",
                "os.environ.pop",
                "environ.pop",
                "os.environ.setdefault",
                "environ.setdefault",
                "os.getenv",
                "getenv",
            ) and any(is_backend_key(arg) for arg in node.args[:1]):
                yield file.diagnostic(
                    self.rule_id,
                    node,
                    "os.environ access to $REPRO_RR_BACKEND outside "
                    "repro.engine; the environment is read exactly once, "
                    "at EngineContext construction",
                )

    # ------------------------------------------------------------------
    # (d) raw backend string comparisons
    # ------------------------------------------------------------------
    def _check_sequential_compares(self, file: LintFile) -> Iterable[Diagnostic]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(
                isinstance(op, ast.Constant) and op.value == "sequential"
                for op in operands
            ):
                yield file.diagnostic(
                    self.rule_id,
                    node,
                    'raw backend == "sequential" comparison; use '
                    "ctx.is_batched / repro.engine.is_batched so "
                    "capability checks have one definition",
                )


def call_name_like(node: ast.AST) -> str:
    """Dotted rendering of a Name/Attribute chain ('' when neither)."""
    from repro.lint._ast_utils import dotted_name

    return dotted_name(node) or ""
