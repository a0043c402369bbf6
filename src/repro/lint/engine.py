"""Rule engine of ``repro lint``: registry, file model, and the runner.

A rule is a class with a ``rule_id`` (``RLxxx``), a one-line ``title``, a
``scope(rel_path)`` predicate selecting the files it patrols, and a
``check(file)`` generator yielding :class:`Diagnostic` findings.  Rules
register themselves with the :func:`rule` decorator at import time
(:mod:`repro.lint.rules` imports every rule module), so ``RULES`` is the
single source of truth the CLI, the runner and ``--list-rules`` share.

The runner resolves every path *relative to a root directory* before
scoping — which is what lets the test fixtures mirror the repository
layout under ``tests/lint_fixtures/{bad,good}/`` and exercise
path-scoped rules (e.g. RL003's ``parallel/tasks.py`` write-safety) on
fixture files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Type

from repro.lint.diagnostics import (
    Diagnostic,
    SuppressionTable,
    parse_suppressions,
)

__all__ = [
    "DEFAULT_TARGETS",
    "EXCLUDED_DIR_NAMES",
    "LintFile",
    "RULES",
    "Rule",
    "iter_python_files",
    "lint_file",
    "rule",
    "run_lint",
]

#: Directories scanned when the CLI is invoked without explicit paths.
DEFAULT_TARGETS = ("src/repro", "tests", "benchmarks")

#: Directory names skipped everywhere (fixtures are deliberately bad code).
EXCLUDED_DIR_NAMES = {"__pycache__", "lint_fixtures", ".git"}


@dataclass
class LintFile:
    """One parsed file: source, AST (with parent links), and suppressions."""

    path: Path
    rel_path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionTable

    _parents: Optional[Dict[ast.AST, ast.AST]] = None

    @classmethod
    def parse(cls, path: Path, rel_path: str) -> "LintFile":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            rel_path=rel_path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (links built lazily, once)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[child] = outer
            self._parents = parents
        return self._parents.get(node)

    def diagnostic(self, rule_id: str, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )


class Rule:
    """Base class: one invariant, one id, one path scope."""

    rule_id: str = "RL000"
    title: str = ""

    def scope(self, rel_path: str) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def check(self, file: LintFile) -> Iterable[Diagnostic]:
        raise NotImplementedError  # pragma: no cover - interface


#: rule id -> singleton rule instance (populated by the @rule decorator).
RULES: Dict[str, Rule] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Register a rule class; duplicate ids are a programming error."""
    instance = cls()
    if instance.rule_id in RULES:
        raise ValueError(f"duplicate lint rule id {instance.rule_id}")
    RULES[instance.rule_id] = instance
    return cls


def _ensure_rules_loaded() -> None:
    """Import the rule modules (registration is an import side effect)."""
    import repro.lint.rules  # noqa: F401


def iter_python_files(
    root: Path, targets: Iterable[str] = DEFAULT_TARGETS
) -> Iterator[Path]:
    """Yield ``*.py`` files under ``root``'s targets, excluded dirs pruned."""
    for target in targets:
        base = root / target
        if base.is_file() and base.suffix == ".py":
            yield base
            continue
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            parts = set(path.relative_to(root).parts[:-1])
            if parts & EXCLUDED_DIR_NAMES:
                continue
            yield path


def lint_file(
    path: Path,
    root: Path,
    rules: Optional[Iterable[Rule]] = None,
) -> List[Diagnostic]:
    """Run every in-scope rule over one file; suppressions applied.

    Parse failures surface as an ``RL999`` diagnostic instead of an
    exception — a syntactically broken file must fail the lint job, not
    crash it.
    """
    _ensure_rules_loaded()
    rel_path = path.relative_to(root).as_posix()
    try:
        file = LintFile.parse(path, rel_path)
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return [
            Diagnostic(
                path=rel_path,
                line=line,
                col=1,
                rule_id="RL999",
                message=f"file does not parse: {exc.__class__.__name__}: {exc}",
            )
        ]
    findings: List[Diagnostic] = []
    for candidate in rules if rules is not None else RULES.values():
        if not candidate.scope(rel_path):
            continue
        for diag in candidate.check(file):
            if file.suppressions.is_suppressed(diag.line, diag.rule_id):
                continue
            findings.append(diag)
    # Reason-less suppressions are findings themselves (RL000) and are
    # not suppressible: the reason *is* the point.
    for line, col, ids in file.suppressions.reasonless:
        findings.append(
            Diagnostic(
                path=rel_path,
                line=line,
                col=col,
                rule_id="RL000",
                message=(
                    f"suppression 'disable={ids}' has no reason; write "
                    "'# repro-lint: disable=RLxxx <why this is sound>'"
                ),
            )
        )
    return findings


def run_lint(
    root: Path,
    targets: Optional[Iterable[str]] = None,
    rules: Optional[Iterable[Rule]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Diagnostic]:
    """Lint every target under ``root``; returns sorted diagnostics."""
    _ensure_rules_loaded()
    root = Path(root).resolve()
    findings: List[Diagnostic] = []
    for path in iter_python_files(root, targets or DEFAULT_TARGETS):
        if progress is not None:
            progress(str(path))
        findings.extend(lint_file(path, root, rules))
    return sorted(findings)
