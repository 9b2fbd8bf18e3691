"""Repo-specific static analysis ("vlint").

The codebase rests on invariants that no runtime check enforces: wire
codecs must cover every dataclass field, shared state in the serving
stack must be mutated under its lock, crypto backends must implement
the full abstract contract, and ``__all__`` must match the documented
API.  This package checks them statically — pure AST analysis, nothing imported or
executed — and gates them in CI via ``python -m repro.analysis
--check``.

See docs/ARCHITECTURE.md ("Static analysis") for what each rule
guarantees, how to suppress a finding, and how to add a rule.
"""

from repro.analysis.driver import AnalysisError, Report, rule_names, run
from repro.analysis.findings import Finding, Severity, is_suppressed
from repro.analysis.project import Module, ProjectIndex

__all__ = sorted(
    [
        "AnalysisError",
        "Finding",
        "Module",
        "ProjectIndex",
        "Report",
        "Severity",
        "is_suppressed",
        "rule_names",
        "run",
    ]
)
