"""simlint: AST-based determinism & protocol-safety analysis for this repo.

The chaos soak tests assert *bit-identical* event timelines across runs, so
any hidden nondeterminism — wall-clock reads, unseeded ``random``, iteration
over hash-ordered containers in protocol paths, raw network sends that hang
under partitions — silently breaks the reproduction's core guarantee. The
rules in :mod:`repro.analysis.rules` encode those hazards as static checks;
:mod:`repro.analysis.engine` runs them over the tree, honouring per-line
``# simlint: ignore[RULE]`` suppressions.

:mod:`repro.analysis.simrace` extends the catalogue with yield-point race
rules (SIM101–SIM104): check-then-act across a yield, leaked resource
acquires on Interrupt paths, unfenced epoch/route reads, and unguarded
event settles — evaluated on the yield-aware control-flow graphs of
:mod:`repro.analysis.cfg`.

Entry point: ``repro lint`` (see :mod:`repro.analysis.cli`).
"""

from repro.analysis.engine import (
    LintConfig,
    analyze_paths,
    analyze_source,
    default_config,
)
from repro.analysis.rules import RULES
from repro.analysis.violations import Violation

__all__ = [
    "LintConfig",
    "RULES",
    "Violation",
    "analyze_paths",
    "analyze_source",
    "default_config",
]
