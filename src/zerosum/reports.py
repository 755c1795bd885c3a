"""Structured outcomes for theorem and conjecture checks.

A check passes, fails with witnesses, or is skipped because its
hypotheses do not hold for the input.  Sweeps embed their search bounds
in ``details``: "pass" means "no counterexample up to the stated cap",
never a proof, and a sweep its budget cut short is "partial".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    check: str
    status: str  # "pass" | "fail" | "partial" | "skipped"
    details: dict = field(default_factory=dict)
    witnesses: tuple = ()

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "partial", "skipped"):
            raise ValueError(f"bad status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    @classmethod
    def ok(cls, check: str, **details) -> "VerificationReport":
        return cls(check, "pass", details)

    @classmethod
    def fail(cls, check: str, witnesses=(), **details) -> "VerificationReport":
        return cls(check, "fail", details, tuple(witnesses))


def sweep_status(failed: bool, exhaustive: bool) -> str:
    """A counterexample fails the sweep; otherwise it passes only if it
    covered everything up to its cap, and a truncated sweep is partial."""
    if failed:
        return "fail"
    return "pass" if exhaustive else "partial"
