"""Structured outcomes for theorem and conjecture checks.

A check either passes, fails with witnesses, or is skipped because its
hypotheses do not hold for the given input.  Harness sweeps embed their
search bounds in ``details`` so a "pass" is always "no counterexample up
to the stated cap", never a claim of proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    check: str
    status: str  # "pass" | "fail" | "skipped"
    details: dict = field(default_factory=dict)
    witnesses: tuple = ()

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "skipped"):
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
