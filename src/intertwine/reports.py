"""Machine-readable verification reports.

A Report is a list of Cases, each carrying the inputs, the closed-form and
oracle values, their absolute difference, and the pass flag at the suite
tolerance.  Serialization is deterministic: cases sort by key, floats use
Python's shortest round-trip representation (up to 17 significant digits),
and the volatile wall time is omitted unless explicitly requested, so two
runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Case:
    key: str
    inputs: dict[str, str]
    closed_form: complex
    oracle: complex
    tol: float

    @property
    def abs_diff(self) -> float:
        return abs(self.closed_form - self.oracle)

    @property
    def passed(self) -> bool:
        return self.abs_diff <= self.tol

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "inputs": dict(sorted(self.inputs.items())),
            "closed_form": [self.closed_form.real, self.closed_form.imag],
            "oracle": [self.oracle.real, self.oracle.imag],
            "abs_diff": self.abs_diff,
            "tol": self.tol,
            "pass": self.passed,
        }


def scalar_case(key: str, inputs: dict, closed, oracle, tol: float) -> Case:
    return Case(key, {k: str(v) for k, v in inputs.items()}, complex(closed), complex(oracle), tol)


def flag_case(key: str, inputs: dict, ok: bool) -> Case:
    """Boolean check recorded as 0 (holds) versus 1 (violated)."""
    return Case(key, {k: str(v) for k, v in inputs.items()}, complex(0.0 if ok else 1.0), 0j, 0.5)


@dataclass
class Report:
    suite: str
    seed: int
    cases: list[Case] = field(default_factory=list)
    wall_time_s: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def failures(self) -> list[Case]:
        return [c for c in self.cases if not c.passed]

    def as_dict(self, include_timing: bool = False) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "pass": self.passed,
            "n_cases": len(self.cases),
            "wall_time_s": self.wall_time_s if include_timing else None,
            "cases": [c.as_dict() for c in sorted(self.cases, key=lambda c: c.key)],
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.as_dict(include_timing), indent=1, sort_keys=True)
