"""Verification reports: ordered step results plus two renderings.

The human rendering carries timings and witnesses for reading; the
machine rendering is a flat, lexicographically sorted ``key = value``
document that is byte-identical across runs with the same inputs and
mode, so it deliberately omits timings.

Two exception bases live here so that every module can raise them
without importing the runner.  An :class:`InputError` says that a value
from a scenario or the command line is malformed: the runner reports it
under the check's kind and line and exits 2.  A :class:`CheckFailure`
says that well-formed data fails the mathematics: the check becomes a
failing step and the run goes on.  Any other exception is a bug.
"""

from __future__ import annotations


class InputError(ValueError):
    """A malformed value from a scenario or the command line, such as a
    form that is not homogeneous or a degree below zero."""


class CheckFailure(Exception):
    """A mathematical failure of a check's data, such as a form that is
    not an eigenvector of the declared automorphism.  The runner reports
    it as a failing step whose witness is the message; subclasses keep
    their own built-in base as well."""


class StepResult:
    """One executed check.

    ``status`` is "pass", "fail", or "degenerate"; anything but "pass"
    fails the report.  A "fail" carries an exact ``witness`` (a nonzero
    residual polynomial or a short text); "degenerate" marks a setup
    whose identities hold while its geometric hypothesis collapses.
    ``values`` holds machine-reportable outputs (ranks, bounds, orders);
    ``details`` are human-oriented lines that also land in the machine
    report for auditability.  ``route`` names the computation that
    answered (say, a closed form and the certificate behind it); like
    ``duration`` it is for the human report only, so the machine report
    does not depend on which route a run took.
    """

    __slots__ = ("name", "kind", "status", "citation", "details", "witness",
                 "values", "duration", "route")

    def __init__(self, name, kind, status, citation, details=(), witness=None,
                 values=None, duration=0.0, route=None):
        if not citation:
            raise ValueError("every step needs a nonempty citation")
        is_zero = getattr(witness, "is_zero", None)
        if status == "fail" and (witness is None or (is_zero and is_zero())):
            raise ValueError("a failing step needs a nonzero witness")
        self.name = name
        self.kind = kind
        self.status = status
        self.citation = citation
        self.details = list(details)
        self.witness = witness
        self.values = dict(values or {})
        self.duration = duration
        self.route = route

    @property
    def passed(self):
        return self.status == "pass"

    def __repr__(self):
        return f"StepResult({self.name!r}, {self.status!r})"


class Report:
    """Ordered results of one scenario or query run."""

    __slots__ = ("scenario_name", "steps", "mode")

    def __init__(self, scenario_name, steps, mode=None):
        self.scenario_name = scenario_name
        self.steps = list(steps)
        self.mode = dict(mode or {})

    @property
    def verdict(self):
        return "pass" if all(s.passed for s in self.steps) else "fail"

    @property
    def exit_code(self):
        return 0 if self.verdict == "pass" else 1

    def failed_steps(self):
        return [s for s in self.steps if not s.passed]

    def render_human(self, show_timings=True):
        width = max((len(s.name) for s in self.steps), default=0)
        lines = [f"scenario: {self.scenario_name}"]
        for key in sorted(self.mode):
            lines.append(f"mode: {key} = {self.mode[key]}")
        lines.append("")
        for i, step in enumerate(self.steps, start=1):
            mark = {"pass": "ok", "fail": "FAIL", "degenerate": "DEGENERATE"}[step.status]
            timing = f"  [{step.duration:.3f}s]" if show_timings else ""
            lines.append(f"{i:3d}. {step.name.ljust(width)}  {mark}{timing}")
            for detail in step.details:
                lines.append(f"       - {detail}")
            if step.route is not None:
                lines.append(f"       route: {step.route}")
            if step.witness is not None:
                lines.append(f"       witness: {_text(step.witness)}")
            lines.append(f"       cites: {step.citation}")
        lines.append("")
        failed = self.failed_steps()
        if failed:
            names = ", ".join(s.name for s in failed)
            lines.append(f"verdict: fail ({len(failed)} of {len(self.steps)}: {names})")
        else:
            lines.append(f"verdict: pass ({len(self.steps)} checks)")
        return "\n".join(lines) + "\n"

    def render_machine(self):
        pairs = {
            "scenario.name": self.scenario_name,
            "summary.verdict": self.verdict,
            "summary.steps": str(len(self.steps)),
            "summary.failed": str(len(self.failed_steps())),
        }
        for key, value in self.mode.items():
            pairs[f"mode.{key}"] = str(value)
        for i, step in enumerate(self.steps, start=1):
            base = f"check.{i:02d}"
            pairs[f"{base}.name"] = step.name
            pairs[f"{base}.kind"] = step.kind
            pairs[f"{base}.status"] = step.status
            pairs[f"{base}.citation"] = step.citation
            if step.witness is not None:
                pairs[f"{base}.witness"] = _text(step.witness)
            for j, detail in enumerate(step.details, start=1):
                pairs[f"{base}.detail.{j:02d}"] = detail
            for key in sorted(step.values):
                pairs[f"{base}.value.{key}"] = str(step.values[key])
        lines = [f"{key} = {pairs[key]}" for key in sorted(pairs)]
        return "\n".join(lines) + "\n"


def _text(witness):
    to_text = getattr(witness, "to_text", None)
    return to_text() if to_text is not None else str(witness)
