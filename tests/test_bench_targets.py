"""The benchmark's span targets exist in the code under test.

``perfbench/spans.py`` wraps named functions, methods and ``runner.CHECKS``
entries, and a missing one makes a traced benchmark run exit 2.  These
tests make a refactor that drops a target fail here as well.
"""

import json
import sys
from pathlib import Path

from chowcheck import runner

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402


def test_every_span_target_resolves():
    recorder = spans.Recorder()
    originals = dict(runner.CHECKS)
    recorder.install()
    try:
        assert recorder.kinds == sorted(originals)
    finally:
        recorder.uninstall()
    assert runner.CHECKS == originals


def test_declared_check_kinds_are_registered():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kinds = {m["name"].split(".")[2] for m in declared["per_layer"]
             if m["name"].startswith("runner.check.")}
    assert len(kinds) == 20
    assert kinds <= set(runner.CHECKS)
