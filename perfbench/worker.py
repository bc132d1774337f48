"""Long-lived library process for the benchmark: one Python interpreter
that imports chowcheck once and runs ops on request.

One op is ``parse_scenario`` + ``run_scenario`` + ``render_machine`` for
each scenario of the workload, in order.  ``run_scenario`` builds a
fresh ``ScenarioContext``, so no op reuses another op's rings or pieces.

Usage: ``python perfbench/worker.py CONFIG_JSON``.  The worker runs one
warm-up op and prints a JSON line with the environment and that op; then
for each line ``untraced`` or ``traced`` on stdin it runs one op and
prints one JSON line.  A traced op runs with ``spans.Recorder`` installed
and its reply carries the op's layer metrics.  On ``quit`` or end of
input it writes the spans as JSON lines to the config's ``spans`` path.
Exit 2 means a configuration error: a span target or a bundled scenario
is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback

import reference
import spans


def _environment():
    import chowcheck
    import numpy
    from chowcheck import modrank
    backend = getattr(modrank, "active_backend", None)
    return {
        "chowcheck_file": os.path.realpath(chowcheck.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend() if backend is not None else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
    }


def _load_texts(scenarios):
    from importlib import resources
    texts = []
    for label, source in scenarios:
        if "bundled" in source:
            path = resources.files("chowcheck.scenarios").joinpath(source["bundled"])
            if not path.is_file():
                raise FileNotFoundError(f"bundled scenario {source['bundled']} is missing")
            texts.append((label, path.read_text(encoding="utf-8")))
        else:
            with open(source["path"], encoding="utf-8") as handle:
                texts.append((label, handle.read()))
    return texts


class Worker:
    def __init__(self, config):
        from chowcheck import runner, scenario
        self.runner, self.scenario = runner, scenario
        self.texts = _load_texts(config["scenarios"])
        self.spans_path = config["spans"]
        self.recorder = spans.Recorder()
        if config["trace"]:
            self.recorder.install()  # fail on a missing target before any timing
            self.recorder.uninstall()
        self.sent = set()

    def _run(self):
        # entry points are looked up on their modules, where the recorder patches
        start = time.perf_counter()
        results = []
        for label, text in self.texts:
            report = self.runner.run_scenario(self.scenario.parse_scenario(text))
            results.append((label, report.exit_code, report.render_machine()))
        return time.perf_counter() - start, results

    def op(self, traced=False):
        """Run one op; return its reply, each distinct report sent once.

        The reply carries the op's time and the reference time measured
        just before it.  An exception inside chowcheck fails the op, not
        the worker.
        """
        ref = reference.seconds()
        first = len(self.recorder.spans)
        if traced:
            self.recorder.op += 1
            self.recorder.install()
        start = time.perf_counter()
        try:
            seconds, results = self._run()
        except Exception:
            return {"seconds": time.perf_counter() - start, "ref": ref, "results": [],
                    "reports": {}, "error": traceback.format_exc()}
        finally:
            if traced:
                self.recorder.uninstall()
        reply = {"seconds": seconds, "ref": ref, "results": [], "reports": {}}
        for label, exit_code, text in results:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest not in self.sent:
                self.sent.add(digest)
                reply["reports"][digest] = text
            reply["results"].append([label, exit_code, digest])
        if traced:
            reply["layers"] = spans.layer_metrics(self.recorder.spans[first:], seconds,
                                                  self.recorder.kinds)
        return reply


def _send(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(config):
    try:
        worker = Worker(config)
    except (spans.TargetMissing, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    _send({"env": _environment(), "warmup": worker.op()})
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        if command not in ("untraced", "traced"):
            print(f"unknown command {command!r}", file=sys.stderr)
            return 1
        _send(worker.op(traced=command == "traced"))
    worker.recorder.write_jsonl(worker.spans_path)
    _send({"spans": len(worker.recorder.spans)})
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
