"""chowcheck benchmark: cold CLI processes and in-process library ops on
three workloads, with every output checked.

Run from the root of a checkout (the code under test is ``src/``)::

    python3 perfbench/run.py --workload shioda --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Workloads (closed loop, one client: the next op starts when the previous
one has ended):

``shioda``
    bundled scenario, 15 checks, exit 0.  The only input with a declared
    diagonal symmetry and plane curves; most of its time is the mod-p
    reduction in ``exactla.modular_rank``.
``quartic-family``
    bundled scenario, 15 checks, exit 1 with exactly ``check.09`` (the
    pencil parameter condition) failing.  Its Jacobian ideal is
    monomial, so no elimination runs: it bypasses the elimination layers
    and carries the import, pencil and scenario layers.
``dense-generic``
    a dense generic quartic and quintic generated from ``--seed``
    (``dense.py``), each checked with ``smooth mode=modular`` and
    ``hilbert``; one op verifies both.  Dense slices without symmetry,
    where the GF(p) elimination kernel does real work.

``--trace 0`` measures with no tracing.  The run is a series of rounds
until ``--seconds`` have passed; each round takes one cold import, one
cold op, and library ops until they have taken as long as the cold op.
Interleaving spreads every metric's samples over the whole run.

- ``wall_s``: wall time of one cold op, spawn to child exit;
- ``cpu_s``: user+sys CPU time of the op's children (``os.wait4``);
- ``peak_rss_mb``: the op's largest child max-RSS;
- ``setup_s``: cold ``python -c "import chowcheck.cli"``;
- ``library_s``: op time in one long-lived process, after one discarded
  warm-up op;
- ``wall_ref``, ``cpu_ref``: the run's summed cold-op times divided by
  the summed time of ``reference.py``'s fixed computation, measured in
  this process before and after each cold op;
- ``library_ref``: each library op's time divided by the reference time
  measured just before it in the same process.

Each metric but the two summed ratios is the median over the run's
samples.  On a shared machine the speed of a core drifts by a quarter
within minutes; the ratios cancel most of that drift, so they are the
gated metrics and the seconds are printed for reading.

``--trace 1`` rounds take one import sample and one untraced and one
traced library op.  They report the per-layer metrics of ``spans.py``
(medians over traced ops), ``setup.import_s`` (the import alone, timed
inside fresh interpreters) and ``trace.overhead_ratio`` (median traced
op over median untraced op, each divided by its reference time).

An op fails on a wrong exit code, a machine report that differs from the
expected one, a crash or a timeout; ``failed_ratio`` is printed with the
metrics and the run's ``correct`` is false when any op failed.  The last
line of stdout is one JSON object; details (environment, samples, seed,
scenario digests, closed-form Hilbert tables) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import dense
import reference

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
WORKLOADS = ("shioda", "quartic-family", "dense-generic")
BUNDLED = {"shioda": "shioda.scn", "quartic-family": "quartic_family.scn"}
EXPECTED_EXIT = {"shioda": 0, "quartic-family": 1, "dense-generic": 0}
# quartic-family fails exactly this step on purpose (criterion 05)
EXPECTED_FAILED = {"shioda": [], "quartic-family": ["check.09"], "dense-generic": []}
HARD_LIMIT_S = 170.0
IMPORT = "import chowcheck.cli"
# units of the measured values BENCHMARK.json does not gate, printed for reading
SHOWN_UNITS = {"wall_s": "s", "cpu_s": "s", "library_s": "s", "reference_s": "s"}
TIMED_IMPORT = ("import time; t = time.perf_counter(); import chowcheck.cli; "
                "print(repr(time.perf_counter() - t))")


class ConfigError(Exception):
    """The benchmark cannot run here: no code under test, or a target moved."""


def failed_steps(report):
    return sorted(line.split(".status", 1)[0]
                  for line in report.splitlines()
                  if line.startswith("check.") and line.endswith(".status = fail"))


def check_op(workload, results, expected, closed_forms=None):
    """Return a list of problems with one op; empty means the op is correct.

    ``results`` is ``[(label, exit_code, report_bytes), ...]``; ``expected``
    maps label -> the report the op must reproduce byte for byte.
    ``closed_forms`` maps label -> the Hilbert table the report must show,
    for the generated scenarios.
    """
    problems = []
    for label, exit_code, report in results:
        if exit_code != EXPECTED_EXIT[workload]:
            problems.append(f"{label}: exit {exit_code}, "
                            f"expected {EXPECTED_EXIT[workload]}")
        text = report.decode("utf-8", errors="replace")
        if failed_steps(text) != EXPECTED_FAILED[workload]:
            problems.append(f"{label}: failed steps {failed_steps(text)}, "
                            f"expected {EXPECTED_FAILED[workload]}")
        if closed_forms is not None:
            table = " ".join(str(c) for c in closed_forms[label])
            if f"check.02.value.dimensions = {table}\n" not in text:
                problems.append(f"{label}: Hilbert table is not the closed form {table}")
        if report != expected.get(label, report):
            problems.append(f"{label}: machine report differs from the expected one")
    return problems


class Library:
    """The worker process, driven one op at a time over its stdin and stdout."""

    def __init__(self, bench, trace):
        config = {"trace": trace, "scenarios": bench.lib_scenarios,
                  "spans": str(bench.out / f"spans-{bench.workload}-seed{bench.seed}.jsonl")}
        self.stderr_path = bench.out / "worker.stderr"
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                cwd=bench.root, env=bench.env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=stderr, text=True)
        self.timer = threading.Timer(max(bench.remaining(), 0), self.proc.kill)
        self.timer.start()
        self.reports = {}
        try:
            hello = self._read()
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        self.env = hello["env"]
        self.warmup = self._keep(hello["warmup"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if exc[0] is not None:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            err = self.stderr_path.read_text(errors="replace").strip()
            if code == 2:
                raise ConfigError(err)
            raise RuntimeError(f"library worker exited {code}: {err[-2000:]}")
        return json.loads(line)

    def _keep(self, reply):
        """Replace the reply's report digests by the reports' bytes."""
        self.reports.update(reply.pop("reports"))
        reply["results"] = [(label, code, self.reports[digest].encode("utf-8"))
                            for label, code, digest in reply["results"]]
        return reply

    def op(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._keep(self._read())

    def finish(self):
        """Ask the worker to write its spans; return the span count."""
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        return self._read()["spans"]


class Bench:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.out = root / ".perfbench"
        self.out.mkdir(exist_ok=True)
        src = str(root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures = []
        self.expected = {}
        self.closed_forms = None
        self.record = {"workload": workload, "seed": seed, "seconds": seconds}
        if workload == "dense-generic":
            self.closed_forms, self.lib_scenarios, self.record["scenarios"] = {}, [], {}
            for label, degree, text, digest in dense.generate(seed):
                path = self.out / f"dense-seed{seed}-{label}.scn"
                path.write_text(text, encoding="utf-8")
                self.closed_forms[label] = dense.closed_form_hilbert(degree)
                self.lib_scenarios.append((label, {"path": str(path)}))
                self.record["scenarios"][label] = {
                    "sha256": digest, "closed_form_hilbert": self.closed_forms[label]}
            self.cli_args = [(label, source["path"]) for label, source in self.lib_scenarios]
        else:
            self.expected[workload] = (GOLDEN / f"{workload}.machine").read_bytes()
            self.cli_args = [(workload, workload)]
            self.lib_scenarios = [(workload, {"bundled": BUNDLED[workload]})]

    def remaining(self):
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def python(self, args, name):
        """Run one child to completion: (wall_s, exit, stdout, rusage, stderr)."""
        timeout = self.remaining()
        if timeout <= 0:
            raise TimeoutError(f"benchmark time limit of {HARD_LIMIT_S} s reached")
        stdout, stderr = self.out / f"{name}.stdout", self.out / f"{name}.stderr"
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, cwd=self.root,
                                    env=self.env, stdout=so, stderr=se)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, stdout.read_bytes(), usage, stderr.read_bytes()

    def check(self, what, results, error=None):
        self.attempted += 1
        problems = check_op(self.workload, results, self.expected, self.closed_forms)
        if error is not None:
            problems.append(f"exception: {error.strip().splitlines()[-1]}")
        if problems:
            self.failures.append({"op": what, "problems": problems})

    def cold_import(self, code):
        wall, exit_code, out, _, err = self.python(["-c", code], "import")
        if exit_code != 0:
            raise ConfigError(f"cannot import chowcheck from {self.root / 'src'}: "
                              + err.decode(errors="replace").strip()[-500:])
        return wall, out

    def cold_op(self):
        """One op of cold CLI processes: (wall_s, cpu_s, peak_rss_mb)."""
        results, wall, cpu, peak = [], 0.0, 0.0, 0.0
        for label, arg in self.cli_args:
            w, code, out, usage, _ = self.python(
                ["-m", "chowcheck", "verify", arg, "--machine"], "cold")
            wall += w
            cpu += usage.ru_utime + usage.ru_stime
            peak = max(peak, usage.ru_maxrss / 1024.0)
            results.append((label, code, out))
        self.check(f"cold op {self.attempted + 1}", results)
        return wall, cpu, peak

    def accept(self, lib):
        """Check that the worker runs the checkout's code; check its warm-up op."""
        src = os.path.realpath(self.root / "src")
        if not lib.env["chowcheck_file"].startswith(src + os.sep):
            raise ConfigError(f"chowcheck resolved to {lib.env['chowcheck_file']}, "
                              f"not under {src}")
        self.record["env"] = lib.env
        if not self.expected:  # generated scenarios: the warm-up op is the reference
            self.expected = {label: report for label, _, report in lib.warmup["results"]}
        self.check("library warm-up op", lib.warmup["results"], lib.warmup.get("error"))

    def library_op(self, lib, command):
        reply = lib.op(command)
        self.check(f"library {command} op {self.attempted + 1}", reply["results"],
                   reply.get("error"))
        return reply

    def run_untraced(self):
        self.cold_import(IMPORT)  # discarded: the first import may write bytecode
        samples = {name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s",
                                         "reference_s", "library_s", "library_ref")}
        with Library(self, trace=False) as lib:
            self.accept(lib)
            deadline = time.monotonic() + self.seconds
            while True:
                before = reference.seconds()
                samples["setup_s"].append(self.cold_import(IMPORT)[0])
                wall, cpu, peak = self.cold_op()
                samples["reference_s"].append((before + reference.seconds()) / 2)
                samples["wall_s"].append(wall)
                samples["cpu_s"].append(cpu)
                samples["peak_rss_mb"].append(peak)
                spent = 0.0
                while True:
                    reply = self.library_op(lib, "untraced")
                    samples["library_s"].append(reply["seconds"])
                    samples["library_ref"].append(reply["seconds"] / reply["ref"])
                    spent += reply["seconds"]
                    if spent >= wall or time.monotonic() >= deadline:
                        break
                if time.monotonic() >= deadline:
                    break
            lib.finish()
        self.record["samples"] = samples
        values = {name: statistics.median(v) for name, v in samples.items()}
        # A cold op lasts seconds, longer than the speed stays put, so its
        # time is set against the reference time of the whole run.
        ref_total = sum(samples["reference_s"])
        values["wall_ref"] = sum(samples["wall_s"]) / ref_total
        values["cpu_ref"] = sum(samples["cpu_s"]) / ref_total
        return values

    def run_traced(self):
        self.cold_import(TIMED_IMPORT)  # discarded, as above
        imports, untraced, traced, layers = [], [], [], []
        with Library(self, trace=True) as lib:
            self.accept(lib)
            deadline = time.monotonic() + self.seconds
            while True:
                imports.append(float(self.cold_import(TIMED_IMPORT)[1]))
                reply = self.library_op(lib, "untraced")
                untraced.append(reply["seconds"] / reply["ref"])
                reply = self.library_op(lib, "traced")
                traced.append(reply["seconds"] / reply["ref"])
                if "layers" in reply:
                    layers.append(reply["layers"])
                if time.monotonic() >= deadline:
                    break
            self.record["spans"] = lib.finish()
        if not layers:
            raise RuntimeError("no traced op completed; see the failures above")
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["setup.import_s"] = statistics.median(imports)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        self.record["samples"] = {"setup.import_s": imports, "untraced_ref": untraced,
                                  "traced_ref": traced}
        return metrics


def _declared(root, key):
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(root, workload, seed, seconds, trace):
    """Run one workload; print its figures; return (bench, {name: (value, unit)})
    for the metrics BENCHMARK.json declares for this mode."""
    declared = _declared(root, "per_layer" if trace else "end_to_end")
    bench = Bench(root, workload, seed, seconds)
    values = bench.run_traced() if trace else bench.run_untraced()
    missing = [name for name in declared if name not in values]
    if missing:
        raise ConfigError(f"metrics not produced: {', '.join(missing)}")
    ops = bench.attempted
    bench.record.update(attempted=ops, failed=len(bench.failures),
                        failures=bench.failures, metrics=values)
    path = bench.out / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(bench.record, indent=1) + "\n", encoding="utf-8")

    env = bench.record["env"]
    print(f"== {workload}  seed {seed}  trace {int(trace)}  "
          f"{ops} ops, closed loop, 1 client")
    print(f"   chowcheck {env['chowcheck_file']}  python {env['python']}  "
          f"numpy {env['numpy']}  backend {env['backend']}  nproc {env['nproc']}")
    for label, info in bench.record.get("scenarios", {}).items():
        table = " ".join(str(c) for c in info["closed_form_hilbert"])
        print(f"   scenario {label}: sha256 {info['sha256']}  closed form {table}")
    samples = bench.record["samples"]
    for name, value in values.items():
        if trace and name not in declared:
            continue
        unit = declared.get(name) or SHOWN_UNITS[name]
        extra = "" if name in declared else "  (not gated)"
        if len(samples.get(name, ())) > 1:
            q1, _, q3 = statistics.quantiles(samples[name], n=4)
            extra += f"  [q1 {q1:.4g}, q3 {q3:.4g}; n={len(samples[name])}]"
        print(f"   {name:<44} {value:.6g} {unit}{extra}")
    print(f"   {'failed_ratio':<44} {len(bench.failures) / ops:.6g} "
          f"({len(bench.failures)} of {ops} ops)")
    for failure in bench.failures:
        print(f"   FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print(f"   details: {path}")
    return bench, {name: (values[name], unit) for name, unit in declared.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chowcheck" / "__init__.py").is_file():
        print(f"error: no chowcheck sources under {root / 'src'}; "
              "run from the root of a chowcheck checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            bench, values = run_workload(root, workload, args.seed, args.seconds,
                                         args.trace)
            attempted += bench.attempted
            failed += len(bench.failures)
            values = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            if args.workload == "all":
                metrics[workload] = values
            else:
                metrics = values
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
