"""Benchmark of the ``lpeval`` command line on seeded synthetic inputs.

Run from the root of an lpeval checkout::

    python3 lpbench/run.py --workload local --seed 1 --seconds 35 --trace 0
    python3 lpbench/run.py --workload all --seed 1 --seconds 35

Each run repeats the workload's fixed sequence of CLI commands, one
process at a time, for about ``--seconds`` seconds, and reports medians over
the repeats. Before every repeat the inputs are generated from ``--seed``
several times over; ``setup_s`` is the median of all those set-ups. Every
repeat of a command writes to the same ``--out`` directory: ``run.out`` is
echoed into each JSON report, so only reruns with the same output path can
have equal digests. The outputs
are checked against independent references (``check.py``), and every
repeat must reproduce the first repeat's digests.

With ``--trace 1`` the run makes one CLI repeat, then alternates untraced
and traced in-process passes over the same commands (``tracing.py``) and
prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
CLI command runs; a run fails when it exits non-zero or a check on its
output fails, so ``failed / attempted`` is the error rate. Checks on a
known defect of the program (``check.KNOWN_DEFECTS``) are made as strictly
but printed as ``known_defect_runs`` and ``# KNOWN DEFECT`` lines instead of
counted. Work files go to
``.bench_work/``; the run exits with code 2 and prints no result when the
current directory holds no ``src/lpeval``.

Until the CLI repeats are done this process imports only the standard
library: a child's ``ru_maxrss`` starts from its parent's resident set, so
a large parent process would inflate every ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import probe
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
MIN_REPEATS = 3       # CLI sequence repeats per untraced run, at least
MIB = float(1 << 20)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "rows_per_s": "1/s", "output_mb": "MiB"}


@dataclass(frozen=True)
class CommandRun:
    command: str
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    listed: dict        # artifact digests the command's manifest lists, or None
    actual: dict        # digests of those artifacts as found on disk
    scale: float = 1.0  # probe.scale() around the run

    @property
    def scaled_wall_s(self):
        return self.wall_s * self.scale

    @property
    def scaled_cpu_s(self):
        return self.cpu_s * self.scale


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _digests(out_dir):
    """(manifest's artifact digests, digests of those files on disk);
    ``(None, {})`` when there is no readable manifest."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            listed = {a["path"]: a["sha256"] for a in json.load(fh)["artifacts"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None, {}
    actual = {rel: _sha256(os.path.join(out_dir, rel))
              for rel in listed if os.path.isfile(os.path.join(out_dir, rel))}
    return listed, actual


def run_cli(command, config, out, overrides, log_path):
    """Run one ``lpeval`` command to completion and record what it did."""
    argv = [sys.executable, "-m", "lpeval.cli", command, "--config", config,
            "--out", out]
    for item in overrides:
        argv += ["--set", item]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    listed, actual = _digests(out)
    return CommandRun(command, proc.returncode, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      listed, actual)


def _tree_bytes(directory):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(directory) for f in files)


def _tail(path, lines=5):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            **{k: os.environ.get(k) for k in BLAS_ENV}}


class Setup:
    """The input generator (``gen.py``) as a child process that makes the
    inputs again on request. It stays up for the whole run and a batch of
    set-ups precedes every CLI repeat, so the set-ups meet the same machine
    load as the CLI commands."""

    def __init__(self, wl, seed, inputs):
        self.times = {"setup_s": [], "scaled_setup_s": []}
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "gen.py"), wl.name, str(seed),
             inputs], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def batch(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("input generation failed")
        for key, values in json.loads(line).items():
            self.times[key] += values

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        if exc_type is not None:
            self.proc.kill()
        self.proc.wait()


def run_workload(wl, seed, seconds, trace):
    """One benchmark run of a workload; returns the result dict."""
    work = os.path.join(WORK_ROOT, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "input")
    config = os.path.join(inputs, "lpeval.ini")
    outs = {c: os.path.join(work, "out", c) for c, _ in wl.commands}

    repeats, rounds = [], []
    start = time.perf_counter()
    with Setup(wl, seed, inputs) as gen:
        while True:
            round_start = time.perf_counter()
            gen.batch()
            runs = []
            before = probe.probe()
            for command, overrides in wl.commands:
                run = run_cli(command, config, outs[command], overrides,
                              os.path.join(work, f"{command}.log"))
                after = probe.probe()
                runs.append(replace(run, scale=probe.scale(before, after)))
                before = after
            repeats.append(runs)
            now = time.perf_counter()
            rounds.append(now - round_start)
            if trace or (len(repeats) >= MIN_REPEATS
                         and now - start + statistics.median(rounds) > seconds):
                break
    setups = gen.times

    import check     # numpy and scipy: only now that no CLI process follows

    checker = check.Checker()
    per_repeat = []
    for runs in repeats:
        seen = len(checker.failures)
        for r, first in zip(runs, repeats[0]):
            if checker.expect(r.returncode == 0, r.command,
                              f"exit code {r.returncode}: "
                              f"{_tail(os.path.join(work, f'{r.command}.log'))}"):
                checker.manifest(r.command, r.listed, r.actual)
                checker.rerun(r.command, first.listed, r.listed)
        per_repeat.append({c for c, _ in checker.failures[seen:]})
    # Every repeat wrote the same bytes or failed above, so the outputs on
    # disk stand for each repeat that passed.
    seen = len(checker.failures)
    rows = check.check_outputs(checker, wl, inputs, outs, skip=per_repeat[-1])
    wrong = {c for c, _ in checker.failures[seen:]}
    failed = sum(len(f | wrong) for f in per_repeat)
    attempted = sum(len(runs) for runs in repeats)

    scaled = [sum(r.scaled_wall_s for r in runs) for runs in repeats]
    result = {
        "workload": wl.name, "seed": seed, "env": environment(), "rows": rows,
        "repeats": len(repeats), **setups,
        "repeat_wall_s": [sum(r.wall_s for r in runs) for runs in repeats],
        "repeat_scaled_wall_s": scaled,
        "repeat_cpu_s": [sum(r.cpu_s for r in runs) for runs in repeats],
        "scales": [[r.scale for r in runs] for runs in repeats],
        "failures": checker.failures,
        # Findings of checks on known defects (check.KNOWN_DEFECTS): printed,
        # not counted in ``failed``. The outputs on disk stand for every
        # repeat, so each finding's command counts once per repeat.
        "known_defects": checker.known,
        "known_defect_runs": len({c for c, _ in checker.known}) * len(repeats),
        "attempted": attempted, "failed": failed,
    }
    if trace:
        result["metrics"] = _traced(wl, config, repeats[0], seconds, work)
    else:
        wall = statistics.median(scaled)
        result["metrics"] = {
            "wall_s": wall,
            "cpu_s": statistics.median(sum(r.scaled_cpu_s for r in runs)
                                       for runs in repeats),
            "setup_s": statistics.median(setups["scaled_setup_s"]),
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in runs)
                                             for runs in repeats),
            "rows_per_s": rows / wall,
            "output_mb": _tree_bytes(os.path.join(work, "out")) / MIB,
        }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _traced(wl, config, cli_runs, seconds, work):
    """Per-layer metrics: the CLI timings of one repeat, then in-process
    passes for about ``seconds``. A warm-up pass comes first; after it
    untraced and traced passes alternate, and ``trace.overhead_s`` is the
    difference of their medians. Times are scaled like the end-to-end ones.
    The last traced pass's spans and counts go to ``spans.json``."""
    import tracing

    commands = tracing.configs(config, wl.commands, os.path.join(work, "trace"))
    start = time.perf_counter()
    tracing.run_pass(None, commands)
    untraced, traced, layers = [], [], []
    while not traced or time.perf_counter() - start + 2 * traced[-1] < seconds:
        tracer = tracing.Tracer()
        for t in (None, tracer) if len(traced) % 2 == 0 else (tracer, None):
            before = probe.probe()
            wall = tracing.run_pass(t, commands)
            factor = probe.scale(before, probe.probe())
            if t is None:
                untraced.append(wall * factor)
                continue
            traced.append(wall * factor)
            layers.append({k: v * factor if k.endswith("_s") else v
                           for k, v in t.reduce().items()})
    with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, indent=1)
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [layer.get(name, 0) for layer in layers]
        metrics[name] = statistics.median(values) if unit == "s" else values[0]
    for r in cli_runs:
        metrics[f"cli.{r.command}_s"] = r.scaled_wall_s
        metrics[f"cli.{r.command}_rss_mb"] = r.rss_mb
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "lpeval", "cli.py")):
        print("lpbench: run from the root of an lpeval checkout "
              "(no src/lpeval here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    if args.workload == "all":
        return run_all(args)
    res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    if args.trace:
        import tracing
        units = dict(tracing.PER_LAYER)
    else:
        units = END_TO_END
    print(f"# {args.workload} seed={args.seed} repeats={res['repeats']} "
          f"rows={res['rows']} env={json.dumps(res['env'], sort_keys=True)}")
    for metric, value in res["metrics"].items():
        print(f"{metric} {value!r} {units[metric]}")
    print(f"error_rate {res['failed'] / res['attempted']!r} "
          f"({res['failed']} of {res['attempted']} command runs failed)")
    for command, message in res["failures"]:
        print(f"# FAILED {command}: {message}")
    print(f"known_defect_runs {res['known_defect_runs']} (command runs that show "
          f"a known defect; not counted in error_rate)")
    for command, message in res["known_defects"]:
        print(f"# KNOWN DEFECT {command}: {message}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {m: {"value": v, "unit": units[m]}
                                  for m, v in res["metrics"].items()}}))
    return 0


def run_all(args):
    """Each workload in a process of its own, so that no workload's run
    inherits another's resident set; prints their lines and one combined
    result with metrics named ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
