"""Show that the output checker catches broken outputs.

Run from the root of an lpeval checkout::

    python3 lpbench/selftest.py

It makes the ``full`` and ``sampling`` inputs for one seed, runs
``evaluate`` and ``variance`` once and prints what the checker finds in
their untouched outputs (a defect of the program shows here). Then it
breaks one output at a time and confirms that the checker reports a
failure it did not report for the untouched outputs. A tampered artifact
must fail its manifest digest, and a missing manifest or one that lists no
artifact must fail too. A wrong AUROC, a dropped candidate row and a wrong
full AUROC or rate-1 mean in the variance report are written with a
manifest that matches them, as a program computing them wrongly would write it, so only the
content checks can catch them. The rate-1 mean is a known-defect check:
it is reported, but a run it flags still counts as correct. Exits 1 if any
break goes unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.abspath("src"))

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _drop_last_line(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])


def _append(path, text):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


def _bump_auroc(report):
    entry = next(iter(report["predictors"].values()))
    entry["auroc"] += 1e-12


def _bump_full_auroc(report):
    entry = next(iter(report["predictors"].values()))
    entry["full_auroc"] += 1e-12


def _resign(out):
    """Rewrite the manifest's digests to match the files on disk."""
    listed, _ = run._digests(out)
    _edit_json(os.path.join(out, "manifest.json"), lambda m: m.update(
        artifacts=[{"path": rel, "sha256": run._sha256(os.path.join(out, rel))}
                   for rel in listed]))


def _bump_rate_one_mean(report):
    entry = next(iter(report["predictors"].values()))
    row = next(r for r in entry["rows"] if r["rate"] == 1.0)
    row["mean"] += 1e-12


def _findings(wl, command, inputs, out):
    """Checker findings for one run of ``command``'s current outputs: the
    failures, then the known-defect findings marked as such."""
    checker = check.Checker()
    listed, actual = run._digests(out)
    checker.manifest(command, listed, actual)
    check.check_outputs(checker, wl, inputs, {command: out})
    return checker.failures + [(c, "(known defect, not counted) " + m)
                               for c, m in checker.known]


def main():
    if not os.path.isfile(os.path.join("src", "lpeval", "cli.py")):
        print("selftest: run from the root of an lpeval checkout", file=sys.stderr)
        return 2
    cases = {
        ("full", "evaluate"): [
            ("tampered artifact", False, lambda out: _append(
                os.path.join(out, "roc_common-neighbors.csv"), "0.5,0.5\n")),
            ("missing manifest", False, lambda out: os.remove(
                os.path.join(out, "manifest.json"))),
            ("manifest listing no artifact", False, lambda out: _edit_json(
                os.path.join(out, "manifest.json"),
                lambda m: m.update(artifacts=[]))),
            ("wrong AUROC", True, lambda out: _edit_json(
                os.path.join(out, "evaluation.json"), _bump_auroc)),
            ("dropped candidate row", True, lambda out: _drop_last_line(
                os.path.join(out, "instances_common-neighbors.csv"))),
        ],
        ("sampling", "variance"): [
            ("wrong full AUROC", True, lambda out: _edit_json(
                os.path.join(out, "variance_report.json"), _bump_full_auroc)),
            ("wrong rate-1 mean", True, lambda out: _edit_json(
                os.path.join(out, "variance_report.json"), _bump_rate_one_mean)),
        ],
    }
    missed = 0
    for (name, command), breaks in cases.items():
        wl = WORKLOADS[name]
        work = os.path.join(run.WORK_ROOT, "selftest", name)
        shutil.rmtree(work, ignore_errors=True)
        inputs = os.path.join(work, "input")
        with run.Setup(wl, 1, inputs) as gen:
            gen.batch()
        config = os.path.join(inputs, "lpeval.ini")
        overrides = dict(wl.commands)[command]
        out = os.path.join(work, "out")
        pristine = os.path.join(work, "pristine")
        r = run.run_cli(command, config, out, overrides, os.path.join(work, "cli.log"))
        if r.returncode != 0:
            print(f"selftest: {name} {command} exited {r.returncode}", file=sys.stderr)
            return 1
        shutil.copytree(out, pristine)
        clean = _findings(wl, command, inputs, out)
        print(f"{name} {command} untouched: "
              + ("ok" if not clean else "; ".join(m for _, m in clean)))
        for label, resign, breaker in breaks:
            shutil.rmtree(out)
            shutil.copytree(pristine, out)
            breaker(out)
            if resign:
                _resign(out)
            found = [f for f in _findings(wl, command, inputs, out)
                     if f not in clean]
            print(f"{name} {command} {label}: "
                  f"{'caught: ' + found[0][1] if found else 'MISSED'}")
            missed += not found
    print("selftest:", "FAILED" if missed else "all breaks caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
