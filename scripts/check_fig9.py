#!/usr/bin/env python3
"""Growth and environment gate over fig9 --json reports.

Usage: check_fig9.py <fig9.json>... (or - for stdin)

Gates, per report:

* every column (with and without fields) of every workload reports
  `env_s`, `env_layer_copies` and `other_s` beside its four phases,
  and phases + env + other add up to `wall_s`;
* `env_layer_copies` is 0 everywhere: the driver drops the previous
  environment before each freeze, so the global layer is extended in
  place and never copied (a copy per definition is O(defs) work each);
* full-scale reports only (`quick` false): the without-fields wall
  grows from Intel x86 to Intel x86 + Sem by at most the paper's own
  factor, 15.42 s / 6.11 s = 2.5. Quick-mode walls are tens of
  milliseconds and too noisy to gate a ratio on.

Exits non-zero with a diagnostic on the first violation.
"""

import sys

import benchlib

# Paper, Fig. 9 "w/o fields": Intel x86 6.11 s, Intel x86 + Sem 15.42 s.
NOFIELDS_GROWTH_BOUND = 2.5
GROWTH_FROM, GROWTH_TO = "Intel x86", "Intel x86 + Sem"
# Float rounding in the report, not measurement noise: other_s is
# derived from the same durations.
RECONCILE_TOLERANCE_S = 1e-6

fail = benchlib.failer("check_fig9")


def check_column(run, what):
    wall = benchlib.positive_number(run, "wall_s", what, fail)
    phases = benchlib.require_obj(run, "phases", what, fail)
    env = run.get("env_s")
    other = run.get("other_s")
    for key, v in (("env_s", env), ("other_s", other)):
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            fail(f"{what}: {key} must be a non-negative number, got {v!r}")
    total = sum(phases.values()) + env + other
    if abs(total - wall) > RECONCILE_TOLERANCE_S:
        fail(f"{what}: phases + env + other = {total:.6f}s, wall_s = {wall:.6f}s")
    copies = benchlib.nonneg_int(run, "env_layer_copies", what, fail)
    if copies != 0:
        fail(f"{what}: {copies} environment freezes copied the global layer")
    return wall


def check(doc, path):
    if doc.get("bench") != "fig9":
        fail(f"{path}: not a fig9 report (bench = {doc.get('bench')!r})")
    nofields = {}
    for w in benchlib.require_list(doc, "workloads", path, fail):
        name = w.get("name", "?")
        for leg in ("without_fields", "with_fields"):
            run = benchlib.require_obj(w, leg, f"{path}: {name}", fail)
            wall = check_column(run, f"{path}: {name}.{leg}")
            if leg == "without_fields":
                nofields[name] = wall
    if doc.get("quick"):
        return f"{path}: quick run, growth not gated"
    for name in (GROWTH_FROM, GROWTH_TO):
        if name not in nofields:
            fail(f"{path}: workload {name!r} missing")
    growth = nofields[GROWTH_TO] / nofields[GROWTH_FROM]
    if growth > NOFIELDS_GROWTH_BOUND:
        fail(
            f"{path}: w/o fields grows {growth:.2f}x from {GROWTH_FROM} to "
            f"{GROWTH_TO}, above the paper's {NOFIELDS_GROWTH_BOUND}x"
        )
    return f"{path}: w/o growth {growth:.2f}x (bound {NOFIELDS_GROWTH_BOUND}x)"


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    notes = [check(benchlib.load_json(path, fail), path) for path in sys.argv[1:]]
    print(f"check_fig9: OK: {'; '.join(notes)}")


if __name__ == "__main__":
    main()
