#!/usr/bin/env python3
"""Gate benchmark regressions against the committed trajectory.

Compares a freshly produced bench_parallel JSON against the committed
BENCH_reasoner.json and fails (exit 1) when any matched row's wall time
regressed by more than the tolerance (default 20%). Rows are matched on
(workload name, thread count); rows marked `skipped_single_core` on
either side, and rows with no counterpart (different --depth/--schemas
parameters change the workload name), are reported and skipped rather
than failed — the gate only ever compares like with like.

Rows marked `oversubscribed` (produced by `bench_parallel
--force-multithread` on a machine with fewer cores than threads) ARE
compared, but their wall-time drift is advisory (WARN, never FAIL):
the wall clock there measures scheduler noise, not scaling. What the
gate does enforce on every multi-thread row, oversubscribed or not, is
determinism — `deterministic_across_threads` must be true in the fresh
JSON, and any workload with multi-thread baseline rows must have
multi-thread fresh rows (so a single-core CI runner can't silently
drop the cross-thread cross-check; it must pass --force-multithread).

Solver work is gated too: a matched row whose `solves` or `pivots` per
timed repetition differ from the committed row's FAILS, oversubscribed
or not. Both JSONs record `repeat` (bench_parallel sums the counters
over its repetitions, and CI runs fewer than the committed trajectory);
a JSON without it fails the gate. Those counts are deterministic (every
committed row has the same counters at 1, 2 and 4 threads and in every
repetition), so unlike the wall clock they do not depend on the host; a
change is a behavior change, and the committed rows must be re-recorded
with the change that causes it.

With `--mode server` the same comparison runs over bench_server output
(BENCH_server.json): rows are matched on (workload name, client count),
a req/s drop beyond the tolerance is reported as WARN only (loopback
throughput is noisy in CI), but a nonzero `protocol_errors` or
`mismatches` count in the fresh run is a hard FAIL — the service layer
never gets to break framing or change a verdict, at any load.

Usage:
  tools/bench_check.py --baseline BENCH_reasoner.json \
      --fresh BENCH_reasoner.smoke.json [--tolerance 0.20]
  tools/bench_check.py --mode server --baseline BENCH_server.json \
      --fresh BENCH_server.smoke.json
"""

import argparse
import json
import sys


def load_rows(path):
    """Returns (doc, {(workload_name, threads): run_row}) for comparable
    rows, or (None, None) (after printing an error) when the file is
    missing/malformed. Rows whose wall_ms is not a finite number are
    warned about and dropped — an interrupted bench run writes nulls,
    and the gate must degrade to "fewer rows compared", not a
    traceback. `oversubscribed` rows are kept (their determinism and
    presence are gated; their timing is advisory)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot load {path}: {error}", file=sys.stderr)
        return None, None
    rows = {}
    if not isinstance(doc, dict):
        print(f"WARN  {path}: top-level JSON is not an object; no rows")
        return {}, rows
    for workload in doc.get("workloads", []):
        name = workload.get("name", "?")
        for run in workload.get("runs", []):
            if run.get("skipped_single_core"):
                continue
            threads = run.get("threads")
            if threads is None or "wall_ms" not in run:
                continue
            try:
                wall = float(run["wall_ms"])
            except (TypeError, ValueError):
                print(f"WARN  {name} [threads={threads}] in {path}: "
                      f"non-numeric wall_ms {run['wall_ms']!r}; row dropped")
                continue
            if wall != wall or wall in (float("inf"), float("-inf")):
                print(f"WARN  {name} [threads={threads}] in {path}: "
                      f"non-finite wall_ms {wall!r}; row dropped")
                continue
            rows[(name, threads)] = run
    return doc, rows


def load_server_rows(path):
    """Returns {(workload_name, clients): run_row} from a bench_server
    JSON, or None (after printing an error) when the file is
    missing/malformed. Rows without a finite req_per_s are dropped with
    a warning, mirroring load_rows."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot load {path}: {error}", file=sys.stderr)
        return None
    rows = {}
    if not isinstance(doc, dict):
        print(f"WARN  {path}: top-level JSON is not an object; no rows")
        return rows
    for workload in doc.get("workloads", []):
        name = workload.get("name", "?")
        for run in workload.get("runs", []):
            clients = run.get("clients")
            if clients is None or "req_per_s" not in run:
                continue
            try:
                rate = float(run["req_per_s"])
            except (TypeError, ValueError):
                print(f"WARN  {name} [clients={clients}] in {path}: "
                      f"non-numeric req_per_s {run['req_per_s']!r}; "
                      "row dropped")
                continue
            if rate != rate or rate in (float("inf"), float("-inf")):
                print(f"WARN  {name} [clients={clients}] in {path}: "
                      f"non-finite req_per_s {rate!r}; row dropped")
                continue
            rows[(name, clients)] = run
    return rows


def check_server(args):
    """The --mode server gate: correctness counters are hard failures,
    throughput drift is advisory."""
    baseline = load_server_rows(args.baseline)
    fresh = load_server_rows(args.fresh)
    if baseline is None or fresh is None:
        return 2

    failures = []
    compared = 0
    for key in sorted(fresh):
        name, clients = key
        run = fresh[key]
        for counter in ("protocol_errors", "mismatches"):
            count = run.get(counter, 0)
            if count:
                failures.append(
                    f"{name} [clients={clients}]: {counter} = {count} "
                    "(must be 0)")
        if key not in baseline:
            print(f"SKIP  {name} [clients={clients}]: no baseline row")
            continue
        base_rate = float(baseline[key]["req_per_s"])
        fresh_rate = float(run["req_per_s"])
        compared += 1
        if base_rate <= 0:
            print(f"SKIP  {name} [clients={clients}]: zero baseline rate")
            continue
        ratio = fresh_rate / base_rate
        verdict = "OK  "
        if ratio < 1.0 - args.tolerance:
            verdict = "WARN"
        print(f"{verdict}  {name} [clients={clients}]: "
              f"{base_rate:.0f} req/s -> {fresh_rate:.0f} req/s "
              f"({(ratio - 1.0) * 100.0:+.1f}%)"
              + ("  [regression beyond tolerance — advisory only]"
                 if verdict == "WARN" else ""))

    if compared == 0 and not failures:
        print("error: no comparable rows — workload names/clients in the "
              "fresh JSON match nothing in the baseline", file=sys.stderr)
        return 1
    if failures:
        print("\nservice-correctness failures:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\n{compared} row(s) compared; throughput drift is advisory, "
          "protocol_errors/mismatches all zero")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_reasoner.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced bench_parallel JSON")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional wall-time regression "
                             "per row (default 0.20)")
    parser.add_argument("--mode", choices=("reasoner", "server"),
                        default="reasoner",
                        help="reasoner: gate bench_parallel wall times; "
                             "server: gate bench_server correctness "
                             "counters, warn on req/s drops")
    args = parser.parse_args()

    if args.mode == "server":
        return check_server(args)

    baseline_doc, baseline = load_rows(args.baseline)
    fresh_doc, fresh = load_rows(args.fresh)
    if baseline is None or fresh is None:
        return 2

    failures = []
    compared = 0

    # Counters are compared per repetition: base / base_repeat against
    # fresh / fresh_repeat, cross-multiplied to stay in integers.
    repeats = {}
    for label, doc in (("baseline", baseline_doc), ("fresh", fresh_doc)):
        repeat = doc.get("repeat")
        if isinstance(repeat, int) and not isinstance(repeat, bool) \
                and repeat >= 1:
            repeats[label] = repeat
        else:
            failures.append(f"{label} JSON records no valid `repeat` "
                            f"({repeat!r}); solver work cannot be compared")

    # Determinism is the one property the multi-thread rows certify on
    # any core count: the bench binary exits non-zero on a digest
    # mismatch, and the JSON records the verdict — a false here means
    # someone committed output from a failed run.
    if fresh_doc.get("deterministic_across_threads") is False:
        failures.append(
            "fresh run reports deterministic_across_threads = false")
    for workload in fresh_doc.get("workloads", []):
        if workload.get("deterministic") is False:
            failures.append(f"{workload.get('name', '?')}: fresh run "
                            "reports deterministic = false")

    # Any workload the baseline measures at >1 threads must have fresh
    # multi-thread rows too (real or oversubscribed): a single-core
    # runner that forgets --force-multithread would otherwise silently
    # skip the cross-thread determinism check.
    fresh_names = {name for name, _ in fresh}
    for name in sorted({name for name, threads in baseline if threads > 1}):
        if name not in fresh_names:
            continue  # Different bench parameters; nothing to require.
        if not any(n == name and t > 1 for n, t in fresh):
            failures.append(
                f"{name}: baseline has multi-thread rows but the fresh "
                "run has none (single-core runner? pass "
                "--force-multithread)")

    for key in sorted(baseline):
        name, threads = key
        if key not in fresh:
            print(f"SKIP  {name} [threads={threads}]: no fresh row "
                  "(different bench parameters?)")
            continue
        base_wall = float(baseline[key]["wall_ms"])
        fresh_wall = float(fresh[key]["wall_ms"])
        compared += 1
        if base_wall <= 0:
            print(f"SKIP  {name} [threads={threads}]: zero baseline wall")
            continue
        # Oversubscribed wall clocks (either side) are scheduler noise;
        # report the drift but never fail on it.
        advisory = bool(baseline[key].get("oversubscribed")
                        or fresh[key].get("oversubscribed"))
        ratio = fresh_wall / base_wall
        verdict = "OK  "
        if ratio > 1.0 + args.tolerance:
            if advisory:
                verdict = "WARN"
            else:
                verdict = "FAIL"
                failures.append(
                    f"{name} [threads={threads}]: {base_wall:.0f} ms -> "
                    f"{fresh_wall:.0f} ms ({(ratio - 1.0) * 100.0:+.1f}%, "
                    f"tolerance {args.tolerance * 100.0:.0f}%)")
        print(f"{verdict}  {name} [threads={threads}]: "
              f"{base_wall:.0f} ms -> {fresh_wall:.0f} ms "
              f"({(ratio - 1.0) * 100.0:+.1f}%)"
              + ("  [oversubscribed — timing advisory only]"
                 if advisory else ""))
        for counter in ("solves", "pivots"):
            if len(repeats) < 2 or counter not in baseline[key] \
                    or counter not in fresh[key]:
                continue
            base_count = baseline[key][counter]
            fresh_count = fresh[key][counter]
            if base_count * repeats["fresh"] != \
                    fresh_count * repeats["baseline"]:
                change = (f"{counter} per repetition "
                          f"{base_count / repeats['baseline']:g} -> "
                          f"{fresh_count / repeats['fresh']:g}")
                print(f"FAIL  {name} [threads={threads}]: {change}")
                failures.append(
                    f"{name} [threads={threads}]: {change} (deterministic "
                    "solver work; re-record the row if intended)")

    for key in sorted(fresh):
        if key not in baseline:
            name, threads = key
            print(f"SKIP  {name} [threads={threads}]: no baseline row")

    if compared == 0:
        print("error: no comparable rows — workload names/threads in the "
              "fresh JSON match nothing in the baseline", file=sys.stderr)
        return 1
    if failures:
        print("\nbench gate failures:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\n{compared} row(s) compared, all within "
          f"{args.tolerance * 100.0:.0f}% of the committed baseline, "
          "with the committed solves and pivots")
    return 0


if __name__ == "__main__":
    sys.exit(main())
