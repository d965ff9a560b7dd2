#!/usr/bin/env python3
"""Count-mode performance gate for CI.

Compares a fresh BENCH_countmode.json (bench_ablation --json output) against
the checked-in baseline (bench/baselines/BENCH_countmode_baseline.json,
generated at the same --scale as the CI run) and fails on regression.

Six checks, tuned to what each quantity can promise:

1. intra-run sim:   the dense counting mode (candidate_id x=1) must price
                    its pass>=2 counting stages no worse than the
                    paper-faithful itemset-keyed path (x=0) in *simulated*
                    seconds. Sim seconds are
                    bit-deterministic, so the tolerance only absorbs
                    float-accumulation noise.
2. baseline sim:    each mode's counting sim seconds must not exceed the
                    baseline's for the same dataset+mode. Deterministic,
                    same tight tolerance. Catches absolute cost-model
                    regressions the intra-run ratio would hide (e.g. every
                    mode getting uniformly slower).
3. host speedup:    counting *host* wall-clock varies with the runner, so
                    absolute seconds are not comparable across machines.
                    What is stable is the speedup ratio faithful/mode
                    within one run. The dense mode's current speedup must
                    stay above the baseline speedup times (1 - band).
4. streaming:       the steady-state micro-batch latency (mean simulated
                    seconds over the last quartile of batches in the
                    'stream_batch_sim_s:*' series) must (a) stay under the
                    ingest interval ('stream_interval_s:*') -- a stream
                    that cannot keep up with its own ingest rate is a
                    functional regression regardless of the baseline --
                    and (b) not exceed the baseline steady-state latency
                    beyond the deterministic sim tolerance.
5. approx:          the Toivonen-sampling grid ('approx_*:<dataset>'
                    series) is seeded and fully deterministic, so all
                    three quantities gate tight: simulated seconds per
                    config within the sim tolerance of the baseline,
                    recall never below the baseline's, and the exactness
                    certificate never lost (an x that was exact=1 in the
                    baseline must stay 1).
6. detsan:          the determinism sanitizer ('detsan_sim_s:<dataset>',
                    x=0 off / x=1 on at the default 1/16 sample rate) must
                    keep its replay overhead within 10% of the
                    detsan-off run in simulated seconds (intra-run, the
                    acceptance bound from the DetSan design), and the
                    detsan-on sim seconds must not exceed the baseline's
                    beyond the deterministic sim tolerance.

Usage:
  perf_gate.py CURRENT.json BASELINE.json [--sim-tol 1.02] [--ratio-band 0.5]
"""

import argparse
import json
import sys

MODES = {1: "candidate_id"}


def fail(message):
    """Gate misconfiguration: one clear line on stderr, exit 1, no traceback.

    Distinct from a perf regression (which prints the failing checks): these
    are setup errors -- a missing baseline file, a truncated JSON, a series
    or mode key that is not there -- and the message names the offending
    path/key so the fix is obvious from the CI log alone.
    """
    print("perf gate: error:", message, file=sys.stderr)
    sys.exit(1)


def load_json(path, role):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{role} file not found: {path}"
             + (" (regenerate it with bench_ablation --json and check it in)"
                if role == "baseline" else ""))
    except json.JSONDecodeError as e:
        fail(f"{role} file {path} is not valid JSON: {e}")


def series_by_dataset(doc, prefix, path):
    """{dataset: {x: y}} for every series named '<prefix>:<dataset>'."""
    series = doc.get("series")
    if not isinstance(series, dict):
        fail(f"{path}: no 'series' section (not a bench_ablation --json "
             "output?)")
    out = {}
    for name, points in series.items():
        if not name.startswith(prefix + ":"):
            continue
        dataset = name.split(":", 1)[1]
        out[dataset] = {int(x): y for x, y in points}
    return out


def steady_batch_seconds(points):
    """Mean y over the last quartile of batches, by batch index.

    Mirrors StreamResult::steady_batch_seconds (src/stream/miner.cpp): the
    last max(1, n//4) batches, so warm-up batches (frontier still filling,
    backpressure still widening) do not dominate the figure.
    """
    ys = [y for _, y in sorted(points.items())]
    tail = ys[-max(1, len(ys) // 4):]
    return sum(tail) / len(tail)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh BENCH_countmode.json")
    parser.add_argument("baseline", help="checked-in baseline json")
    parser.add_argument(
        "--sim-tol", type=float, default=1.02,
        help="multiplicative tolerance for deterministic sim seconds")
    parser.add_argument(
        "--ratio-band", type=float, default=0.5,
        help="host speedup may shrink to (1 - band) of the baseline's "
             "before the gate fails (absorbs runner speed variance)")
    args = parser.parse_args()

    current = load_json(args.current, "current")
    baseline = load_json(args.baseline, "baseline")

    cur_sim = series_by_dataset(current, "countmode_sim_s", args.current)
    cur_host = series_by_dataset(current, "countmode_host_s", args.current)
    base_sim = series_by_dataset(baseline, "countmode_sim_s", args.baseline)
    base_host = series_by_dataset(baseline, "countmode_host_s", args.baseline)

    if not cur_sim:
        fail(f"{args.current}: no 'countmode_sim_s:*' series")
    if not base_sim:
        fail(f"{args.baseline}: no 'countmode_sim_s:*' series")
    missing = sorted(set(base_sim) - set(cur_sim))
    if missing:
        print("FAIL: datasets missing from current run:", ", ".join(missing))
        return 1

    failures = []

    def check(ok, line):
        print(("ok   " if ok else "FAIL ") + line)
        if not ok:
            failures.append(line)

    for dataset in sorted(cur_sim):
        sim, host = cur_sim[dataset], cur_host.get(dataset, {})
        if 0 not in sim:
            fail(f"{args.current}: series 'countmode_sim_s:{dataset}' has no "
                 "x=0 (itemset_key) point to compare against")
        for x, mode in MODES.items():
            if x not in sim:
                failures.append(f"{dataset}: mode {mode} missing from run")
                continue
            # 1. intra-run: the fast path must actually be the fast path.
            check(sim[x] <= sim[0] * args.sim_tol,
                  f"{dataset} {mode}: counting sim {sim[x]:.2f}s vs "
                  f"faithful {sim[0]:.2f}s (tol x{args.sim_tol})")

        if dataset not in base_sim:
            print(f"note {dataset}: not in baseline, intra-run checks only")
            continue
        bsim, bhost = base_sim[dataset], base_host.get(dataset, {})
        for x in sorted(sim):
            mode = MODES.get(x, "itemset_key")
            if x not in bsim:
                fail(f"{args.baseline}: series 'countmode_sim_s:{dataset}' "
                     f"has no x={x} ({mode}) point -- regenerate the "
                     "baseline at the current mode set")
            # 2. deterministic sim seconds vs baseline, absolute.
            check(sim[x] <= bsim[x] * args.sim_tol,
                  f"{dataset} {mode}: counting sim {sim[x]:.2f}s vs "
                  f"baseline {bsim[x]:.2f}s (tol x{args.sim_tol})")
        for x, mode in MODES.items():
            if not (0 in host and 0 in bhost and x in host and x in bhost
                    and host[0] > 0 and bhost[0] > 0 and host[x] > 0
                    and bhost[x] > 0):
                continue
            # 3. host speedup ratio vs baseline, banded.
            cur_ratio = host[0] / host[x]
            base_ratio = bhost[0] / bhost[x]
            floor = base_ratio * (1.0 - args.ratio_band)
            check(cur_ratio >= floor,
                  f"{dataset} {mode}: host speedup {cur_ratio:.2f}x vs "
                  f"baseline {base_ratio:.2f}x (floor {floor:.2f}x)")

    # 4. streaming steady-state latency gate.
    cur_stream = series_by_dataset(current, "stream_batch_sim_s",
                                   args.current)
    cur_interval = series_by_dataset(current, "stream_interval_s",
                                     args.current)
    base_stream = series_by_dataset(baseline, "stream_batch_sim_s",
                                    args.baseline)
    if base_stream and not cur_stream:
        fail(f"{args.current}: baseline has 'stream_batch_sim_s:*' series "
             "but the current run does not (bench_ablation too old?)")
    for dataset in sorted(cur_stream):
        steady = steady_batch_seconds(cur_stream[dataset])
        interval = cur_interval.get(dataset, {}).get(0)
        if interval is None:
            fail(f"{args.current}: 'stream_batch_sim_s:{dataset}' has no "
                 f"matching 'stream_interval_s:{dataset}' point")
        check(steady <= interval,
              f"{dataset} stream: steady batch sim {steady:.3f}s vs ingest "
              f"interval {interval:.2f}s (must keep up)")
        if dataset not in base_stream:
            print(f"note {dataset} stream: not in baseline, "
                  "keep-up check only")
            continue
        base_steady = steady_batch_seconds(base_stream[dataset])
        check(steady <= base_steady * args.sim_tol,
              f"{dataset} stream: steady batch sim {steady:.3f}s vs "
              f"baseline {base_steady:.3f}s (tol x{args.sim_tol})")

    # 5. approximate-mining (Toivonen sampling) gate.
    cur_asim = series_by_dataset(current, "approx_sim_s", args.current)
    cur_arec = series_by_dataset(current, "approx_recall", args.current)
    cur_aex = series_by_dataset(current, "approx_exact", args.current)
    base_asim = series_by_dataset(baseline, "approx_sim_s", args.baseline)
    base_arec = series_by_dataset(baseline, "approx_recall", args.baseline)
    base_aex = series_by_dataset(baseline, "approx_exact", args.baseline)
    if base_asim and not cur_asim:
        fail(f"{args.current}: baseline has 'approx_sim_s:*' series but the "
             "current run does not (bench_ablation too old?)")
    for dataset in sorted(cur_asim):
        sim = cur_asim[dataset]
        if dataset not in base_asim:
            print(f"note {dataset} approx: not in baseline, skipped")
            continue
        bsim = base_asim[dataset]
        for x in sorted(sim):
            if x not in bsim:
                fail(f"{args.baseline}: series 'approx_sim_s:{dataset}' has "
                     f"no x={x} point -- regenerate the baseline at the "
                     "current sampling-config grid")
            check(sim[x] <= bsim[x] * args.sim_tol,
                  f"{dataset} approx x={x}: sim {sim[x]:.2f}s vs baseline "
                  f"{bsim[x]:.2f}s (tol x{args.sim_tol})")
        rec = cur_arec.get(dataset, {})
        brec = base_arec.get(dataset, {})
        for x in sorted(rec):
            if x not in brec:
                continue
            # Seeded + deterministic: recall must not drop at all.
            check(rec[x] >= brec[x] - 1e-9,
                  f"{dataset} approx x={x}: recall {rec[x]:.4f} vs baseline "
                  f"{brec[x]:.4f} (must not drop)")
        ex = cur_aex.get(dataset, {})
        bex = base_aex.get(dataset, {})
        for x in sorted(ex):
            if x not in bex:
                continue
            check(ex[x] >= bex[x] - 1e-9,
                  f"{dataset} approx x={x}: exact={ex[x]:.0f} vs baseline "
                  f"exact={bex[x]:.0f} (certificate must not be lost)")

    # 6. determinism-sanitizer replay overhead gate.
    cur_ds = series_by_dataset(current, "detsan_sim_s", args.current)
    base_ds = series_by_dataset(baseline, "detsan_sim_s", args.baseline)
    if base_ds and not cur_ds:
        fail(f"{args.current}: baseline has 'detsan_sim_s:*' series but the "
             "current run does not (bench_ablation too old?)")
    for dataset in sorted(cur_ds):
        ds = cur_ds[dataset]
        if 0 not in ds or 1 not in ds:
            fail(f"{args.current}: series 'detsan_sim_s:{dataset}' needs "
                 "both x=0 (off) and x=1 (on) points")
        # Intra-run: replay overhead is the acceptance bound, not a drift
        # band -- sim seconds are deterministic, so 1.10 is exact.
        check(ds[1] <= ds[0] * 1.10,
              f"{dataset} detsan: on {ds[1]:.2f}s vs off {ds[0]:.2f}s "
              "(replay overhead must stay within x1.10)")
        if dataset not in base_ds:
            print(f"note {dataset} detsan: not in baseline, "
                  "overhead check only")
            continue
        bds = base_ds[dataset]
        if 1 not in bds:
            fail(f"{args.baseline}: series 'detsan_sim_s:{dataset}' has no "
                 "x=1 point -- regenerate the baseline")
        check(ds[1] <= bds[1] * args.sim_tol,
              f"{dataset} detsan: on sim {ds[1]:.2f}s vs baseline "
              f"{bds[1]:.2f}s (tol x{args.sim_tol})")

    if failures:
        print(f"\nperf gate: {len(failures)} regression(s)")
        return 1
    print("\nperf gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
