#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench JSON against the committed
baseline and fail CI when a gated metric regresses beyond tolerance.

Both files are the flat ``{"metric_name": number, ...}`` objects that
``micro_kernels --json-out`` and ``serve_throughput --json-out`` write
(``BENCH_kernels.json`` nests per-size GEMM rows, which are flattened to
``gemm_nn_square_n<N>_<field>``).

Which metrics gate, and in which direction, is inferred from the name:

* higher-is-better (fail when current < baseline * (1 - tolerance), default
  15%): any name containing an ``rps``, ``gflops``, ``speedup``, or
  ``agreement`` token, plus ``*_hit_rate``.
* lower-is-better (fail when current > baseline * factor, default 1.5x):
  any name containing an ``ms``, ``p50``/``p95``/``p99``, or ``mb`` token,
  plus ``*_abs_diff``.
* ``failures`` must be 0 in the current run, full stop.
* everything else (counts like ``*_items``, ``*_hits``, flags like
  ``built_with_avx2``) is reported but never gates — those move with
  scheduling noise, not performance.

Every baseline metric must be present in the current run, whatever its
direction: a metric the bench stopped emitting fails, so a gate cannot
vanish unnoticed. Deleting a metric means deleting it from the baseline in
the same change. A metric only the current run has is reported, not
failed, so a new metric can land before its baseline does.

Usage:
  tools/check_bench.py --baseline BENCH_serve.json \
      --current artifacts/BENCH_serve.json [--report out.txt] \
      [--drop-tolerance 0.15] [--growth-factor 1.5]
"""

import argparse
import json
import sys

HIGHER_BETTER_TOKENS = {"rps", "gflops", "speedup", "agreement"}
LOWER_BETTER_TOKENS = {"ms", "p50", "p95", "p99", "mb"}


def flatten(obj, prefix=""):
    """Flattens the bench JSON shapes into {name: float}.

    Dicts nest with ``_``; lists of row-objects (the GEMM table) key each
    row by its ``n`` field when present, else by index. Non-numeric leaves
    (e.g. the backend name string) are dropped.
    """
    flat = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            name = f"{prefix}_{key}" if prefix else key
            flat.update(flatten(value, name))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            tag = f"n{value['n']}" if isinstance(value, dict) and "n" in value \
                else str(i)
            flat.update(flatten(value, f"{prefix}_{tag}"))
    elif isinstance(obj, bool):
        pass  # flags never gate; keeping them as 0/1 would only confuse
    elif isinstance(obj, (int, float)):
        flat[prefix] = float(obj)
    return flat


def direction(name):
    if name == "failures":
        return "failures"
    # the "n" of a flattened GEMM row is a size label, not a measurement
    if name.endswith("_n"):
        return "info"
    tokens = set(name.split("_"))
    if tokens & HIGHER_BETTER_TOKENS or name.endswith("_hit_rate"):
        return "higher"
    if tokens & LOWER_BETTER_TOKENS or name.endswith("_abs_diff"):
        return "lower"
    return "info"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--report", help="also write the diff table here")
    parser.add_argument("--drop-tolerance", type=float, default=0.15,
                        help="allowed fractional drop for higher-is-better "
                             "metrics (default 0.15)")
    parser.add_argument("--growth-factor", type=float, default=1.5,
                        help="allowed growth factor for lower-is-better "
                             "metrics (default 1.5)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = flatten(json.load(f))
    with open(args.current) as f:
        current = flatten(json.load(f))

    lines = [f"bench diff: {args.current} vs baseline {args.baseline}",
             f"{'metric':<44} {'baseline':>12} {'current':>12} "
             f"{'ratio':>7}  verdict"]
    regressions = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None or cur is None:
            verdict = "only in current"
            if cur is None:
                verdict = "FAIL (missing from run)"
                regressions.append(f"{name}: in the baseline but missing "
                                   f"from the current run")
            lines.append(f"{name:<44} {'-' if base is None else f'{base:.6g}':>12} "
                         f"{'-' if cur is None else f'{cur:.6g}':>12} "
                         f"{'':>7}  {verdict}")
            continue
        ratio = cur / base if base != 0 else float("inf") if cur else 1.0
        kind = direction(name)
        verdict = "info"
        if kind == "failures":
            verdict = "ok" if cur == 0 else "FAIL"
            if cur != 0:
                regressions.append(f"{name}: current run reports "
                                   f"{cur:.0f} failure(s)")
        elif kind == "higher":
            if cur < base * (1.0 - args.drop_tolerance):
                verdict = "FAIL"
                regressions.append(
                    f"{name}: {cur:.6g} is a "
                    f"{(1.0 - ratio) * 100.0:.1f}% drop from {base:.6g} "
                    f"(tolerance {args.drop_tolerance * 100:.0f}%)")
            else:
                verdict = "ok"
        elif kind == "lower":
            if cur > base * args.growth_factor:
                verdict = "FAIL"
                regressions.append(
                    f"{name}: {cur:.6g} grew {ratio:.2f}x over {base:.6g} "
                    f"(limit {args.growth_factor:.2f}x)")
            else:
                verdict = "ok"
        lines.append(f"{name:<44} {base:>12.6g} {cur:>12.6g} "
                     f"{ratio:>7.3f}  {verdict}")

    report = "\n".join(lines) + "\n"
    if regressions:
        report += "\nREGRESSIONS:\n" + "\n".join(
            f"  - {r}" for r in regressions) + "\n"
    else:
        report += "\nno regressions beyond tolerance\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
