#!/usr/bin/env python3
"""Perf-regression gate for the BENCH_*.json envelopes.

Compares a freshly produced bench JSON against the committed baseline.

Absolute mode (default, for local/dev-container runs where the baseline was
recorded on the same hardware) fails (exit 1) when:

  * any row matched between baseline and candidate slowed down by more than
    --max-slowdown (default 0.35 = 35%) on any ``*_ms`` field whose baseline
    value is at least --min-ms (tiny rows are all timer noise), or
  * any correctness flag (``identical``, ``match``, ``deterministic``,
    ``eig_n128_blocked_wins``, ``bounded_rss`` — the last asserting the
    streaming engine's flat-RSS claim across a 10x run-length increase) is
    false in the candidate — per row or top-level, regardless of the
    baseline, or
  * a baseline row has no matching candidate row (coverage regression).

Ratio mode (``--ratios-only``, used by the GitHub ``bench`` job) ignores the
absolute ``*_ms`` fields entirely — shared-runner hardware is not the
hardware the baselines were recorded on, so absolute timings only flake.
Instead it gates on what stays meaningful across machines:

  * ratio columns (``speedup``, ``speedup_*``, ``*_ratio``), per row and
    top-level: a candidate ratio falling below
    baseline * (1 - --max-ratio-drop) (default 0.5 = may halve) fails —
    catching e.g. the batched engine collapsing back to legacy speed or the
    blocked linalg kernels losing their lead over the reference ones. Rows whose
    baseline ``*_ms`` fields all sit below --min-ms are skipped: a ratio of
    two sub-noise-floor timings is itself timer noise, and

  * the same correctness-flag and missing-row checks as absolute mode.

Rows are matched on the stable identity fields (``kernel``, ``emission``,
``threads``, ``n``); extra candidate rows (new coverage) only warn. Extra
fields are ignored by the gate. Observability fields the benches emit —
``events_per_sec``/``max_rss_kb`` row columns and the run-scoped ``obs``
metrics snapshot (see src/qfc/obs/README.md) — are *surfaced* as info lines
but never gated: they are context for reading a regression, not a gate.
The same holds for ``nproc``, the host's hardware thread count each bench
envelope records: an info line names the baseline's and the candidate's
(``not recorded`` for a baseline written before the field existed), so a
reader can tell when the two ran on different core counts. It never gates.
stdlib only — runs anywhere python3 exists.

Usage:
  scripts/check_bench.py BASELINE CANDIDATE [--max-slowdown 0.35]
      [--min-ms 1.0] [--ratios-only] [--max-ratio-drop 0.5]

CI wiring (.github/workflows/ci.yml, ``bench`` job): the smoke benches write
fresh envelopes under build/ and this script gates them with --ratios-only
against the committed repo-root baselines. The same knobs are documented in
the benches' ``--help``.
"""

import argparse
import json
import sys

KEY_FIELDS = ("kernel", "emission", "mode", "threads", "n")
FLAG_FIELDS = (
    "identical",
    "match",
    "deterministic",
    "eig_n128_blocked_wins",
    "bounded_rss",
)


def row_key(row):
    return tuple((k, row[k]) for k in KEY_FIELDS if k in row)


def fmt_key(key):
    return ", ".join(f"{k}={v}" for k, v in key) or "<unkeyed>"


def is_ratio_field(name):
    return name == "speedup" or name.startswith("speedup_") or name.endswith("_ratio")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")
    if "rows" not in doc or not isinstance(doc["rows"], list):
        sys.exit(f"check_bench: {path} has no rows array")
    return doc


def has_solid_timing(row, min_ms):
    """True when the row's ratios rest on timings above the noise floor: at
    least one baseline ``*_ms`` field reaches min_ms (a ratio of two
    microsecond-scale timings is as noisy as the timings themselves). Rows
    carrying no ``*_ms`` fields at all (e.g. the top-level envelope, whose
    ratios summarize well-timed rows) pass."""
    ms_fields = [
        v
        for k, v in row.items()
        if k.endswith("_ms") and isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    return not ms_fields or any(v >= min_ms for v in ms_fields)


def compare_fields(key_label, brow, crow, args, errors):
    """Per-field gate for one matched baseline/candidate row pair (also used
    for the top-level envelope members, with key_label = '<top-level>')."""
    ratio_rows_gated = has_solid_timing(brow, args.min_ms)
    for field, bval in brow.items():
        if not isinstance(bval, (int, float)) or isinstance(bval, bool):
            continue
        cval = crow.get(field)
        if not isinstance(cval, (int, float)) or isinstance(cval, bool):
            continue
        if args.ratios_only:
            if not is_ratio_field(field) or bval <= 0 or not ratio_rows_gated:
                continue
            drop = 1.0 - cval / bval
            if drop > args.max_ratio_drop:
                errors.append(
                    f"row [{key_label}]: {field} {bval:.3f} -> {cval:.3f} "
                    f"(-{100.0 * drop:.0f}% > {100.0 * args.max_ratio_drop:.0f}%)"
                )
        else:
            if not field.endswith("_ms") or bval < args.min_ms:
                continue  # non-timing or sub-threshold (timer noise) field
            slowdown = cval / bval - 1.0
            if slowdown > args.max_slowdown:
                errors.append(
                    f"row [{key_label}]: {field} {bval:.3f} -> {cval:.3f} ms "
                    f"(+{100.0 * slowdown:.0f}% > {100.0 * args.max_slowdown:.0f}%)"
                )


def surface_observability(cand):
    """Render the candidate's non-gated observability fields as info lines:
    throughput/RSS ranges across rows plus a one-line digest of the embedded
    ``obs`` metrics snapshot. Purely informational — never produces errors."""
    lines = []
    eps = [
        r["events_per_sec"]
        for r in cand["rows"]
        if isinstance(r.get("events_per_sec"), (int, float))
        and not isinstance(r.get("events_per_sec"), bool)
    ]
    if eps:
        lines.append(
            f"throughput {min(eps):,.0f} .. {max(eps):,.0f} events/s across "
            f"{len(eps)} rows"
        )
    rss = [
        r["max_rss_kb"]
        for r in cand["rows"]
        if isinstance(r.get("max_rss_kb"), (int, float))
        and not isinstance(r.get("max_rss_kb"), bool)
    ]
    top_rss = cand.get("max_rss_kb")
    if isinstance(top_rss, (int, float)) and not isinstance(top_rss, bool):
        rss.append(top_rss)
    if rss:
        lines.append(f"peak RSS {max(rss):,.0f} KB")
    obs = cand.get("obs")
    if isinstance(obs, dict):
        counters = obs.get("counters") or {}
        if obs.get("enabled") and counters:
            busy = sum(
                v for k, v in counters.items() if k.startswith("parallel.worker_busy_ns.")
            )
            digest = f"obs snapshot: {len(counters)} counters"
            if busy:
                digest += f", total worker busy {busy / 1e6:,.0f} ms"
            flops = sum(v for k, v in counters.items() if k.endswith(".gemm.flops"))
            if flops:
                digest += f", {flops:,} gemm flops"
            lines.append(digest)
        else:
            lines.append("obs snapshot present but disabled (set QFC_OBS_METRICS)")
    return lines


def nproc_line(base, cand):
    """Info line with the baseline's and the candidate's ``nproc``."""

    def fmt(doc):
        v = doc.get("nproc")
        return str(v) if isinstance(v, int) and not isinstance(v, bool) else "not recorded"

    return f"nproc baseline {fmt(base)}, candidate {fmt(cand)}"


def check(args):
    base = load(args.baseline)
    cand = load(args.candidate)
    errors = []
    warnings = []

    cand_rows = {}
    for row in cand["rows"]:
        cand_rows[row_key(row)] = row

    # Correctness flags must hold in the candidate no matter what the
    # baseline says — a flipped flag is a bug, not a perf regression.
    for name in FLAG_FIELDS:
        if cand.get(name) is False:
            errors.append(f"top-level flag '{name}' is false in {args.candidate}")
    for key, row in cand_rows.items():
        for name in FLAG_FIELDS:
            if row.get(name) is False:
                errors.append(f"row [{fmt_key(key)}]: flag '{name}' is false")

    matched = 0
    for brow in base["rows"]:
        key = row_key(brow)
        crow = cand_rows.get(key)
        if crow is None:
            errors.append(f"row [{fmt_key(key)}] missing from {args.candidate}")
            continue
        matched += 1
        compare_fields(fmt_key(key), brow, crow, args, errors)
    if args.ratios_only:
        # Top-level ratio members (speedup_n10, ...) gate too.
        compare_fields("<top-level>", base, cand, args, errors)

    base_keys = {row_key(r) for r in base["rows"]}
    for key in cand_rows:
        if key not in base_keys:
            warnings.append(f"row [{fmt_key(key)}] is new (not in baseline)")

    name = base.get("bench", args.baseline)
    for line in [nproc_line(base, cand)] + surface_observability(cand):
        print(f"check_bench[{name}]: info: {line}")
    for w in warnings:
        print(f"check_bench[{name}]: warning: {w}")
    for e in errors:
        print(f"check_bench[{name}]: FAIL: {e}")
    if not errors:
        if args.ratios_only:
            print(
                f"check_bench[{name}]: OK — {matched} matched rows, ratio columns "
                f"within {100.0 * args.max_ratio_drop:.0f}% of baseline, all flags true"
            )
        else:
            print(
                f"check_bench[{name}]: OK — {matched} matched rows within "
                f"{100.0 * args.max_slowdown:.0f}% of baseline, all flags true"
            )
    return not errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("candidate", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=0.35,
        help="maximum allowed per-row relative slowdown (default 0.35 = 35%%)",
    )
    parser.add_argument(
        "--min-ms",
        type=float,
        default=1.0,
        help="ignore *_ms fields whose baseline value is below this (noise floor)",
    )
    parser.add_argument(
        "--ratios-only",
        action="store_true",
        help="gate on speedup/ratio columns and correctness flags instead of "
        "absolute ms (for CI runners whose hardware differs from the baseline's)",
    )
    parser.add_argument(
        "--max-ratio-drop",
        type=float,
        default=0.5,
        help="with --ratios-only: maximum allowed relative drop of a ratio "
        "column vs baseline (default 0.5 = the ratio may halve)",
    )
    args = parser.parse_args()
    sys.exit(0 if check(args) else 1)


if __name__ == "__main__":
    main()
