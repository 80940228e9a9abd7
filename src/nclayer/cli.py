"""Command-line entry point.

Exit codes: 0 success, 1 validation/config error, 2 self-test failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time

from .config import ConfigError, apply_overrides, load_config
from .selftest import run_selftest
from .simulator import (
    ChainConfig,
    CSV_HEADER,
    append_row,
    format_row,
    metrics_row,
    read_rows,
    run,
    sweep,
    write_rows,
)
from .spt import PDR_BINS, build_table, save_table

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this artifact reserves 2 for
    self-test failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_base_config(args) -> ChainConfig:
    config = load_config(args.config) if args.config else ChainConfig()
    # --seed goes last, so it wins over run.seed, and is refused as run.seed
    pairs = (args.set or []) + ([] if args.seed is None else [f"run.seed={args.seed}"])
    return apply_overrides(config, pairs)


def _parse_grid(text: str) -> tuple[float, ...]:
    if text.strip().lower() == "bins":
        return PDR_BINS
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --pdr-grid value {text!r}: {exc}") from exc


def cmd_spt_build(args) -> int:
    # a path the table cannot be written to is refused before the build
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    start = time.perf_counter()
    table = build_table(
        budget=args.budget,
        layer_count=args.layers,
        packets_per_layer=args.packets,
        granularity=args.gran,
    )
    duration = time.perf_counter() - start
    print(f"built {len(table.strategies)}-strategy table in {duration:.2f} s")
    for b, p in enumerate(table.pdr_bins):
        i = int(table.best_index[b])
        print(f"p={p:.2f} best={table.strategies[i]} value={table.values[i, b]:.6f}")
    save_table(table, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_base_config(args)
    if args.out:
        # a file the row cannot be appended to is refused before the run
        read_rows(args.out)
    metrics = run(config)
    print(f"label: {metrics.label}")
    print(f"hops: {metrics.hop_count}")
    print(f"sent: {metrics.sent_total}")
    print(f"received: {metrics.npr}")
    print(f"probes: {metrics.probe_packets}")
    print(f"pdr: {metrics.measured_pdr:.6f}")
    print(f"audl: {metrics.audl:.6f}")
    print(f"delay: {metrics.total_delay:.6f}")
    if args.out:
        append_row(metrics_row(metrics), args.out)
    return 0


def cmd_sweep(args) -> int:
    config = _load_base_config(args)
    grid = _parse_grid(args.pdr_grid)
    modes = [m for m in args.modes.split(",") if m.strip()]
    if args.out:
        # a path the rows cannot be written to is refused before the sweep
        read_rows(args.out)
    rows = sweep(config, grid, modes, reps=args.reps, jobs=args.jobs)
    if args.out:
        write_rows(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(CSV_HEADER)
        for row in rows:
            print(format_row(row))
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    failures = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nclayer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spt-build", help="precompute a strategy table")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--packets", type=int, default=8)
    p.add_argument("--gran", type=int, default=4)
    p.add_argument("--out", default="spt_table.txt")
    p.set_defaults(func=cmd_spt_build)

    p = sub.add_parser("simulate", help="run one chain configuration")
    p.add_argument("--config", default=None, help="key = value run description")
    p.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a config key"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV file to append the result row to")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a pdr grid x mode matrix")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--pdr-grid",
        default="bins",
        help="comma-separated probabilities, or 'bins' for the standard 20",
    )
    p.add_argument(
        "--modes",
        default="spt",
        help="comma-separated: NoNC<k>, NC<k>[-E2E|-HBH[<m>]], heuristic-<s>, spt",
    )
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV file (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in diagnostic suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"nclayer: config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"nclayer: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
