"""nclayer benchmark: strategy-table set-up, chain simulation and sweeps.

    python3 perfbench/run.py --workload forward-chain --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads (all on three hops at per-link delivery 0.7 unless noted):

  forward-chain  both relays forward, RLC coding, table ("spt") selection,
                 100 probes per GOP, strategy refreshed every GOP. Time goes
                 to sender encoding and end-to-end probing; nothing decodes.
  recode-chain   the same chain with both relays re-encoding. Time goes to
                 relay decode (gf_rref), best_restricted and re-encoding.
  sweep-par      sweep() over delivery 0.5..1.0 x NoNC3, NC3-E2E, NC3-HBH,
                 heuristic-3 with jobs=2: the only workload that runs the
                 uncoded baseline, threshold selection and the worker pool.

With ``--trace 0`` the end-to-end metrics are measured with nothing wrapped.
Times are CPU times (all threads, plus reaped child processes). On a shared
2-core VM raw CPU ms per GOP spread 3-27% over ten seeds, and its median
moved by up to 65% between two sets of ten runs (7.0 to 11.6 ms on
recode-chain), because each CPU's speed flips by up to 2x within seconds.
So table builds, run() calls and sweeps are scaled by ``SpeedProbes``,
one probe process per CPU sampling while they run; over the same ten seeds
the scaled figures spread 2-5%. Raw CPU and wall times are in the info
line.
  setup_s         on the chain workloads, the median scaled CPU time of two
                  ChainConfig + build_table(B=64, L=4, P=8, g=4) calls,
                  which every ``nclayer simulate`` pays; on every workload,
                  plus the median CPU time of a fresh-interpreter ``import
                  nclayer`` (child processes, not scaled: scaling did not
                  steady it).
  cpu_ms_per_gop  scaled CPU ms per simulated GOP: the median over
                  operations that repeat with fresh seeds until --seconds
                  have passed. On the chain workloads an operation is one
                  short run(config, table=...) call; on sweep-par it is one
                  whole sweep() including its own table build, over the
                  2400 GOPs it simulates. Being CPU time, it does not fall
                  when the sweep's pool overlaps work on two cores; the
                  traced ``simulator.sweep.cpu_per_wall`` shows that.
  peak_rss_mb     peak resident memory of this process plus its largest
                  reaped child, read before any probe process is reaped and
                  before the import probes start, so children count only
                  when the workload starts them.

With ``--trace 1`` a fixed amount of work (a table build and then 1000
GOPs on forward-chain or 300 on recode-chain; one sweep on sweep-par) is run
with every layer in ``tracer.LAYERS`` wrapped, so counts repeat exactly for
a seed; the GOPs and the sweep also run untraced, for the overhead.
Per-layer metrics are named ``<module>.<function>.<quantity>``; layers a
workload never reaches report 0. Span times are wall times: under the
sweep's two threads they include waiting for the interpreter lock.
``trace.overhead_ratio`` is traced over untraced CPU ms per GOP (CPU seconds
per sweep on sweep-par). The spans are written to ``.perfbench-out/``.
The kernel micro-benchmarks time
``gf_matmul`` at 128x128 . 128x256, ``gf_rref`` at 64x288 (32 unknowns) and
``expected_layers_batch`` over the 969 standard strategies at p=0.7.

The seed reaches the simulator only through ``ChainConfig.seed``. Every run
checks its outputs (``checks.py``); an operation (table build, run() call or
sweep row) that raises or fails a check counts as failed. The last line of
standard output is one JSON object; the line before it holds the
environment block, sample counts and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

LINK_PDR = 0.7
HOPS = 3
TABLE_ARGS = dict(budget=64, layer_count=4, packets_per_layer=8, granularity=4)
SETUP_REPEATS = 2
IMPORT_REPEATS = 9
MIN_CALLS = 3
# CPU seconds the probe loop takes at the reference speed: about its median
# on a 2-core x86-64 Linux VM with Python 3.11 and numpy 2.4.
PROBE_REF_S = 0.010
PROBE_PERIOD_S = 0.1
PROBE_NEAREST = 3
PROBE_MAX_CPUS = 8

CHAIN_WORKLOADS = {
    # relay mode, GOPs per run() call, run() calls in a traced run
    "forward-chain": ("forward", 50, 20),
    "recode-chain": ("nc", 20, 15),
}
SWEEP_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
SWEEP_MODES = ("NoNC3", "NC3-E2E", "NC3-HBH", "heuristic-3")
SWEEP_FORWARD_MODES = ("NoNC3", "NC3-E2E", "heuristic-3")
SWEEP_JOBS = 2
WORKLOADS = tuple(CHAIN_WORKLOADS) + ("sweep-par",)

END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_gop": "ms",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import time\n"
    "start, cpu = time.perf_counter(), time.process_time()\n"
    "import nclayer.simulator\n"
    "nclayer.simulator.ChainConfig(link_pdrs=(0.7, 0.7, 0.7))\n"
    "print(time.perf_counter() - start, time.process_time() - cpu)\n"
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "kernels.gf_matmul.bytes": "B",
        "kernels.gf_rref.bytes": "B",
        "codec.encode_gop.packets": "count",
        "codec.decode_gop.packets": "count",
        "channel.transmit.packets_in": "count",
        "channel.transmit.packets_out": "count",
        "channel.probe_abs_err": "pdr",
        "spt.strategy_switches": "count",
        "nodes.relay_decoded_depth_mean": "layers",
        "nodes.relay_zero_decodes": "count",
        "simulator.sweep.cpu_per_wall": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    for kernel in ("gf_matmul", "gf_rref", "expected_layers_batch"):
        units[f"kernels.{kernel}.bench_s"] = "s"
        units[f"kernels.{kernel}.bench_ops"] = "count"
        units[f"kernels.{kernel}.bench_bytes"] = "B"
    return units


def import_nclayer():
    """Imports the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "nclayer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nclayer package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nclayer

    if Path(nclayer.__file__).resolve().parent != (SRC / "nclayer").resolve():
        raise SystemExit(f"perfbench: imported nclayer from {nclayer.__file__}, not {SRC}")
    return nclayer


class Outcome:
    """Counts top-level operations and keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)
        return not failures

    def call(self, fn, *args, **kwargs):
        """Runs one operation; returns its result, or None if it raised."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.record([f"operation raised {exc!r}"])
            return None


def derived_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def summary(samples: list[float]) -> dict:
    """Median, quartiles, and the highest order statistic with at least ten
    samples above it."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if len(ordered) >= 11:
        rank = len(ordered) - 11
        out[f"p{100 * (rank + 1) // len(ordered)}"] = ordered[rank]
    return out


def import_seconds() -> list[tuple[float, float]]:
    """Fresh-interpreter (wall, cpu) import time of the package, one sample
    per child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, cpu = done.stdout.split()[-2:]
        samples.append((float(wall), float(cpu)))
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    """CPU time of every thread of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedProbes:
    """One ``probe.py`` process pinned to each usable CPU (at most
    PROBE_MAX_CPUS), sampling the machine's speed while the workload runs.

    The speed of this VM's CPUs flips by up to 2x within seconds, and each
    CPU on its own. A probe timed on the calling thread right before and
    after an operation tracks a short run() call, but not a sweep or table
    build that takes seconds, and a probe thread running during the
    operation competes with the program's own threads for the interpreter
    lock, so its reading would change with the program's threading. Probe
    processes need no share of that lock, and they time their own thread CPU
    time, so waiting for a CPU the program keeps busy is not counted.
    ``scale`` compares the probe loop's CPU time during an operation,
    averaged over the CPUs, with PROBE_REF_S.
    """

    def __init__(self):
        self._procs: list[subprocess.Popen] = []
        self._samples: list[list[tuple[float, float]]] = []

    def __enter__(self):
        cpus = sorted(os.sched_getaffinity(0))[:PROBE_MAX_CPUS]
        script = Path(__file__).resolve().parent / "probe.py"
        for cpu in cpus:
            self._procs.append(subprocess.Popen(
                [sys.executable, str(script), str(PROBE_PERIOD_S), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        if any(proc.stdout.readline().strip() != "ready" for proc in self._procs):
            self.__exit__()
            raise SystemExit("perfbench: a speed probe process failed to start")
        return self

    def stop(self):
        """Ends the probes and collects their samples."""
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            out = proc.stdout.read()
            proc.wait()
            self._samples.append([tuple(map(float, line.split())) for line in out.splitlines()])

    def __exit__(self, *exc):
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean probe time from start to end (monotonic
        clock), taking at least the PROBE_NEAREST nearest samples per CPU."""

        def gap(t):
            return max(start - t, t - end, 0.0)

        means = []
        for samples in self._samples:
            ordered = sorted(samples, key=lambda sample: gap(sample[0]))
            inside = sum(1 for t, _ in ordered if gap(t) == 0.0)
            means.append(statistics.fmean(s for _, s in ordered[:max(inside, PROBE_NEAREST)]))
        return PROBE_REF_S / statistics.fmean(means)


def timed(fn):
    """Calls fn; returns (result, wall, cpu, start), with start on the
    monotonic clock and times in seconds."""
    cpu0 = cpu_seconds()
    start = time.monotonic()
    result = fn()
    wall = time.monotonic() - start
    return result, wall, cpu_seconds() - cpu0, start


def build_checked_table(outcome: Outcome):
    """One ChainConfig + build_table, checked; returns what ``timed`` does,
    with the table replaced by None if it fails its check, or None if the
    build raised."""
    from nclayer import simulator, spt
    from checks import check_table

    def build():
        simulator.ChainConfig(link_pdrs=(LINK_PDR,) * HOPS)
        return spt.build_table(**TABLE_ARGS)

    result = outcome.call(timed, build)
    if result is not None and not outcome.record(check_table(result[0])):
        return (None, *result[1:])
    return result


def chain_config(workload: str, seed: int, index: int):
    from nclayer.simulator import ChainConfig

    relay_mode, gops, _ = CHAIN_WORKLOADS[workload]
    return ChainConfig(
        link_pdrs=(LINK_PDR,) * HOPS,
        relay_modes=(relay_mode,) * (HOPS - 1),
        scheme="rlc",
        selection="spt",
        probe_count=100,
        update_period=1,
        gop_count=gops,
        seed=derived_seed(seed, index),
        **TABLE_ARGS,
    )


def timed_chain_call(workload: str, config, table, outcome: Outcome):
    """One checked run() call; returns (wall, cpu, start) as ``timed`` does,
    or None on failure."""
    from nclayer import simulator
    from checks import check_forward_pdr, check_recode_audl

    result = outcome.call(timed, lambda: simulator.run(config, table=table))
    if result is None:
        return None
    metrics, *times = result
    if CHAIN_WORKLOADS[workload][0] == "forward":
        failures = check_forward_pdr(metrics, LINK_PDR, HOPS)
    else:
        failures = check_recode_audl(metrics, table)
    return times if outcome.record(failures) else None


def sweep_base(seed: int):
    from nclayer.simulator import ChainConfig

    return ChainConfig(
        link_pdrs=(LINK_PDR,) * HOPS,
        relay_modes=("forward",) * (HOPS - 1),
        seed=seed,
        **TABLE_ARGS,
    )


def timed_sweep(base, outcome: Outcome):
    """One checked sweep(); returns (wall, cpu, start) as ``timed`` does, or
    None on failure."""
    from nclayer import simulator
    from checks import check_sweep_order, check_sweep_row

    def call():
        return simulator.sweep(base, SWEEP_GRID, SWEEP_MODES, jobs=SWEEP_JOBS)

    rows_expected = len(SWEEP_GRID) * len(SWEEP_MODES)
    try:
        rows, *times = timed(call)
    except Exception as exc:  # a failing sweep fails all of its rows
        traceback.print_exc(file=sys.stderr)
        for _ in range(rows_expected):
            outcome.record([f"sweep raised {exc!r}"])
        return None
    order = check_sweep_order(rows, SWEEP_GRID, SWEEP_MODES)
    ok = True
    for i in range(max(len(rows), rows_expected)):
        failures = list(order)
        if i < len(rows):
            failures += check_sweep_row(rows[i], base, SWEEP_FORWARD_MODES, "NoNC3")
        ok = outcome.record(failures) and ok
    return times if ok else None


def measure(workload: str, seed: int, seconds: float, outcome: Outcome, info: dict) -> dict:
    """Untraced end-to-end metrics."""
    builds = []  # (wall, cpu, start) per table build
    ops = []  # (wall, cpu, start) per run() call or sweep
    with SpeedProbes() as probes:
        if workload in CHAIN_WORKLOADS:
            table = None
            for _ in range(SETUP_REPEATS):
                result = build_checked_table(outcome)
                if result is not None:
                    table, *times = result
                    builds.append(times)
            if not builds:
                raise SystemExit("perfbench: every table build raised; nothing to report")
            gops = CHAIN_WORKLOADS[workload][1]
            start = time.monotonic()
            index = 0
            while table is not None and (
                index < MIN_CALLS or time.monotonic() - start < seconds
            ):
                times = timed_chain_call(workload, chain_config(workload, seed, index), table, outcome)
                if times is not None:
                    ops.append(times)
                index += 1
        else:
            base = sweep_base(seed)
            gops = len(SWEEP_GRID) * len(SWEEP_MODES) * base.gop_count
            start = time.monotonic()
            while not ops or time.monotonic() - start < seconds:
                times = timed_sweep(base, outcome)
                if times is None:
                    break
                ops.append(times)
        # Read while the probe processes still run and before the import
        # probes below start, so that only children the workload starts count.
        rss = peak_rss_mb()
        probes.stop()
    if not ops:
        raise SystemExit("perfbench: no operation completed; nothing to report")

    def scaled_cpu(times):
        wall, cpu, start = times
        return cpu * probes.scale(start, start + wall)

    imports = import_seconds()
    info["import_s"] = summary([w for w, _ in imports])
    info["import_cpu_s"] = summary([c for _, c in imports])
    setup = statistics.median(c for _, c in imports)
    if builds:
        info["build_s"] = summary([b[0] for b in builds])
        info["build_cpu_s"] = summary([b[1] for b in builds])
        setup += statistics.median(scaled_cpu(b) for b in builds)
    info["ms_per_gop"] = summary([1e3 * op[0] / gops for op in ops])
    info["cpu_ms_per_gop"] = summary([1e3 * op[1] / gops for op in ops])
    values = {
        "setup_s": setup,
        "cpu_ms_per_gop": statistics.median(1e3 * scaled_cpu(op) / gops for op in ops),
        "peak_rss_mb": rss,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def kernel_bench(seed: int) -> dict:
    """Micro-benchmarks of the three kernels on fixed shapes: median seconds
    per call, operation count and bytes moved, both computed from shapes."""
    import numpy as np
    from nclayer import kernels, spt

    rng = np.random.default_rng(seed)
    out = {}

    def median_seconds(fn, repeat):
        fn()
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    coeffs = rng.integers(0, 256, (128, 128), dtype=np.uint8)
    data = rng.integers(0, 256, (128, 256), dtype=np.uint8)
    if hasattr(kernels, "gf_matmul"):
        out["gf_matmul"] = (
            median_seconds(lambda: kernels.gf_matmul(coeffs, data), 5),
            128 * 128 * 256,
            coeffs.nbytes + data.nbytes + 128 * 256,
        )

    aug = rng.integers(0, 256, (64, 288), dtype=np.uint8)
    if hasattr(kernels, "gf_rref"):
        rank = int(np.count_nonzero(kernels.gf_rref(aug.copy(), 32) >= 0))
        out["gf_rref"] = (
            median_seconds(lambda: kernels.gf_rref(aug.copy(), 32), 5),
            rank * aug.shape[0] * aug.shape[1],
            2 * aug.nbytes,
        )

    strategies = np.asarray(spt.enumerate_strategies(64, 4, 4), dtype=np.int64)
    pmf = np.zeros((65, 65))
    for n in range(65):
        for r in range(n + 1):
            pmf[n, r] = math.comb(n, r) * 0.7**r * 0.3 ** (n - r)
    if hasattr(kernels, "expected_layers_batch"):
        states = 4 * 8 + 1
        # Forward pass over classes 1..L, backward over classes 2..L; each
        # binomial outcome r touches every deficit state once.
        steps = int((strategies + 1).sum() + (strategies[:, 1:] + 1).sum())
        out["expected_layers_batch"] = (
            median_seconds(lambda: kernels.expected_layers_batch(strategies, pmf, 8), 3),
            steps * states,
            strategies.nbytes + pmf.nbytes + 8 * len(strategies),
        )

    metrics = {}
    for kernel in ("gf_matmul", "gf_rref", "expected_layers_batch"):
        s, ops, moved = out.get(kernel, (0.0, 0, 0))
        metrics[f"kernels.{kernel}.bench_s"] = s
        metrics[f"kernels.{kernel}.bench_ops"] = ops
        metrics[f"kernels.{kernel}.bench_bytes"] = moved
    return metrics


def measure_traced(workload: str, seed: int, outcome: Outcome, info: dict) -> dict:
    """Fixed work, once untraced and once traced; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    values = {"simulator.sweep.cpu_per_wall": 0.0}
    if workload in CHAIN_WORKLOADS:
        with tracer.active():
            table = (build_checked_table(outcome) or (None,))[0]
        if table is None:
            raise SystemExit("perfbench: strategy table failed; nothing to trace")
        plain, traced = [], []
        for index in range(CHAIN_WORKLOADS[workload][2]):
            config = chain_config(workload, seed, index)
            plain.append(timed_chain_call(workload, config, table, outcome))
            with tracer.active():
                traced.append(timed_chain_call(workload, config, table, outcome))
        if None in plain or None in traced:
            raise SystemExit("perfbench: a traced run failed; see the messages above")
        gops = CHAIN_WORKLOADS[workload][1]
        for key, runs in (("", plain), ("_traced", traced)):
            info["ms_per_gop" + key] = summary([1e3 * t[0] / gops for t in runs])
            info["cpu_ms_per_gop" + key] = summary([1e3 * t[1] / gops for t in runs])
        overhead = info["cpu_ms_per_gop_traced"]["median"] / info["cpu_ms_per_gop"]["median"]
    else:
        base = sweep_base(seed)
        plain = timed_sweep(base, outcome)
        with tracer.active():
            traced = timed_sweep(base, outcome)
        if plain is None or traced is None:
            raise SystemExit("perfbench: a traced sweep failed; see the messages above")
        info["sweep_s"], info["sweep_s_traced"] = plain[0], traced[0]
        info["sweep_cpu_s"], info["sweep_cpu_s_traced"] = plain[1], traced[1]
        values["simulator.sweep.cpu_per_wall"] = plain[1] / plain[0]
        overhead = traced[1] / plain[1]
    values["trace.overhead_ratio"] = overhead

    for layer, entry in tracer.layer_totals().items():
        for quantity, value in entry.items():
            values[f"{layer}.{quantity}"] = value
    counters = tracer.counters
    values["channel.probe_abs_err"] = counters["channel.probe_abs_err.sum"] / max(
        counters["channel.probe_abs_err.n"], 1
    )
    values["nodes.relay_decoded_depth_mean"] = counters["nodes.relay_decoded_depth.sum"] / max(
        counters["nodes.relay_decoded_depth.n"], 1
    )
    for key in (
        "kernels.gf_matmul.bytes",
        "kernels.gf_rref.bytes",
        "codec.encode_gop.packets",
        "codec.decode_gop.packets",
        "channel.transmit.packets_in",
        "channel.transmit.packets_out",
        "spt.strategy_switches",
        "nodes.relay_zero_decodes",
    ):
        values[key] = counters[key]
    values.update(kernel_bench(seed))

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_path)
    info["trace_file"] = str(trace_path.relative_to(ROOT))
    info["spans"] = len(tracer.spans)
    info["absent_layers"] = tracer.absent
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def environment(nclayer, seed: int) -> dict:
    import numpy as np

    kernels = nclayer.kernels
    return {
        "backend": getattr(kernels, "BACKEND", None),
        "has_numba": getattr(kernels, "HAS_NUMBA", None),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    nclayer = import_nclayer()
    outcome = Outcome()
    info = {"workload": args.workload, "environment": environment(nclayer, args.seed)}
    if args.trace:
        metrics = measure_traced(args.workload, args.seed, outcome, info)
    else:
        metrics = measure(args.workload, args.seed, args.seconds, outcome, info)
    info["failures"] = outcome.messages[:20]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
