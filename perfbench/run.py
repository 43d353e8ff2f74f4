#!/usr/bin/env python3
"""Benchmark for hypertree-lab.

    python3 perfbench/run.py --workload bound_sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One workload runs per process, single-threaded.  With
``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of the same items.  ``--workload all`` runs every workload
both ways in fresh child processes and prints the tracing overhead.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; every run also writes a record to
``perfbench/out/``.

``--seconds`` sets the amount of work, not a deadline: a pass holds
ceil(seconds / (passes * nominal round time)) rounds of its workload, with
the nominal times measured on a 2-core host under Python 3.11.  The parent
commit and a change therefore run identical items.  An untraced run makes
two or three passes over the same items, each group of items starting from
empty library memos and a freshly built input.  Every item is timed at
reference host speed (``hostspeed.py``), and ``wall_ref_s`` sums every
item's best time over the passes.  A traced run makes one pass.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

PACKAGE = "hypertree_lab"
SETUP_PROBES = 7
HOST_PROBES = 200     # host-speed probes at the start and the end of a run
HOST_PROBES_SETUP = 5  # ... and at the start and end of a set-up process
P90_MIN_ITEMS = 100   # the 90th percentile needs at least 10 items beyond it

# Single-threaded: set before numpy (imported by checks) loads its BLAS;
# child processes inherit it.
os.environ.pop("HYPERTREE_LAB_THREADS", None)
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path.insert(0, HERE)
import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def import_library() -> SimpleNamespace:
    sys.path.insert(0, SRC)
    import hypertree_lab
    from hypertree_lab import (cli, constructions, fields, garland, linalg,
                               reports, simplexes)
    if not os.path.abspath(hypertree_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: hypertree_lab imported from {hypertree_lab.__file__}")
    return SimpleNamespace(cli=cli, constructions=constructions, fields=fields,
                           garland=garland, linalg=linalg, reports=reports,
                           simplexes=simplexes)


def host_speed() -> float:
    """Median time of the host-speed probe; it tracks the host, not the program."""
    return statistics.median(hostspeed.probe() for _ in range(HOST_PROBES))


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up time: fresh processes that start Python, import the library and
    run the warm-up, timed from spawn to exit.  Each process times the
    host-speed probe at its start and end and prints the times; they are
    taken out of its wall time, which is then scaled to reference speed.
    Returns the wall times and the scaled times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload]
    walls, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        t = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        probes = json.loads(proc.stdout.strip().splitlines()[-1])
        wall = t - sum(probes)
        walls.append(wall)
        scaled.append(wall * hostspeed.REF_PROBE_S * hostspeed.speed(probes))
    return walls, scaled


def library_memos() -> list:
    """Every functools memo held at module level by the library."""
    memos = {}
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(value, "__module__", "").startswith(PACKAGE):
                memos[id(value)] = value
    return list(memos.values())


def run_workload(args) -> int:
    speed_start = host_speed()
    make_groups, warmup, round_s, passes, figures = workloads.WORKLOADS[args.workload]
    setup, setup_ref = ([], []) if args.trace else measure_setup(args.workload)
    lib = import_library()
    warmup(lib)
    memos = library_memos()
    rounds = max(1, math.ceil(args.seconds / (passes * round_s)))
    if args.trace:
        passes = 1
    route = checks.ColumnRoute(lib.linalg.rank_by_columns)
    groups = make_groups(lib, args.seed, rounds, route)
    items = [item for group in groups for item in group.items]

    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    outputs = [None] * len(items)
    walls = [[] for _ in items]      # per item, its wall time in every pass
    scaled = [[] for _ in items]     # the same at reference host speed
    errors, wrong = [], []
    bad = set()
    with hostspeed.Sampler(None if tracer else hostspeed.INTERVAL_S) as timer:
        for p in range(passes):
            i = 0
            for group in groups:
                x = group.make()
                if tracer:
                    tracer.clear_memos(memos)
                else:
                    for memo in memos:
                        memo.cache_clear()
                for item in group.items:
                    out, t, t_ref = timer.time(item.call, x)
                    walls[i].append(t)
                    scaled[i].append(t_ref)
                    if isinstance(out, BaseException):  # an operation that failed
                        bad.add(i)
                        errors.append(f"pass {p} {item.label}: "
                                      f"{type(out).__name__}: {out}")
                        out = None
                    if p == 0:
                        outputs[i] = out
                    elif out is not None and outputs[i] is not None \
                            and out != outputs[i]:
                        bad.add(i)
                        wrong.append(f"{item.label}: pass {p} output differs from pass 0")
                    i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.stop()
        tracer.uninstall()
    speed_end = host_speed()
    pass_walls = [sum(w[p] for w in walls) for p in range(passes)]
    pass_refs = [sum(s[p] for s in scaled) for p in range(passes)]
    wall = sum(min(w) for w in walls)
    times = [min(s) for s in scaled]
    wall_ref = sum(times)

    for i, (item, out) in enumerate(zip(items, outputs)):
        problems = item.check(out) if out is not None else []
        wrong.extend(f"{item.label}: {p}" for p in problems)
        if problems:
            bad.add(i)
    failed = len(bad)

    lines = [
        f"workload {args.workload} seed {args.seed} rounds {rounds} items {len(items)} "
        f"passes {passes} trace {args.trace}",
        "pass walls s " + " ".join(f"{w:.4f}" for w in pass_walls)
        + ", at reference speed " + " ".join(f"{w:.4f}" for w in pass_refs),
        f"host probe ms start {1000 * speed_start:.4f} end {1000 * speed_end:.4f}, "
        f"reference {1000 * hostspeed.REF_PROBE_S:.4f} (host speed, not a metric)",
    ]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "passes": passes,
              "host_probe_s": [speed_start, speed_end], "wall_s": wall,
              "pass_walls_s": pass_walls, "pass_ref_s": pass_refs,
              "setup_walls_s": setup,
              "setup_ref_s": setup_ref, "item_walls_s": walls,
              "item_ref_s": scaled, "errors": errors, "wrong": wrong}
    if tracer:
        self_sum = tracer.self_time_sum()
        metrics = tracer.metrics()
        lines.append(f"traced wall_s {wall:.4f}  layer self-time sum {self_sum:.4f} s "
                     f"({100.0 * self_sum / wall:.1f}% of traced wall)")
        record["self_sum_s"] = self_sum
    else:
        lines.append("setup wall s " + " ".join(f"{t:.4f}" for t in setup))
        lines.append("setup at reference speed s "
                     + " ".join(f"{t:.4f}" for t in setup_ref))
        # printed, not gated: wall time as met, and item percentiles, which
        # across seeds spread more than a bound can hold
        lines.append(f"wall_s {wall:.4f} s (best pass per item, as met)")
        lines.append(f"item_p50_ms {1000.0 * statistics.median(times):.3f} ms "
                     "(at reference speed)")
        if len(times) >= P90_MIN_ITEMS:
            p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
            lines.append(f"item_p90_ms {1000.0 * p90:.3f} ms "
                         f"(at reference speed, over {len(times)} items)")
        metrics = {
            "wall_ref_s": (wall_ref, "s"),
            "setup_s": (statistics.median(setup_ref), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}" if isinstance(value, float)
                     else f"{name} {value} {unit}")
    if not failed:
        lines.extend(figures(outputs))
    lines.append(f"attempted {len(items)} failed {failed}")
    lines.extend(f"ERROR {e}" for e in errors)
    lines.extend(f"WRONG {w}" for w in wrong)

    result = {"correct": not wrong, "attempted": len(items), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["result"] = result
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    status = 0
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in workloads.WORKLOADS:
        walls = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if not lines:
                correct = False
                continue
            res = json.loads(lines[-1])
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for m, v in res["metrics"].items():
                metrics[f"{name}.{m}"] = v
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                walls[trace] = statistics.median(json.load(fh)["pass_ref_s"])
        if len(walls) == 2:
            print(f"{name}: tracing overhead {walls[1] - walls[0]:.4f} s at reference "
                  f"speed (traced pass {walls[1]:.4f} s, untraced median pass "
                  f"{walls[0]:.4f} s)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return status


def setup_probe(workload: str) -> int:
    probes = [hostspeed.probe() for _ in range(HOST_PROBES_SETUP)]
    warmup = workloads.WORKLOADS[workload][1]
    warmup(import_library())
    probes += [hostspeed.probe() for _ in range(HOST_PROBES_SETUP)]
    print(json.dumps(probes))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypertree_lab", "__init__.py")):
        print(f"error: no hypertree_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
