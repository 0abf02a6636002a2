#!/usr/bin/env python3
"""In-process benchmark of the ``torelli`` CLI verbs.

Every query is one call to ``torelli.cli.main(argv)`` with stdout and
stderr captured, made from one process and one thread.  A run builds its
workload's inputs from the seed, times one cold start in fresh interpreters
(``setup_s``), answers one untimed warm-up round, then repeats whole rounds
for ``--seconds``.  Every answer is checked afterwards against the
independent checks in ``checks.py``; a wrong answer, a traceback or an
answer that differs from the warm-up round counts as a failed operation.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                 # every workload
    python3 bench/run.py --workload all --repeat 10     # A/A spread table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
the metrics are the per-layer figures of ``tracing.py`` instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from checks import CheckFailure, MapClass
from tracing import METRICS as LAYER_METRICS, Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
COLD_STARTS = 5
END_TO_END = [("queries_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def load_program():
    """Import the package from this checkout's sources, or stop."""
    if not os.path.isfile(os.path.join(SRC, "torelli", "cli.py")):
        sys.exit(f"error: no torelli sources under {SRC}")
    sys.path.insert(0, SRC)
    from torelli import cli, mcglib
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: torelli was imported from {cli.__file__}")
    return cli, mcglib


def library(mcglib) -> dict:
    """The built-in generators as plain image tables, genus 2..6."""
    lib = {}
    for g in range(2, 7):
        lib[g] = {name: MapClass(g, [w.letters for w in e.action.images],
                                 [w.letters for w in e.action.inverse_images])
                  for name, e in mcglib.builtin_entries(g).items()}
    return lib


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the traceback a CLI user would see
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def cold_starts(queries, workdir) -> list:
    path = os.path.join(workdir, "cold.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(queries, fh)
    times = []
    for _ in range(COLD_STARTS):
        res = subprocess.run([sys.executable, os.path.join(BENCH, "cold.py"),
                              SRC, path], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(res.stdout.split()[-1]))
    return times


def run_workload(args) -> dict:
    cli, mcglib = load_program()
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, workdir, library(mcglib))
        return measure(cli, wl, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, wl, workdir, args) -> dict:
    queries = wl.queries
    setup = [] if args.trace else cold_starts(wl.cold, workdir)
    reference = [call(cli, q.argv) for q in queries]     # warm-up round

    tracer = Tracer() if args.trace else None
    rounds = []   # (traced, wall seconds, [(query index, seconds, same answer)])
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or (tracer and len(rounds) < 2)):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        calls = []
        t_round = time.perf_counter()
        for i, q in enumerate(queries):
            if traced:
                tracer.query = f"{len(rounds)}:{i}"
            t0 = time.perf_counter()
            res = call(cli, q.argv)
            calls.append((i, time.perf_counter() - t0, res == reference[i]))
        rounds.append((traced, time.perf_counter() - t_round, calls))
        if traced:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # answer checks, outside the timed region
    verdict, problems = [], []
    for q, (code, out) in zip(queries, reference):
        try:
            q.check(code, out)
            verdict.append(None)
        except CheckFailure as exc:
            verdict.append(str(exc))
            problems.append(f"{' '.join(q.argv)}: {exc}")
    self_test(queries, reference, verdict)

    attempted = sum(len(c) for _t, _w, c in rounds)
    failed, wrong = 0, 0
    latencies, rates = {False: [], True: []}, {False: [], True: []}
    for traced, wall, calls in rounds:
        done = 0
        for i, dt, same in calls:
            if verdict[i] is None and same:
                done += 1
                latencies[traced].append(dt)
            else:
                failed += 1
                # a traceback is a failure; any other failed answer is wrong
                wrong += not (isinstance(reference[i][0], str) and same)
        rates[traced].append(done / wall)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed}

    if tracer:
        per_query = len(queries) * sum(1 for t, _w, _c in rounds if t)
        metrics = tracer.layer_metrics(per_query)
        metrics["trace.overhead_share"] = (statistics.median(rates[False])
                                           / statistics.median(rates[True]) - 1)
        units = dict(LAYER_METRICS)
        tracer.dump(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json"))
    else:
        lat = sorted(1000.0 * x for x in latencies[False])
        metrics = {"queries_per_s": statistics.median(rates[False]),
                   "latency_p50_ms": statistics.median(lat),
                   "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "queries_per_round": len(queries), "rounds": len(rounds),
              "samples": len(latencies[False]), "setup_runs_s": setup,
              "round_rates": rates[False], "problems": problems}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**detail, **result}, fh, indent=1)
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"{wl.name}: {len(queries)} queries/round, {len(rounds)} rounds, "
          f"{len(latencies[False])} timed samples")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    return result


def self_test(queries, reference, verdict):
    """Every checker must reject one altered answer it accepted unaltered."""
    tried = set()
    for q, res, v in zip(queries, reference, verdict):
        if v is not None or q.verb in tried:
            continue
        tried.add(q.verb)
        try:
            q.check(*getattr(q.check, "alter", workloads.altered)(*res))
        except CheckFailure:
            continue
        sys.exit(f"error: the {q.verb} check accepted an altered answer "
                 f"to {' '.join(q.argv)}")


# ---------------------------------------------------------------------------
# several runs: every workload, and the A/A spread table


def child_run(name, seed, args) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if res.returncode != 0:
        sys.exit(f"error: {name} seed {seed} exited {res.returncode}\n"
                 f"{res.stderr[-2000:]}")
    sys.stdout.write(res.stdout.rsplit("\n", 2)[0] + "\n")
    return json.loads(res.stdout.strip().splitlines()[-1])


def bounds() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def run_many(args):
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {n: [child_run(n, args.seed + r, args) for r in range(args.repeat)]
               for n in names}
    limit = bounds()
    table = {}
    for name, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{name}: {len(runs)} runs, failed share {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            row = {"median": med, "unit": runs[0]["metrics"][metric]["unit"],
                   "values": vals}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0,
                           bound=limit.get(metric))
            table[f"{name}.{metric}"] = row
            line = f"  {metric:40s} median {med:12.6g}"
            if "spread" in row:
                line += f"  q1 {row['q1']:10.6g} q3 {row['q3']:10.6g}" \
                        f"  spread {row['spread']:.3f}"
                if row["bound"] is not None:
                    line += f" of bound {row['bound']}"
            print(line)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"runs-{args.workload}-seed{args.seed}"
                                f"-x{args.repeat}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(table, fh, indent=1)
    every = [r for runs in results.values() for r in runs]
    print(json.dumps({
        "correct": all(r["correct"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {k: {"value": v["median"], "unit": v["unit"]}
                    for k, v in table.items()}}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload, seeds seed..seed+repeat-1")
    args = p.parse_args()
    if args.workload == "all" or args.repeat > 1:
        run_many(args)
    else:
        print(json.dumps(run_workload(args)))


if __name__ == "__main__":
    main()
