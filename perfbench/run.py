"""fluxnet benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, each in its own process

A run repeats whole rounds of the workload's operations until ``--seconds``
have passed, checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  Details, inputs and reference figures: README.md.
"""

import os

# pinned before numpy loads; fluxnet's own --threads stays unset
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("FLUXNET_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402

WORKLOAD_NAMES = ("analytic", "rate-boundary", "montecarlo")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str) -> None:
    """Time a fresh import of fluxnet plus parse, assemble_model and
    lineality_space of the workload's networks; print the seconds."""
    start = time.perf_counter()
    sys.path.insert(0, inputs.SRC)
    import fluxnet
    for path in inputs.SETUP_NETWORKS[workload]:
        model = fluxnet.assemble_model(fluxnet.load_spec(path))
        try:
            fluxnet.lineality_space(model)
        except fluxnet.NumericalError:
            pass  # the single-reservoir network (ROADMAP D1)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_round(workload, problems: list, failures: dict) -> list[dict]:
    """Run one round; return per-operation records."""
    records, outputs = [], []
    for op in workload.ops():
        start = time.perf_counter()
        try:
            out = op.run()
            failed = None
        except Exception as exc:  # counted as a failed operation
            out, failed = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        outputs.append(out)
        if failed is None:
            try:
                problems.extend(op.check(out))
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                problems.append(f"{op.label}: unreadable output ({exc!r})")
        else:
            key = (op.label, op.known_defect or "not a known defect")
            failures.setdefault(key, [0, failed])[0] += 1
        records.append({"kind": op.kind, "label": op.label, "seconds": elapsed,
                        "items": op.items, "failed": failed is not None})
    problems.extend(workload.check_round(outputs))
    return records


def throughput(rounds, kind: str, skip_first: bool = False) -> float:
    items = seconds = 0.0
    for records in rounds:
        for k, rec in enumerate(records):
            if rec["kind"] == kind and not rec["failed"] and not (skip_first and k == 0):
                items += rec["items"]
                seconds += rec["seconds"]
    return items / seconds if seconds > 0 else 0.0


def workload_figures(name: str, rounds) -> dict:
    """The workload's own throughputs (README: why they are not gated)."""
    if name == "analytic":
        return {"gap_rays_per_s": (throughput(rounds, "gap-scan"), "rays/s"),
                "cgf_tilts_per_s": (throughput(rounds, "cgf"), "tilts/s"),
                "rate_points_per_s": (throughput(rounds, "rate"), "points/s")}
    if name == "rate-boundary":
        first = statistics.median(r[0]["seconds"] for r in rounds)
        return {"rate_first_boundary_s": (first, "s"),
                "rate_points_per_s": (throughput(rounds, "rate_function", True), "points/s")}
    return {"mc_steps_per_s": (throughput(rounds, "simulate"), "trajectory-steps/s")}


def run_workload(args) -> int:
    setup_s = measure_setup(args.workload)
    sys.path[:0] = [inputs.SRC, inputs.HERE]
    import fluxnet
    if not os.path.abspath(fluxnet.__file__).startswith(inputs.SRC + os.sep):
        print(f"error: fluxnet imported from {fluxnet.__file__}, not {inputs.SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)

    rounds, problems, failures = [], [], {}
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(workload, problems, failures))
    run_s = time.perf_counter() - start

    attempted = sum(len(r) for r in rounds)
    failed = sum(rec["failed"] for r in rounds for rec in r)
    wall_s = statistics.median(sum(rec["seconds"] for rec in r) for r in rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = workload_figures(args.workload, rounds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  run {run_s:.2f} s  BLAS threads {BLAS_THREADS}")
    for rec in rounds[0]:
        state = "FAILED" if rec["failed"] else "ok"
        print(f"  {rec['seconds']:9.4f} s  {state:6s}  {rec['label']}")
    print(f"wall_s {wall_s:.6f} s (median round)  setup_s {setup_s:.6f} s  "
          f"peak_rss_mb {peak_rss_mb:.1f} MB")
    for key, (value, unit) in figures.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"attempted {attempted}  failed {failed}")
    for (label, why), (count, message) in sorted(failures.items()):
        print(f"  failed {count} x {label}: {message}  [{why}]")
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}")

    if tracer is None:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        units = dict(tracing.metric_names())
        metrics = {k: (v, units[k]) for k, v in tracer.summary(len(rounds)).items()}
    os.makedirs(inputs.RESULTS, exist_ok=True)
    stem = os.path.join(inputs.RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + "-spans.csv")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "rounds": rounds, "wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb, "figures": figures,
                   "metrics": metrics, "problems": problems}, handle, indent=1)

    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    code = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)], timeout=CHILD_TIMEOUT_S)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(inputs.SRC, "fluxnet", "__init__.py")):
        print(f"error: no fluxnet source tree at {inputs.SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
