#!/usr/bin/env python3
"""Time-to-model benchmark for stagetrees.

Run from the repository root:

    python3 perfbench/run.py --workload learn-deep --seed 1 --seconds 20 --trace 0

Each job is one in-process `stagetrees.cli.main(argv)` call with the argv a
user would type, on CSV files generated from --seed; the program never sees
the seed.  Jobs run one after another in this one process, on one thread.
--trace 0 reports the end-to-end metrics, with job and set-up times scaled to
a host at a fixed nominal speed by a reference computation timed between
jobs (see hostref.py).  --trace 1 also replays every job
as traced public calls (see replay.py) and reports the per-layer metrics
instead, and writes the spans to .perfbench_work/ when the run ends.

Every job's outputs are checked (see checks.py).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

# gen, checks, replay and stagetrees are imported inside functions: main()
# pins numpy's thread pools and puts src/ on sys.path before anything imports them
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 9


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]    # subcommand and flags; --data and --out are added
    levels: tuple[int, ...]  # level count of each generated variable
    n: int                   # observations per generated data set
    count_csv: bool          # one row per cell with a count column, else one per observation
    datasets: int            # data sets per run; jobs cycle through them


# The cost of a job depends on the sampled network, so each run cycles over
# several networks drawn from its seed and reports medians over them.  The
# hc order search varies most, because its move count follows how many
# stages the sample supports: at p = 6 and n = 5000 the cost of one job
# varied twofold between networks (coefficient of variation 0.3).  At p = 5 and n = 10^6 the
# sample supports each network's own stagings, the cost varies little, and
# a run covers many networks.
# Every job is kept under a second: the shared host flips between speeds
# about 2x apart every few seconds, and the reference timed between jobs
# (hostref.py) follows those flips only for jobs shorter than a flip.
WORKLOADS = {
    "learn-deep": Workload(("learn", "--count-column", "count", "--algo", "bhc"),
                           (2,) * 7, 5000, True, 20),
    "learn-orders": Workload(("learn", "--count-column", "count", "--enumerate-orders",
                              "--algo", "hc", "--fix-last", "x5"),
                             (2,) * 5, 1_000_000, True, 32),
    "ingest-refine": Workload(("refine", "--algo", "csbhc"), (3,) * 8, 50_000, False, 8),
}

# per-layer metrics: name -> unit; see README.md for what each should move
LAYER_UNITS = {
    "cli.self_s": "s",
    "io.read_csv_s": "s",
    "io.rows_per_s": "1/s",
    "io.save_s": "s",
    "io.doc_bytes": "bytes",
    "core.start_tree_s": "s",
    "core.reorder_s": "s",
    "learning.search_s": "s",
    "learning.moves": "count",
    "learning.moves_per_s": "1/s",
    "learning.stages_final": "count",
    "learning.orders_s": "s",
    "learning.orders": "count",
    "learning.orders_per_s": "1/s",
    "learning.learn_dag_s": "s",
    "learning.dag_edges": "count",
    "scoring.score_s": "s",
    "scoring.fit_s": "s",
    "conversion.dag_to_tree_s": "s",
    "conversion.aldag_s": "s",
    "conversion.edges_labeled": "count",
    "trace.overhead_s": "s",
}

# span name -> per-layer time metric
SPAN_METRICS = {
    "io.read_csv": "io.read_csv_s",
    "io.save": "io.save_s",
    "core.default_start": "core.start_tree_s",
    "core.reorder": "core.reorder_s",
    "learning.search": "learning.search_s",
    "learning.enumerate_orders": "learning.orders_s",
    "learning.learn_dag": "learning.learn_dag_s",
    "scoring.score": "scoring.score_s",
    "scoring.fit": "scoring.fit_s",
    "conversion.dag_to_tree": "conversion.dag_to_tree_s",
    "conversion.aldag": "conversion.aldag_s",
}


@dataclass(frozen=True)
class Input:
    argv: tuple[str, ...]
    sample: object  # gen.Sample
    data_rows: int  # CSV lines below the header
    out: str


def machine_info() -> dict:
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        model = names[0] if names else model
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), "numpy": numpy.__version__,
            "thread_pools": {v: os.environ.get(v) for v in THREAD_VARS}}


def make_inputs(spec: Workload, seed: int, directory: str) -> tuple[list[Input], Input]:
    """Write the run's data sets and a small warm-up data set into `directory`."""
    import gen

    def one(entropy, name: str, levels, n: int) -> Input:
        sample = gen.generate(entropy, levels, n, rows=not spec.count_csv)
        path = os.path.join(directory, f"data{name}.csv")
        names = sample.network.names
        if spec.count_csv:
            gen.write_count_csv(path, names, sample.network.levels, sample.counts)
            rows = sample.counts.size
        else:
            gen.write_rows_csv(path, names, sample.rows)
            rows = sample.rows.shape[0]
        out = os.path.join(directory, f"model{name}.json")
        argv = (spec.argv[0], "--data", path) + spec.argv[1:] + ("--out", out)
        return Input(argv, sample, rows, out)

    inputs = [one([seed, m], str(m), spec.levels, spec.n) for m in range(spec.datasets)]
    # the warm-up input is the same for every seed, so that set-up time does
    # not follow the cost of one sampled network
    warm = one([0], "warm", (spec.levels[0],) * 5, 50)
    return inputs, warm


def run_cli(argv) -> tuple[int, str, str, float]:
    """One CLI job; returns (exit code, stdout, stderr, wall seconds)."""
    from stagetrees import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a job that raises is a failed job, not a crashed run
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def scaled(seconds: float, ref_s: float) -> float:
    """Wall seconds scaled to a host at the nominal speed (see hostref.py)."""
    import hostref
    return seconds * hostref.NOMINAL_S / ref_s


def import_seconds() -> float:
    """Median scaled time, over SETUP_ROUNDS, of a fresh interpreter that imports the CLI."""
    import hostref
    times = []
    for _ in range(SETUP_ROUNDS):
        ref_s = hostref.reference_s()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import stagetrees.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
        elapsed = time.perf_counter() - start
        times.append(scaled(elapsed, (ref_s + hostref.reference_s()) / 2))
    return statistics.median(times)


def set_up(spec: Workload, seed: int, run_dir: str) -> tuple[list[Input], list[float]]:
    """Generate inputs and warm up SETUP_ROUNDS times; returns the last inputs and scaled round times."""
    import hostref
    rounds = []
    for r in range(SETUP_ROUNDS):
        directory = os.path.join(run_dir, f"setup{r}")
        os.mkdir(directory)
        ref_s = hostref.reference_s()
        start = time.perf_counter()
        inputs, warm = make_inputs(spec, seed, directory)
        code, _, err, _ = run_cli(warm.argv)
        elapsed = time.perf_counter() - start
        rounds.append(scaled(elapsed, (ref_s + hostref.reference_s()) / 2))
        if code != 0:
            raise RuntimeError(f"warm-up job exited {code}: {err.strip()}")
        if r + 1 < SETUP_ROUNDS:
            shutil.rmtree(directory)
    return inputs, rounds


class Checker:
    """Checks each input's first document in full and every repeat for identity."""

    def __init__(self, count_check: bool):
        self.count_check = count_check
        self.first: dict[int, tuple[bytes, str, list[str]]] = {}

    def __call__(self, m: int, inp: Input, code: int, stdout: str, stderr: str,
                 dataset=None) -> list[str]:
        import checks
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-500:]}"]
        with open(inp.out, "rb") as fh:
            doc = fh.read()
        if m in self.first:
            doc0, stdout0, problems = self.first[m]
            if (doc, stdout) != (doc0, stdout0):
                return problems + ["repeating the input did not give a byte-identical document"]
            return list(problems)
        problems = checks.check_model(inp.out, stdout, inp.sample)
        if self.count_check:
            if dataset is None:
                from stagetrees import read_csv
                dataset = read_csv(inp.argv[2])
            problems += checks.check_counts(dataset, inp.sample)
        self.first[m] = (doc, stdout, problems)
        return list(problems)


def layer_values(spans: list[dict], facts: dict, inp: Input, doc_bytes: int,
                 cli_s: float) -> dict:
    """Per-layer metrics of one traced job from its spans and counts."""
    root = next(s for s in spans if s["parent"] is None)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    values = {name: 0.0 for name in SPAN_METRICS.values()}
    for s in spans:
        if s["name"] in SPAN_METRICS:
            values[SPAN_METRICS[s["name"]]] += dur[s["id"]]
    children = sum(dur[s["id"]] for s in spans if s["parent"] == root["id"])
    moves = facts.get("moves", 0)
    orders = facts.get("orders", 0)
    values.update({
        "cli.self_s": dur[root["id"]] - children,
        "io.rows_per_s": inp.data_rows / values["io.read_csv_s"],
        "io.doc_bytes": doc_bytes,
        "learning.moves": moves,
        "learning.moves_per_s": moves / values["learning.search_s"] if moves else 0.0,
        "learning.stages_final": facts["stages_final"],
        "learning.orders": orders,
        "learning.orders_per_s": orders / values["learning.orders_s"] if orders else 0.0,
        "learning.dag_edges": facts.get("dag_edges", 0),
        "conversion.edges_labeled": facts["edges_labeled"],
        "trace.overhead_s": dur[root["id"]] - cli_s,
    })
    return values


def measure(spec: Workload, inputs: list[Input], seconds: float, traced: bool, tracer=None):
    """Run whole cycles over the inputs, at least two, until `seconds` of job time have passed.

    Every input then runs the same number of times, so each repeats and
    each weighs the same in the run's medians.  No job starts after
    4 * `seconds`, even mid-cycle, so that a far slower program still ends in time.
    The host reference is timed before the first job and after every job.
    Each job keeps as "ref_s" the median of the six reference times nearest
    to it, so that a burst on the host during one reference does not
    rescale the jobs beside it.
    """
    import hostref
    import replay
    check = Checker(count_check=not spec.count_csv)
    jobs = []
    busy = 0.0
    k = 0
    give_up = time.perf_counter() + 4 * seconds
    refs = [hostref.reference_s()]
    while (busy < seconds or k < 2 * len(inputs) or k % len(inputs)) \
            and time.perf_counter() < give_up:
        m = k % len(inputs)
        inp = inputs[m]
        code, stdout, stderr, job_s = run_cli(inp.argv)
        busy += job_s
        refs.append(hostref.reference_s())
        job = {"input": m, "job_s": job_s, "stdout": stdout}
        if not traced:
            job["problems"] = check(m, inp, code, stdout, stderr)
        else:
            doc = b""
            if code == 0:
                with open(inp.out, "rb") as fh:
                    doc = fh.read()
            first = len(tracer.spans)
            try:
                replay_out, facts = replay.replay(inp.argv, tracer, k)
            except Exception:
                job["problems"] = ["traced replay raised: " + traceback.format_exc(limit=3)]
                replay_out, facts = None, None
            spans = tracer.spans[first:]
            job["traced_s"] = spans[0]["end"] - spans[0]["start"]
            busy += job["traced_s"]
            if facts is not None:
                job["problems"] = check(m, inp, code, stdout, stderr, facts.pop("dataset"))
                with open(inp.out, "rb") as fh:
                    if (fh.read(), replay_out) != (doc, stdout):
                        job["problems"].append("traced replay output differs from the CLI job")
                job["layers"] = layer_values(spans, facts, inp, len(doc), job_s)
        jobs.append(job)
        k += 1
    for k, job in enumerate(jobs):
        # refs[k] and refs[k + 1] are the references just before and after job k
        job["ref_s"] = statistics.median(refs[max(0, k - 2):k + 4])
    return jobs


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(jobs: list[dict], inputs: list[Input], setup_s: float) -> dict:
    """End-to-end metrics; job and set-up times are scaled to the nominal host speed."""
    import checks
    ok = [j for j in jobs if not j["problems"]]
    times = [scaled(j["job_s"], j["ref_s"]) for j in jobs]
    # BIC itself varies by a tenth between seeds; its ratio to the generating
    # network's BIC on the same counts varies far less, so a small loss of fit shows
    reference = [checks.reference_bic(inp.sample) for inp in inputs]
    ratios = [json.loads(j["stdout"])["score"]["bic"] / reference[j["input"]] for j in ok]
    return {
        # one job slowed by a passing burst on the shared host would move a
        # plain mean, so throughput is taken from the interquartile mean
        "jobs_per_s": (len(ok) / len(jobs) / interquartile_mean(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (len(ok) / len(jobs), "ratio"),
        "bic_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
    }


def per_layer(jobs: list[dict]) -> dict:
    rows = [j["layers"] for j in jobs if "layers" in j]
    if not rows:
        return {name: (0.0, unit) for name, unit in LAYER_UNITS.items()}
    return {name: (statistics.median(r[name] for r in rows), unit)
            for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stagetrees time-to-model benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stagetrees", "__init__.py")):
        print(f"perfbench: no stagetrees sources under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    # numpy reads these when it is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import stagetrees.cli  # noqa: F401
    import hostref
    import replay
    if not os.path.abspath(stagetrees.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported stagetrees from {stagetrees.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tracer = replay.Tracer() if args.trace else None
    try:
        import_s = import_seconds()
        inputs, rounds = set_up(spec, args.seed, run_dir)
        jobs = measure(spec, inputs, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    machine = machine_info()
    print(json.dumps({"machine": machine}))

    failed = sum(1 for j in jobs if j["problems"])
    for j in jobs:
        for problem in j["problems"]:
            print(f"job on input {j['input']}: {problem}")
    if args.trace:
        metrics = per_layer(jobs)
        spans = [dict(s, start=s["start"] - start, end=s["end"] - start) for s in tracer.spans]
        with open(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": machine,
                       "spans": spans}, fh)
        traced = [j for j in jobs if "layers" in j]
        for name in ("learning.search_s", "learning.orders_s", "io.read_csv_s"):
            share = statistics.median(j["layers"][name] / j["traced_s"] for j in traced) if traced else 0.0
            print(f"share {name}: {share:.3f} of a traced job (median over jobs)")
    else:
        metrics = end_to_end(jobs, inputs, import_s + statistics.median(rounds))
        print(f"failed_ratio: {failed / len(jobs):.4f} ({failed} of {len(jobs)} jobs)")
        print(f"unscaled job_s.p50: {statistics.median(j['job_s'] for j in jobs):.6g} s; "
              f"host reference {statistics.median(j['ref_s'] for j in jobs):.6g} s "
              f"(nominal {hostref.NOMINAL_S} s)")
        bics = [json.loads(j["stdout"])["score"]["bic"] for j in jobs if not j["problems"]]
        if bics:
            print(f"bic_mean: {statistics.fmean(bics):.6g}")
    print(f"{args.workload}: {len(jobs)} jobs over {len(inputs)} inputs, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
