#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one
workload, printing its metrics as one JSON line (the last line of
standard output).

    python3 perfbench/run.py --workload <table4-mf|ml1m-defended|
                                        pop-100k-mmap>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the mmap store, trace files
and child outputs stay inside it too. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import table4  # noqa: E402

WORKLOADS = ("table4-mf", "ml1m-defended", "pop-100k-mmap")
# Every run ends within this many seconds of the end of its build.
RUN_LIMIT_S = 170.0
TABLE_BINARY = "pieck/bench/bench_table4_defenses"
DRIVER = "perfbench_driver"
# Jobs of the in-process PIECK-UEA x Ours cell per table4-mf job (~0.8 s
# each): a fixed count, so that every run attempts the same operations.
CELL_JOBS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpus():
    return len(os.sched_getaffinity(0))


def threads(workload):
    """Worker threads of an in-process workload, chosen for steady
    figures on a shared machine. ml1m-defended's rounds are long and
    memory-bound: on the 4-vCPU machine the benchmark was tuned on, half
    the CPUs gave run-to-run spreads of a few percent where 3 or 4
    threads gave 15-30%. pop-100k-mmap's rounds are ~3 ms of fork-joins:
    with worker threads, periods of host load doubled their latency
    (waking idle vCPUs), so it runs on one thread, like the table."""
    if workload == "pop-100k-mmap":
        return 1
    return max(1, cpus() // 2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.join(ROOT, d) if not os.path.isabs(d) else d,
                        "perfbench")


def build(targets):
    """Configures (once) and builds `targets` with the benchmark's own
    CMakeLists.txt; build output goes to standard error."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise RuntimeError("no program sources here (%s missing)" % need)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(cpus()),
                    "--target"] + targets,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


class Child:
    """Runs one program to its end, or kills it at `deadline`; records its
    wall time and peak resident memory (wait4 rusage of that child)."""

    current = None  # the running child, killed if this process is stopped

    def __init__(self, argv, tmp, deadline, env=None):
        out_path = os.path.join(tmp, "child.out")
        start = time.monotonic()
        with open(out_path, "w") as out:
            self.proc = subprocess.Popen(argv, stdout=out, env=env)
        Child.current = self.proc
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            Child.current = None
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.monotonic() - start
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path) as f:
            self.stdout = f.read()
        if self.proc.returncode != 0:
            raise RuntimeError("%s exited with %d" %
                               (os.path.basename(argv[0]),
                                self.proc.returncode))

    def result(self):
        return json.loads(self.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def log_checks(res):
    for c in res["checks"]:
        log("%s %s: %s" % ("ok    " if c["ok"] else "FAILED", c["name"],
                           c["detail"]))


def check_table(text, label):
    """Returns the number of failed gated checks and prints every check
    and reported claim to standard error."""
    cells = table4.parse(text)
    failed = 0
    for name, ok in table4.check(cells):
        failed += 0 if ok else 1
        if not ok:
            log("FAILED %s: %s" % (label, name))
    for name, held in table4.claims(cells):
        log("claim %s: %s" % (name, "held" if held else "not held"))
    return cells, failed


def defense_check(driver, tmp, deadline):
    """Replays the NoDefense and Ours rows in-process at
    table4.DEFENSE_SEED and gates "Ours" below NoDefense for every
    attack. Returns (attempted, failed, defense_failed): defense_failed
    counts the defense checks that failed, a fault of the program on a
    fixed input that fails the same way on every run."""
    child = Child([driver, "--workload", "table4-defense", "--seed",
                   str(table4.DEFENSE_SEED)], tmp, deadline)
    res = child.result()
    log_checks(res)
    bad = 0
    for name, ok in table4.check_defense(table4.parse(child.stdout)):
        log("%s seed %d %s" % ("ok    " if ok else "FAILED",
                               table4.DEFENSE_SEED, name))
        bad += 0 if ok else 1
    return res["attempted"] + len(table4.ATTACKS), res["failed"] + bad, bad


def table4_mf(args, out, tmp, deadline):
    """Runs the Table IV binary (MF half) as a user would, then the
    PIECK-UEA x Ours cell in-process for the per-round figures, then the
    defense check."""
    binary = os.path.join(out, TABLE_BINARY)
    driver = os.path.join(out, DRIVER)
    start = time.monotonic()
    walls, rss, cells_out = [], [], []
    attempted = failed = known = 0
    while True:
        t0 = time.monotonic()
        child = Child([binary, "--skip-dl", "--seed", str(args.seed)], tmp,
                      deadline)
        cells, bad = check_table(child.stdout, "table4-mf")
        walls.append(time.monotonic() - t0)
        rss.append(child.peak_rss_mb)
        attempted += 24
        failed += bad

        # Repeat the cell so that its medians are steady.
        cell = Child([driver, "--workload", "table4-cell", "--seed",
                      str(args.seed), "--jobs", str(CELL_JOBS)],
                     tmp, deadline).result()
        log_checks(cell)
        attempted += cell["attempted"]
        failed += cell["failed"]
        # The in-process cell must print what the binary printed.
        ref = cells.get(("Ours", "PIECK-UEA"))
        got = tuple("%.2f" % (100 * cell["extra"][k]) for k in ("er", "hr"))
        if ref is None or got != tuple("%.2f" % v for v in ref):
            log("FAILED table4-mf: in-process Ours/PIECK-UEA cell %r differs"
                " from the binary's %r" % (got, ref))
            failed += 1
        cells_out.append(cell["metrics"])
        a, f, k = defense_check(driver, tmp, deadline)
        attempted += a
        failed += f
        known += k
        job = time.monotonic() - t0
        if time.monotonic() - start + job > args.seconds:
            break

    def med(name):
        return statistics.median(c[name]["value"] for c in cells_out)

    metrics = {"wall_s": metric(statistics.median(walls), "s"),
               "peak_rss_mb": metric(max(rss), "MB")}
    for name in ("setup_s", "rounds_per_s", "cold_round_p50_ms",
                 "warm_round_p50_ms", "eval_s", "state_bytes_per_user"):
        metrics[name] = metric(med(name), cells_out[0][name]["unit"])
    return attempted, failed, known, metrics


def run(args):
    out = build([DRIVER, "bench_table4_defenses"])
    deadline = time.monotonic() + RUN_LIMIT_S
    tmp = tempfile.mkdtemp(prefix="run-", dir=out)
    env = dict(os.environ, TMPDIR=tmp)  # the mmap store's private directory
    try:
        driver = os.path.join(out, DRIVER)
        if args.trace:
            trace_dir = os.path.join(out, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(trace_dir, "%s-seed%d.json" %
                                     (args.workload, args.seed))
            name = ("table4-replay" if args.workload == "table4-mf"
                    else args.workload)
            child = Child([driver, "--workload", name, "--seed",
                           str(args.seed), "--seconds", str(args.seconds),
                           "--trace", "1", "--threads",
                           str(threads(args.workload)),
                           "--trace-out", trace_out], tmp, deadline, env)
            # Self times (and the replayed table) precede the result line.
            sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
            res = child.result()
            log_checks(res)
            attempted, failed, known = res["attempted"], res["failed"], 0
            if args.workload == "table4-mf":
                _, bad = check_table(child.stdout, "table4-mf replay")
                a, f, known = defense_check(driver, tmp, deadline)
                attempted += 24 + a
                failed += bad + f
            log("spans written to %s" % trace_out)
            return attempted, failed, known, res["metrics"]
        if args.workload == "table4-mf":
            return table4_mf(args, out, tmp, deadline)
        child = Child([driver, "--workload", args.workload, "--seed",
                       str(args.seed), "--seconds", str(args.seconds),
                       "--trace", "0", "--threads",
                       str(threads(args.workload))],
                      tmp, deadline, env)
        res = child.result()
        log_checks(res)
        metrics = dict(res["metrics"])
        metrics["peak_rss_mb"] = metric(child.peak_rss_mb, "MB")
        return res["attempted"], res["failed"], 0, metrics
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    def stop(signum, _frame):
        if Child.current is not None:
            Child.current.kill()
            Child.current.wait()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        attempted, failed, known, metrics = run(args)
    except (RuntimeError, ValueError, OSError,
            subprocess.CalledProcessError) as e:
        log("benchmark error: %s" % e)
        return 1
    # A failed defense check is a known fault of the program on a fixed
    # input: it counts as a failed operation but leaves the outputs of
    # the other operations correct. Any other failure is a wrong output.
    correct = failed == known
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
