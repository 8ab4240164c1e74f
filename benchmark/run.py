#!/usr/bin/env python3
"""The repo's benchmark: build `anatomy-bench`, then run it.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload (what BENCHMARK.json's `command` is
        given). The last line of stdout is the result as JSON.

    python3 benchmark/run.py [--seed N] [--quick]
        The whole ledger: every workload in a process of its own, then
        the traced ladder; every metric as `workload<TAB>metric<TAB>
        value<TAB>unit`; the correctness gates; benchmark/out/result.json.
        Exits non-zero if a gate fails, an operation fails, or the
        program and BENCHMARK.json disagree about a name or a unit.
        `--quick` uses 2 s windows: same code paths, smoke use only.

    python3 benchmark/run.py --aa K [--seed N]
        A/A evidence: two sets of K runs of every workload, each run
        with another seed; per metric the two medians, each set's
        quartile spread and the verdict against the metric's bound, in
        benchmark/results/aa-<host fingerprint>.json.

README.md in this directory says what the numbers mean.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark crate offline; return the binary's path.

    A relative CARGO_TARGET_DIR is taken from the repository root, the
    directory cargo and the binary both run in.
    """
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("benchmark", "target")
    return os.path.join(ROOT, target, "release", "anatomy-bench")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selfcheck(binary, spec):
    """BENCHMARK.json and the program must name the same things."""
    listed = {"workload": [], "end_to_end": [], "per_layer": []}
    out = subprocess.run([binary, "--list"], cwd=ROOT, capture_output=True, text=True, check=True)
    for line in out.stdout.splitlines():
        kind, *rest = line.split("\t")
        listed[kind].append(tuple(rest))
    problems = []
    want = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    for kind in want:
        for item in set(want[kind]) ^ set(listed[kind]):
            side = "BENCHMARK.json" if item in want[kind] else "the program"
            problems.append(f"{kind} {item} is only in {side}")
    for m in spec["end_to_end"]:
        if m["better"] not in ("lower", "higher") or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m['name']} needs a direction and a bound in (0, 0.25]")
    for problem in problems:
        print(f"selfcheck\tFAIL\t{problem}")
    if not problems:
        print(
            f"selfcheck\tok\t{len(want['workload'])} workloads, "
            f"{len(want['end_to_end'])} end-to-end and {len(want['per_layer'])} per-layer metrics"
        )
    return not problems


def run_one(binary, workload, seed, seconds, trace, names):
    """One child process; echo its lines; return its result object."""
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} (trace {trace}) exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(names):
        sys.exit(f"{workload} (trace {trace}) printed other metrics than BENCHMARK.json declares")
    result["host"] = dict(
        pair.split("=", 1) for line in lines if line.startswith("# host") for pair in line.split("\t")[1:]
    )
    return result


def host_header(traced):
    """What the numbers were measured on, for a result file."""
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    return dict(traced["host"], nproc=os.cpu_count(), commit=commit)


def ledger(binary, spec, seed, seconds):
    """Every workload once, then the ladder; checks; result.json."""
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    ok = selfcheck(binary, spec)
    runs = {w: run_one(binary, w, seed, seconds, 0, e2e) for w in workloads}
    traced = run_one(binary, workloads[0], seed, seconds, 1, layers)
    for name, r in list(runs.items()) + [("ladder", traced)]:
        verdict = "ok" if r["correct"] and r["failed"] == 0 else "FAIL"
        ok &= verdict == "ok"
        print(f"check\t{verdict}\t{name}\tattempted={r['attempted']}\tfailed={r['failed']}\tcorrect={r['correct']}")

    # the ladder against the untraced windows (reported, not gated: a
    # shared host can push either side a few percent)
    value = lambda r, m: r["metrics"][m]["value"]
    phases = sum(value(traced, f"gxm.train.{p}_ms") for p in ("fwd", "bwd", "upd", "sgd"))
    pairs = [
        ("train phases sum vs resnet50_train latency_p50_ms", phases,
         value(runs["resnet50_train"], "latency_p50_ms")),
        ("4 / session.run_ms vs resnet50_infer_f32 images_per_s",
         4e3 / value(traced, "session.run_ms"), value(runs["resnet50_infer_f32"], "images_per_s")),
    ]
    reconcile = []
    for what, ladder_side, window_side in pairs:
        off = ladder_side / window_side - 1
        reconcile.append({"what": what, "ladder": ladder_side, "window": window_side, "off": off})
        print(f"reconcile\t{'ok' if abs(off) <= 0.05 else 'WARN'}\t{what}\t{ladder_side:.4g}\t{window_side:.4g}\t{off:+.1%}")

    host = host_header(traced)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(
            {"host": host, "seed": seed, "seconds": seconds, "ok": bool(ok), "workloads": runs,
             "per_layer": traced, "reconcile": reconcile},
            f, indent=1)
    print(f"ledger\t{'ok' if ok else 'FAIL'}\tbenchmark/out/result.json")
    return 0 if ok else 1


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def aa(binary, spec, seed, seconds, k):
    """Two sets of k runs of the same code, judged by the bounds."""
    e2e = [m["name"] for m in spec["end_to_end"]]
    sets = []
    for s in range(2):
        runs = {w["name"]: [] for w in spec["workloads"]}
        for i in range(k):
            for w in runs:
                runs[w].append(run_one(binary, w, seed + 100 * s + i, seconds, 0, e2e))
        sets.append(runs)
    rows, all_ok = [], True
    for w in sets[0]:
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in runs[w]] for runs in sets]
            med = [statistics.median(v) for v in vals]
            spr = [spread(v) for v in vals]
            worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
            steady = m["name"] == "setup_s" or max(spr) <= m["bound"]
            verdict = "ok" if steady and worse <= m["bound"] else "FAIL"
            all_ok &= verdict == "ok"
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"], "bound": m["bound"],
                         "medians": med, "spreads": spr, "second_worse_by": worse,
                         "verdict": verdict, "values": vals})
            print(f"aa\t{verdict}\t{w}\t{m['name']}\tmedians={med[0]:.5g},{med[1]:.5g}\t"
                  f"spreads={spr[0]:.3f},{spr[1]:.3f}\tbound={m['bound']}")
    failed = sum(r["failed"] for runs in sets for rs in runs.values() for r in rs)
    correct = all(r["correct"] for runs in sets for rs in runs.values() for r in rs)
    layers = [m["name"] for m in spec["per_layer"]]
    traced = run_one(binary, spec["workloads"][0]["name"], seed, seconds, 1, layers)
    host = host_header(traced)
    path = os.path.join(HERE, "results", f"aa-{host['fingerprint']}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"host": host, "seed": seed, "seconds": seconds, "runs_per_set": k,
                   "failed_operations": failed, "all_correct": correct, "all_within_bounds": all_ok,
                   "end_to_end": rows, "per_layer": traced["metrics"]}, f, indent=1)
    print(f"aa\t{'ok' if all_ok and correct and failed == 0 else 'FAIL'}\t{os.path.relpath(path, ROOT)}")
    return 0 if all_ok and correct and failed == 0 else 1


def main(argv):
    binary = build()
    if "--workload" in argv:
        os.chdir(ROOT)
        os.execv(binary, [binary] + argv)
    known = {"--seed", "--quick", "--aa"}
    flags = {a for a in argv if a.startswith("--")}
    if flags - known:
        sys.exit(f"run.py: unknown flag {sorted(flags - known)[0]} (see the top of this file)")
    number = lambda key, default: int(argv[argv.index(key) + 1]) if key in argv else default
    spec = declared()
    seed = number("--seed", 1)
    seconds = 2 if "--quick" in argv else spec["run_seconds"]
    if "--aa" in argv:
        return aa(binary, spec, seed, seconds, number("--aa", 10))
    return ledger(binary, spec, seed, seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
