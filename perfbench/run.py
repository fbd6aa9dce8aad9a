#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark driver from source, runs one
workload, checks its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics (from a separate traced run). The lines before it are a readable
report: the environment record, each timing's median and tail with its
percentile and sample count, the modelled results and the output digest.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; a full record of each run is written next to it.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("paper_grid", "fleet_coord", "service_soak")
RUN_TIMEOUT_S = 170

# Timings reported by the names users of each workload know them by,
# with their medians and tails, in addition to the cross-workload
# op_mean_ms.
NAMED_TIMINGS = {
    "paper_grid": [("job", "job_{}_s", 1e-3, "s")],
    "fleet_coord": [("fleet", "job_{}_s", 1e-3, "s"),
                    ("placement", "placement_{}_ms", 1.0, "ms")],
    "service_soak": [("tick", "tick_{}_ms", 1.0, "ms"),
                     ("attach", "attach_{}_ms", 1.0, "ms"),
                     ("detach", "detach_{}_ms", 1.0, "ms")],
}


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(bdir):
    """Configure (once) and build the driver; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"cmm sources not found under {ROOT / 'src'}")
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    with open(bdir / ".lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir / "cmm_perfbench"


def timing_summary(samples):
    value, pct, count = stats.tail(samples)
    q1, p50, q3 = stats.quartiles(samples) if len(samples) > 1 else (samples[0],) * 3
    return {"mean": stats.mean(samples), "p50": p50, "q1": q1, "q3": q3,
            "tail": value, "tail_pct": pct, "count": count}


def summarize(raw, spec):
    """Turns the driver's raw samples into the reported metrics.

    Returns (metrics, report) where metrics maps each reported metric
    name to its value and report holds the extra named figures.
    """
    trace = bool(raw["trace"])
    timings = {k: timing_summary(v) for k, v in raw["latency_ms"].items() if v}
    report = {"timings": timings, "named": {}}
    for op, pattern, scale, unit in NAMED_TIMINGS[raw["workload"]]:
        if op not in timings:
            continue
        t = timings[op]
        report["named"][pattern.format("p50")] = (t["p50"] * scale, unit, None)
        report["named"][pattern.format("tail")] = (
            t["tail"] * scale, unit, (t["tail_pct"], t["count"]))
    report["named"]["fail_ratio"] = (
        stats.fail_ratio(raw["attempted"], raw["failed"]), "ratio", None)
    # setup_s is a median of in-process repetitions; the first one is
    # timed from process start.
    report["named"]["setup_first_s"] = (raw["setup_s"][0], "s", None)
    for name, value in sorted(raw["model"].items()):
        report["named"][name] = (value, "ratio", None)

    if trace:
        layers = dict(raw["layers"])
        detach = raw["latency_ms"].get("traced_detach")
        if detach:
            layers["service.detach_p50_us"] = stats.median(detach) * 1e3
        report["layers"] = layers
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {n: layers.get(n) for n in wanted}
        return metrics, report

    primary = timings.get(raw["primary_op"])
    metrics = {
        "setup_s": stats.median(raw["setup_s"]),
        "sim_minstr_per_s": raw["sim_instructions"] / raw["timed_s"] / 1e6,
        "op_mean_ms": primary["mean"] if primary else None,
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
        "model_score": raw["model"].get(raw["model_score"]),
    }
    return metrics, report


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def verdict(raw, metrics, spec):
    """Output correctness: no failed operation or check, a digest, and
    every reported metric present and finite (end-to-end ones positive)."""
    problems = []
    if raw["failed"] != 0:
        problems.append(f"{raw['failed']} failed operations: {raw['failures']}")
    problems += [f"check {k} failed" for k, ok in raw["checks"].items() if not ok]
    if not raw.get("digest"):
        problems.append("no output digest")
    section = "per_layer" if raw["trace"] else "end_to_end"
    for m in spec[section]:
        v = metrics.get(m["name"])
        if not is_number(v) or (section == "end_to_end" and v <= 0):
            problems.append(f"metric {m['name']} missing or invalid: {v}")
    return problems


def format_report(raw, metrics, report, spec):
    """The readable lines printed before the result line."""
    env = raw["env"]
    lines = [f"== perfbench {raw['workload']} seed {raw['seed']} trace {raw['trace']} ==",
             "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
             f"timed {raw['timed_s']:.3f} s over {raw['reps']} pass(es); "
             f"attempted {raw['attempted']}, failed {raw['failed']}"]
    for op, t in sorted(report["timings"].items()):
        lines.append(f"  {op}: p50 {t['p50']:.4f} ms (quartiles {t['q1']:.4f}-{t['q3']:.4f}), "
                     f"p{t['tail_pct']} {t['tail']:.4f} ms (n={t['count']}), "
                     f"mean {t['mean']:.4f} ms")
    for name, (value, unit, tail) in report["named"].items():
        extra = f"  [p{tail[0]}, n={tail[1]}]" if tail else ""
        lines.append(f"  {name} = {value:.6g} {unit}{extra}")
    section = "per_layer" if raw["trace"] else "end_to_end"
    lines.append(f"{section} metrics:")
    for m in spec[section]:
        v = metrics.get(m["name"])
        shown = f"{v:.6g}" if is_number(v) else str(v)
        lines.append(f"  {m['name']} = {shown} {m['unit']}")
    if raw["trace"]:
        layers = report["layers"]
        extra = sorted(set(layers) - {m["name"] for m in spec["per_layer"]})
        for name in extra:
            lines.append(f"  {name} = {layers[name]:.6g} (workload-specific)")
    lines.append("checks: " + " ".join(f"{k}={'ok' if v else 'FAIL'}"
                                       for k, v in sorted(raw["checks"].items())))
    lines.append(f"digest: {raw['digest']}")
    return lines


def result_line(correct, raw, metrics, spec):
    section = "per_layer" if raw["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    return json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    })


def self_test():
    import unittest
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    try:
        spec = load_spec()
        bdir = build_dir()
        binary = build(bdir)
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
        if proc.returncode != 0:
            log(f"perfbench: driver exited with code {proc.returncode}")
            return 1
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: driver printed nothing")
        return 1
    raw = json.loads(lines[-1])

    metrics, report = summarize(raw, spec)
    problems = verdict(raw, metrics, spec)
    for line in format_report(raw, metrics, report, spec):
        print(line)
    for p in problems:
        print(f"INCORRECT: {p}")

    record = bdir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"raw": raw, "metrics": metrics, "problems": problems}, f, indent=1)

    print(result_line(not problems, raw, metrics, spec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
