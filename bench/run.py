"""cathist benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload {census-sweep,wide-release,huge-domain} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout that holds src/ and tests/. It builds the
workload's inputs offline from --seed (bench/inputs.py, in a child process),
measures set-up in fresh interpreters (bench/setup_probe.py), then runs the
workload's closed loop for --seconds and checks every output.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds, reports the per-layer metrics (probes, self times per round
and the tracing overhead), and writes the span dump of the first traced round
to .bench_work/spans-<workload>.json.

Human-readable lines start with "# "; a "REPORT {...}" line holds every
named metric, the run metadata and the input digests; the last line is the
result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("census-sweep", "wide-release", "huge-domain")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(seed: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "cathist").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def child(args: list[str]) -> dict:
    """Run a helper script of the benchmark and parse the JSON it prints."""
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_domains(workload: str, files: dict) -> list:
    words = files["words.txt"]["path"]
    if workload == "huge-domain":
        return [["pairs", words]] + [["size", 10**k] for k in (3, 6, 9, 12)]
    return [["words", words]]


def fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cathist" / "__init__.py").is_file() or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"error: {ROOT} has no src/cathist or tests/conftest.py; "
              "run the benchmark from a full checkout", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        manifest = child([str(HERE / "inputs.py"), "--workload", args.workload, "--seed", str(args.seed),
                          "--out", str(run_dir / "inputs")] + (["--smoke"] if args.smoke else []))
        files = manifest["files"]
        setup = []
        if not args.trace:
            domains = json.dumps(setup_domains(args.workload, files))
            repeats = 2 if args.smoke else SETUP_REPEATS
            setup = [child([str(HERE / "setup_probe.py"), str(SRC), domains])["setup_s"]
                     for _ in range(repeats)]

        sys.path.insert(0, str(SRC))
        from workloads import run_workload

        started = time.perf_counter()
        result = run_workload(args.workload, files, manifest["params"], run_dir, args.seed, args.seconds,
                              bool(args.trace), args.smoke,
                              WORK / f"spans-{args.workload}.json" if args.trace else None)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = dict(result["named"])
    if setup:
        named["setup_s"] = {"unit": "s", "median": statistics.median(setup), "samples": len(setup)}
    named["peak_rss_mb"] = {"unit": "MB", "value": peak_rss_mb}
    named["error_rate"] = {"unit": "ratio", "value": result["failed"] / result["attempted"],
                           "failed": result["failed"], "attempted": result["attempted"]}
    correct = result["failed"] == 0

    print(f"# cathist benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={result['rounds']} loop_wall_s={wall:.1f}")
    for name, info in manifest["files"].items():
        print(f"# input {name}: {info['bytes']} bytes sha256={info['sha256']}")
    for name, m in named.items():
        if "median" in m:
            tail = f", p{m['tail_pct']:g} {fmt(m['tail'])}" if m.get("tail") is not None else ""
            spread = f", mean {fmt(m['mean'])}, min {fmt(m['min'])}" if "mean" in m else ""
            print(f"# {name}: median {fmt(m['median'])} {m['unit']}{tail}{spread} (n={m['samples']})")
        else:
            print(f"# {name}: {fmt(m['value'])} {m['unit']}")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")

    if args.trace:
        for name, row in result["spans"].items():
            print(f"# span {name}: self {row['self_s']:.6g} s, total {row['total_s']:.6g} s, "
                  f"{row['calls']:.6g} calls per round")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in result["layers"].items()}
    else:
        (m1, v1), (m2, v2) = result["op1"], result["op2"]
        print(f"# op1_ms = {result['headline']} of {m1}, op2_ms = {result['headline']} of {m2}, in ms")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            # An operation that never succeeded has no latency; the run is then
            # already incorrect, and 0 keeps the result well-formed.
            "op1_ms": {"value": (v1 or 0.0) * 1e3, "unit": "ms"},
            "op2_ms": {"value": (v2 or 0.0) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report = {"workload": args.workload, "trace": args.trace, "meta": run_metadata(args.seed),
              "inputs": manifest["files"], "named": named, "problems": result["problems"],
              "spans_per_round": result.get("spans")}
    print("REPORT " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
