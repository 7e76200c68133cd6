#!/usr/bin/env python3
"""AgoraDB benchmark entry point: builds agora_bench from source, runs
one workload, checks its answers and prints the result.

One workload, as BENCHMARK.json's command runs it (from the checkout root):

    python3 agorabench/run.py --workload tpch_olap --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones. The
full result (every metric with its unit and sample count, the host
fingerprint, commit, seed and budget) is written to
`.bench_results/<workload>-seed<seed>-trace<t>.json`.

Every workload, untraced and traced, with the tracing overhead:

    python3 agorabench/run.py --all [--seed 1] [--seconds 10]

Exit status: 0 when every answer matched, 1 on any mismatch, 2 on a
build, set-up or usage error (no result line is printed then).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("tpch_olap", "tpch_budget", "serve_mixed")
# The seed whose TPC-H answers are pinned in pinned_digests.json.
DEFAULT_SEED = 1


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the checkout's build area; the
    # CMake tree goes there too.
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "agorabench"


def build():
    """Configures (once) and builds agora_bench; returns the binary path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "agora_bench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode:
        raise RuntimeError("build failed")
    return out / "agora_bench"


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "agorabench"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        if path.exists():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def host():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model,
            "machine": platform.machine(), "kernel": platform.release(),
            "python": platform.python_version()}


def pinned_check(detail):
    """Pinned TPC-H answer digests for the default seed; [] when none apply."""
    if not detail["workload"].startswith("tpch") or detail["seed"] != DEFAULT_SEED:
        return []
    sf = detail["info"]["scale_factor"]
    pinned = json.loads((BENCH_DIR / "pinned_digests.json").read_text())
    want = pinned.get(f"sf{sf:g}-seed{DEFAULT_SEED}", {})
    return [f"{q} reference digest {detail['info'].get('digest.' + q)} != "
            f"pinned {d}" for q, d in sorted(want.items())
            if detail["info"].get("digest." + q) != d]


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the full result dict."""
    RESULTS.mkdir(exist_ok=True)
    spill = RESULTS / "spill"
    spill.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    detail_path = RESULTS / (stem + ".detail.json")
    detail_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(detail_path), "--work-dir", str(spill)]
    if trace:
        cmd += ["--spans", str(RESULTS / (stem + ".spans.csv"))]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=170)
    if proc.returncode not in (0, 1) or not detail_path.exists():
        raise RuntimeError(f"agora_bench exited with {proc.returncode}")
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    for problem in pinned_check(detail):
        detail["mismatches"].append(problem)
        detail["correct"] = False
    if proc.returncode == 1:
        detail["correct"] = False
    detail["host"] = host()
    detail["commit"] = commit()
    detail["source_sha256"] = source_digest()
    detail["budget_bytes"] = detail["info"].get("budget_bytes", 0)
    (RESULTS / (stem + ".json")).write_text(json.dumps(detail, indent=1))
    return detail


def result_line(detail, trace):
    metrics = {}
    for name in metric_names(trace):
        m = detail["metrics"].get(name)
        if m is None:
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": detail["correct"],
                       "attempted": detail["attempted"],
                       "failed": detail["failed"], "metrics": metrics})


def print_metrics(detail):
    for name, m in sorted(detail["metrics"].items()):
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']:6s} "
              f"(n={m['samples']})")
    for what in detail["mismatches"]:
        print(f"  MISMATCH: {what}")


def run_all(binary, seed, seconds, extra):
    """Every workload, untraced then traced, plus the tracing overhead."""
    ok = True
    e2e = metric_names(False)
    for workload in WORKLOADS:
        runs = [run_one(binary, workload, seed, seconds, t, extra)
                for t in (False, True)]
        for trace, detail in enumerate(runs):
            print(f"== {workload} trace={trace} correct={detail['correct']} "
                  f"attempted={detail['attempted']} failed={detail['failed']}")
            print_metrics(detail)
            ok = ok and detail["correct"]
        print(f"== {workload} tracing overhead (traced - untraced)")
        plain, traced = (r["metrics"] for r in runs)
        for name in e2e:
            a, b = plain[name]["value"], traced[name]["value"]
            share = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {name:38s} {a:>12.6g} -> {b:>12.6g} {share}")
        parts = traced["trace.parts_share"]["value"]
        if workload.startswith("tpch"):
            print(f"  trace.parts_share {parts:.4f} (traced parse + bind + "
                  f"optimize + execute / untraced Execute, same queries; "
                  f"within 5%: {abs(1 - parts) <= 0.05})")
        else:
            print(f"  trace.parts_share {parts:.4f} (replayed parts / Handle; "
                  f"admission, engine lock and glue are the rest)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small data, for the self-test")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="damage one reference answer (self-test)")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    extra = []
    if args.tiny:
        extra.append("--tiny")
    if args.corrupt_reference:
        extra.append("--corrupt-reference")
    try:
        binary = build()
        if args.all:
            return run_all(binary, args.seed, args.seconds, extra)
        detail = run_one(binary, args.workload, args.seed, args.seconds,
                         args.trace, extra)
        line = result_line(detail, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        log(f"agorabench: {e}")
        return 2
    print_metrics(detail)
    print(line, flush=True)
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
