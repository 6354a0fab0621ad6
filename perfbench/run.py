#!/usr/bin/env python3
"""End-to-end benchmark of the PCR pipeline (encode, DSv2 read, training).

Run from the repository root:

    python3 perfbench/run.py --workload imagenet-scan1-train --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload ham-scan10-train --seed 1 --seconds 8 --trace 1
    python3 perfbench/run.py --selftest

The first run builds the library and the benchmark with sbt (the build in
this directory depends on the repository's own build) and caches the
classpath under `.bench_build/`. Each run then starts one JVM with a fixed
heap for one workload. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the full record of the
run (settings, environment, every operation and check) is written to
`.bench_build/results/`, and a traced run also writes its spans there.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("imagenet-scan1-train", "ham-scan10-train", "imagenet-encode")

HEAP = "2g"          # -Xms = -Xmx, so heap sizing never varies within a run
MAX_THREADS = 4      # 32 records per workload: at least 8 per task thread
RUN_LIMIT_S = 170    # a run must end within 180 s once the build is done
BUILD_LIMIT_S = 840

# Module opens Spark's own launcher would pass on JDK 17.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads, so a change to any of them rebuilds."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt"),
             os.path.join(ROOT, "project", "build.properties"),
             os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, cwd, limit_s, stdout, stderr):
    """Run `cmd` in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=stderr,
                         stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} exceeded {limit_s} s")
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    return p.returncode, out


def classpath():
    """Build once per source digest and return the benchmark's classpath."""
    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"not a checkout of the repository: {need} is missing under {ROOT}")
    digest = source_digest()
    stamp = os.path.join(BUILD, "classpath.json")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            cached = json.load(fh)
        if cached.get("digest") == digest and all(os.path.exists(p) for p in cached["classpath"]):
            return cached["classpath"], digest
    os.makedirs(BUILD, exist_ok=True)
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    log = os.path.join(BUILD, "build.log")
    with open(log, "wb") as fh:
        code, _ = run_bounded(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "export Runtime/fullClasspath"], HERE, BUILD_LIMIT_S, fh, subprocess.STDOUT)
    with open(log, errors="replace") as fh:
        lines = fh.read().splitlines()
    if code != 0:
        print("\n".join(lines[-30:]), file=sys.stderr)
        fail(f"build failed (exit {code}); see {log}")
    cp = [l for l in lines if not l.startswith("[") and os.pathsep in l]
    if not cp:
        fail(f"build printed no classpath; see {log}")
    entries = cp[-1].strip().split(os.pathsep)
    with open(stamp, "w") as fh:
        json.dump({"digest": digest, "classpath": entries}, fh)
    return entries, digest


def source_id(digest):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return f"git {sha}; sources sha256 {digest}" if sha else f"sources sha256 {digest}"


def threads():
    """Task threads: one core is left to the Spark driver thread, the JIT
    and the GC, which otherwise take time from tasks unevenly across runs."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(MAX_THREADS, n - 1))


def run_jvm(cp, digest, workload, seed, seconds, trace, extra=()):
    """Run one workload in a fresh JVM; return (exit code, stdout lines)."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(BUILD, "work", tag)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "logs"), exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
           *[f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS],
           "-cp", os.pathsep.join(cp), "pcrbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--threads", str(threads()),
           "--work", work, "--out", os.path.join(BUILD, "results"),
           "--source-id", source_id(digest), *extra]
    log = os.path.join(BUILD, "logs", f"{tag}.log")
    try:
        with open(log, "wb") as err:
            code, out = run_bounded(cmd, ROOT, RUN_LIMIT_S, subprocess.PIPE, err)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.decode(errors="replace").splitlines()
    if code != 0:
        with open(log, errors="replace") as fh:
            print("".join(fh.readlines()[-30:]), file=sys.stderr)
    return code, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return r


def selftest():
    """Tiny runs: every metric is printed with its unit, and a record with a
    flipped byte is counted as a failed operation rather than a crash."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"]
    cp, digest = classpath()
    problems = []

    def run(workload, trace, extra=()):
        code, lines = run_jvm(cp, digest, workload, 7, 1, trace, ("--tiny", *extra))
        r = parse_result(lines)
        if code != 0 or r is None:
            problems.append(f"{workload} trace={trace} {extra}: exit {code}, no result")
        return r

    for w in WORKLOADS:
        for trace in (0, 1):
            r = run(w, trace)
            if r is None:
                continue
            got = {k: v.get("unit") for k, v in r["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} trace={trace}: metrics {got} != {want[trace]}")
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                problems.append(f"{w} trace={trace}: not correct: {r}")
            print(f"selftest {w} trace={trace}: ok={not problems} {json.dumps(r)}")
    for w in ("imagenet-scan1-train", "imagenet-encode"):
        r = run(w, 0, ("--corrupt",))
        if r is not None and (r["correct"] or r["failed"] < 1):
            problems.append(f"{w}: a flipped byte was not counted as a failure: {r}")
        print(f"selftest {w} with one flipped byte: {json.dumps(r)}")
    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        sys.exit(selftest())
    if a.workload is None:
        ap.error("--workload is required")
    started = time.time()
    cp, digest = classpath()
    code, lines = run_jvm(cp, digest, a.workload, a.seed, a.seconds, a.trace)
    result = parse_result(lines)
    if code != 0 or result is None:
        fail(f"run failed (exit {code}) after {time.time() - started:.1f} s")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
