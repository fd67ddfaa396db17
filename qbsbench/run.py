#!/usr/bin/env python3
"""Run one workload of the QbS benchmark and print its result as the last line.

    python3 qbsbench/run.py --workload qbs-hub --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (offline, from the local caches) and records the
resulting classpath under qbsbench/target; later runs reuse it until a source or
build file changes. Each run is one JVM process, which this script starts, watches
and waits for. Everything a run writes stays under qbsbench/target.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is the run's report: pinned
configuration, set-up and warm-up detail, host readings and every failure.
"""

import argparse
import fcntl
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "target"
WORKLOADS = ("qbs-hub", "build")
HEAP = "2g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Mirrors the module opens that spark-submit passes on JDK 17 (the root build's
# sparkJvmOptions): GraphX shuffles go through Kryo, which reflects into java.nio.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"qbsbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_inputs():
    """Every file whose change requires a rebuild, in a stable order."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"):
        if d.is_dir():
            files += sorted(p for p in d.rglob("*") if p.is_file())
    return [f for f in files if f.is_file()]


def fingerprint():
    h = hashlib.sha256()
    for f in build_inputs():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def classpath():
    """The benchmark's runtime classpath, building with sbt first if needed."""
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = OUT / "classpath.txt"
    with open(OUT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fp = fingerprint()
        if stamp.is_file():
            lines = stamp.read_text().splitlines()
            if len(lines) == 2 and lines[0] == fp:
                return lines[1]
        print("qbsbench: building with sbt", file=sys.stderr)
        try:
            res = subprocess.run(
                ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                cwd=BENCH, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail(f"sbt exited with {res.returncode}")
        cp = [l for l in res.stdout.splitlines() if l.strip() and not l.startswith("[")]
        if not cp or ".jar" not in cp[-1]:
            sys.stderr.write(res.stdout[-4000:])
            fail("sbt printed no classpath")
        stamp.write_text(f"{fp}\n{cp[-1].strip()}\n")
        return cp[-1].strip()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    # the program is built from the checkout's sources; without them there is
    # nothing to measure
    for needed in (ROOT / "build.sbt", ROOT / "src" / "main" / "scala", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    if shutil.which("java") is None or shutil.which("sbt") is None:
        fail("java and sbt must be on PATH")
    want = expected_metrics(a.trace)
    cp = classpath()

    workdir = OUT / "run"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}",
           f"-Dlog4j2.configurationFile={(BENCH / 'log4j2.properties').as_uri()}",
           f"-Djava.io.tmpdir={workdir / 'tmp'}",
           f"-Dspark.local.dir={workdir / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={workdir / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1",
           "-Djdk.reflect.useDirectMethodHandle=false",
           "-Dio.netty.tryReflectionSetAccessible=true"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += ["-cp", cp, "qbsbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark process exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        fail("benchmark process printed no result")
    got = {k: m.get("unit") for k, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stderr.write(out)
        fail(f"result does not match BENCHMARK.json: metrics {sorted(got)} vs {sorted(want)}")
    for l in lines[:-1]:
        print(l)
    print(f"qbsbench: {a.workload} seed {a.seed} took {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
