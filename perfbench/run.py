#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the benchmark with sbt
(perfbench/build.sbt compiles the repository's main sources together with
the harness in perfbench/src) and caches the classpath under .bench_build/;
later runs reuse it while no source file has changed. The run itself is one
JVM (repro.perfbench.Main). Its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics, is checked against the metric
names and units in BENCHMARK.json before it is printed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Spark on Java 17 needs these module openings (as spark-submit adds them).
JAVA_OPENS = [
    f"--add-opens=java.base/{pkg}=ALL-UNNAMED"
    for pkg in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
                "java.net", "java.nio", "java.util", "java.util.concurrent",
                "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
                "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for top in (ROOT / "src" / "main", HERE / "src" / "main"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    return files


def stamp():
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def classpath():
    """The runtime classpath, building first when a source has changed."""
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp.txt"
    want = stamp()
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == want:
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    with open(log, "w") as out:
        try:
            done = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdout=out,
                                  stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out; see {log}")
    lines = log.read_text().splitlines()
    # `export` prints the classpath as a bare line; sbt's own lines start with "[".
    exported = [ln.strip() for ln in lines if ln.strip() and not ln.startswith("[")]
    if done.returncode != 0 or not exported:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"build failed; see {log}")
    cp = exported[-1]
    cp_file.write_text(cp)
    stamp_file.write_text(want)
    return cp


def check_result(line, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        fail("run from the repository root: src/main/scala/repro and BENCHMARK.json are needed")
    cp = classpath()

    work = BUILD / "work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    cmd = ["java", "-XX:+UseParallelGC", "-Xms1g", "-Xmx3g", f"-Djava.io.tmpdir={tmp}", *JAVA_OPENS, "-cp", cp,
           "repro.perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
