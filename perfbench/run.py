#!/usr/bin/env python3
"""Entry point of the (k,h)-core decomposition benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-comm --seed 5 --seconds 20 --trace 0

It builds the benchmark package (perfbench/build.sbt, which compiles the
repo's core and graphgen sources with it) when its sources changed since the
last build, then runs perfbench.Main on a fresh JVM. sbt runs offline. Its
log goes to stderr; stdout carries the benchmark's report, whose last line
is the JSON result. Build outputs, sbt's global directory, the classpath,
temporary files and span files stay under perfbench/.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROGRAM = [ROOT / "src" / "main" / "scala" / "repro" / pkg for pkg in ("core", "graphgen")]
BUILD_INPUTS = [HERE / "build.sbt", HERE / "project" / "build.properties", HERE / "src", *PROGRAM]
TMP = OUT / "tmp"
# No hsperfdata file in /tmp; temporary files stay in the checkout.
JVM_OPTS = ["-Xms1g", "-Xmx1g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={TMP}"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    for root in BUILD_INPUTS:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compiles the benchmark if needed; returns its runtime classpath."""
    missing = [str(p.relative_to(ROOT)) for p in PROGRAM if not p.is_dir()]
    if missing:
        fail("program sources not found (run from the root of a checkout): " + ", ".join(missing))
    stamp_file, cp_file = OUT / "build.stamp", OUT / "classpath.txt"
    digest = source_digest()
    if stamp_file.is_file() and cp_file.is_file() and stamp_file.read_text() == digest:
        return cp_file.read_text().strip()
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    cmd = ["sbt", "--batch", "-Dsbt.offline=true", "-Dsbt.server.autostart=false",
           "-Dsbt.log.noformat=true", f"-Dsbt.global.base={OUT / 'sbt-global'}",
           *("-J" + opt for opt in JVM_OPTS[2:]), "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    sys.stderr.write(proc.stdout)
    # `export` prints the classpath as a bare line after sbt's [info] log.
    exported = [l for l in proc.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if proc.returncode != 0 or not exported:
        fail(f"build failed with exit code {proc.returncode}")
    OUT.mkdir(exist_ok=True)
    cp_file.write_text(exported[-1])
    stamp_file.write_text(digest)
    return exported[-1]


def git_sha():
    """HEAD of the checkout if it is a git repository, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="default: the seed of the workload's Datasets analog")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    classpath = build()
    TMP.mkdir(parents=True, exist_ok=True)
    java = pathlib.Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), *JVM_OPTS, f"-Dperfbench.gitSha={git_sha()}", "-cp", classpath,
           "perfbench.Main", "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"benchmark exited with code {proc.returncode} and no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
