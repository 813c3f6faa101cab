#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe, its
host-speed yardstick perfbench/hostcal.exe and the mbac_serve daemon
with dune (release profile, build directory .bench_build), runs
main.exe, checks that its result line carries exactly the metrics
BENCHMARK.json declares for the mode, and passes its output through.  Exits non-zero without a result line if the build,
the run or that check fails.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
PROGRAM = "perfbench/main.exe"
DAEMON = "bin/mbac_serve.exe"
HOSTCAL = "perfbench/hostcal.exe"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [*dune, "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./" + PROGRAM, "./" + DAEMON,
           "./" + HOSTCAL]
    # dune's progress and errors go to stderr; stdout stays the program's
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return [os.path.join(BUILD_DIR, "default", p)
            for p in (PROGRAM, DAEMON, HOSTCAL)]


def declared(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    want = declared(args["--trace"])
    program, daemon, hostcal = build()
    # own process group, so a timeout also stops the processes it spawned
    proc = subprocess.Popen([program, *argv, "--daemon", daemon,
                             "--hostcal", hostcal],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        fail("run timed out")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    sys.stdout.write(out)


if __name__ == "__main__":
    main(sys.argv[1:])
