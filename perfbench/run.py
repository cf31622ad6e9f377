#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload hot-plan --seed 1 --seconds 10 --trace 0

Builds ckpt_serve and the benchmark client from source (release profile,
in .perfbench_build/), then runs the client, which starts the server,
drives it, checks every reply and prints the result object as the last
line of stdout.  Everything else goes to stderr.  See perfbench/README.md.

Exit codes: 0 with a result; 1 when the run or its self-checks failed;
2 when the tree to build is not there.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".perfbench_build"
SERVER = "bin/ckpt_serve.exe"
CLIENT = "perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("hot-plan", "cold-solve", "durable-telemetry")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return next((c for c in candidates if os.access(c, os.X_OK)), None)


def build():
    dune = find_dune()
    if dune is None:
        log("dune is not installed")
        return False
    # No shared build cache: the build reads and writes only the checkout.
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache=disabled", "./" + SERVER, "./" + CLIENT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"build took longer than {BUILD_TIMEOUT_S} s")
        return False
    return done.returncode == 0


def reap_group(client):
    """Kill whatever is left in the client's process group (the server,
    if the client died before stopping it), wait until it is gone, and
    remove the temporary directories the client did not."""
    pgid = client.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    client.wait()
    deadline = time.monotonic() + 10
    try:
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass
    for leftover in glob.glob(os.path.join(ROOT, ".perfbench_tmp", f"run-{pgid}-*")):
        shutil.rmtree(leftover, ignore_errors=True)


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict) and result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = ["dune-project", "bin/ckpt_serve.ml", "lib/net/server.ml", "perfbench/dune"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"not a checkout of the repository (missing {', '.join(missing)})")
        return 2
    if not build():
        log("build failed")
        return 1

    built = os.path.join(ROOT, BUILD_DIR, "default")
    cmd = [os.path.join(built, CLIENT), "--server", os.path.join(built, SERVER),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    client = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)

    def stop(signum, _frame):
        reap_group(client)
        log(f"stopped by signal {signum}")
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = client.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run took longer than {RUN_TIMEOUT_S} s")
        return 1
    finally:
        reap_group(client)

    lines = out.decode(errors="replace").splitlines()
    if client.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write("\n".join(lines) + "\n")
        log(f"the run failed (exit code {client.returncode})")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
