#!/usr/bin/env python3
"""Builds and runs the blink-db facade benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds `perfbench` (release, offline) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, runs it, and prints its output with a
provenance line added. The last line of standard output is the
benchmark's JSON result. Stores live under `.perfbench_tmp/` in the
current directory; this script removes them after each run, and removes
those of earlier runs whose process is gone before it starts one.
"""

import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STORE_ROOT = ".perfbench_tmp"
# A run measures for at most 60 s and sets up in well under a minute.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the binary's path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    binary = os.path.join(target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def remove_stale_stores():
    """Removes store directories left by benchmark processes that are gone."""
    if not os.path.isdir(STORE_ROOT):
        return
    for name in os.listdir(STORE_ROOT):
        pid = name.rsplit("-", 1)[-1].split(".", 1)[0]
        if pid.isdigit() and not pid_alive(int(pid)):
            shutil.rmtree(os.path.join(STORE_ROOT, name), ignore_errors=True)


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    skip = {"target", "__pycache__"}
    for root in roots:
        paths = [root] if os.path.isfile(root) else []
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(args):
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "store_fs": command_output(["stat", "-f", "-c", "%T", STORE_ROOT]) or "unknown",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "argv": args,
    }


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(STORE_ROOT, exist_ok=True)
    remove_stale_stores()
    prov = provenance(args)
    proc = subprocess.Popen(
        [binary, *args, "--dir", STORE_ROOT], stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(STORE_ROOT) if os.path.isdir(STORE_ROOT) else []:
            if name.rsplit("-", 1)[-1].split(".", 1)[0] == str(proc.pid):
                shutil.rmtree(os.path.join(STORE_ROOT, name), ignore_errors=True)
        if os.path.isdir(STORE_ROOT) and not os.listdir(STORE_ROOT):
            os.rmdir(STORE_ROOT)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1
    config_prefix = "config "
    for line in lines[:-1]:
        if line.startswith(config_prefix):
            prov.update(json.loads(line[len(config_prefix):]))
        else:
            print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
