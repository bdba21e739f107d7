#!/usr/bin/env python3
"""Build and run the platform benchmark.

    python3 peerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 peerbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; it works from the repository root. It builds the
`peerbench` crate (release, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs the workload in its own process. The last line
of stdout is the run's JSON result. Extra arguments (`--size tiny`,
`--wrong-expectation`) pass through to the binary.

`--workload all` runs every workload one after another, each in its own
process, and exits non-zero if any of them fails a check.

Exit codes: 0 all checks passed, 1 a correctness or determinism check
failed, 2 bad arguments, 3 the build failed, 4 the run timed out or
crashed.
"""

import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-attack", "dfz-churn", "scale-chaos"]
# A run must end within 180 s; leave room for process start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"peerbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    t = time.time()
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        log(f"build failed (exit {p.returncode})")
        sys.exit(3)
    log(f"build ok in {time.time() - t:.1f} s")
    return os.path.join(target_dir(), "release", "peerbench")


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["crates", "peerbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(binary, workload, args, env):
    cmd = [binary, "--workload", workload] + args
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    if p.returncode not in (0, 1):
        log(f"{workload} crashed (exit {p.returncode})")
        return 4
    return p.returncode


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        print(__doc__, file=sys.stderr)
        return 2
    i = argv.index("--workload")
    workload = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    names = WORKLOADS if workload == "all" else [workload]
    if any(n not in WORKLOADS for n in names):
        log(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)} or all")
        return 2
    binary = build()
    env = dict(os.environ, PEERBENCH_RUSTC=rustc_version(), PEERBENCH_REV=source_rev())
    worst = 0
    for name in names:
        worst = max(worst, run_one(binary, name, rest, env))
    return worst


if __name__ == "__main__":
    sys.exit(main())
