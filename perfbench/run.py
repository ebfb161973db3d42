#!/usr/bin/env python3
"""Build samplecf from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Builds `samplecfd` (the repository's daemon) and the `perfbench` binary in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
workload.  Build output goes to stderr; the last stdout line is the result
JSON.  See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the sources that are built, so a result names its code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = []
    for top in ("crates", "src", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            paths += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".rs", ".toml", ".lock", ".py"))]
    paths += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = out.stdout.strip() if out.returncode == 0 else "no-git"
    except (OSError, subprocess.SubprocessError):
        sha = "no-git"
    return f"{sha}+src:{source_digest()}"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "samplecfd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # stdout would mix with the result line; build output goes to stderr.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + [
        "--daemon", os.path.join(target, "release", "samplecfd"),
        "--out", os.path.join(HERE, "out"),
        "--commit", commit(),
    ]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
