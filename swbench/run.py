#!/usr/bin/env python3
"""Build swbench from source, then run one measurement.

    python3 swbench/run.py --workload eval_cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/swbench
(default .bench_build/swbench); build output goes to stderr so that the
last line of stdout is the benchmark's JSON result.  Arguments other than
--trace are passed through to the swbench binary; --trace 1 also writes a
Perfetto-readable trace next to the build.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "swbench")


def revision():
    """The git revision, or a digest of src/ outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def ensure_built():
    """Configures and builds the binary (both no-ops when up to date);
    returns its path."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", out, *generator,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 4)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "swbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args, rest = parser.parse_known_args()
    try:
        binary = ensure_built()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"swbench: build failed: {e}", file=sys.stderr)
        return 1
    trace_out = os.path.join(build_dir(),
                             f"trace-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--trace-out", trace_out, "--revision", revision(), *rest]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"swbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
