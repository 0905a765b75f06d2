#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <stabilize|churn|keyspace|kv-tcp> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. Builds `perfbench` (its own cargo
workspace, with the program crates as path dependencies) and the program's
`node` binary into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the workload with a hard deadline. The last line of standard output is the
benchmark's result; build output goes to standard error. Exits nonzero if
the build fails, a correctness gate fails, or the deadline passes.
"""

import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end well inside three minutes; the build is not counted.
RUN_DEADLINE_S = 170


def build(env):
    steps = [
        (["cargo", "build", "--release", "--offline", "-q",
          "--manifest-path", str(HERE / "Cargo.toml")], HERE),
        (["cargo", "build", "--release", "--offline", "-q",
          "-p", "rechord_net", "--bin", "node"], ROOT),
    ]
    for cmd, cwd in steps:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository counts, not one around it.
        if out.returncode == 0 and len(lines) == 2 and pathlib.Path(lines[0]) == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stabilize", "churn", "keyspace", "kv-tcp"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the test")
    args = ap.parse_args()

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
        env["CARGO_TARGET_DIR"] = str(target)
    build(env)
    env["PERFBENCH_COMMIT"] = source_id()

    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--node-bin", str(target / "release" / "node"),
           "--out-dir", str(ROOT / ".bench_out")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    # Own process group, so the node processes the benchmark spawns die
    # with it if the deadline passes.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_DEADLINE_S} s", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None or code != 0:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
