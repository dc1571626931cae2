#!/usr/bin/env python3
"""Build and run the tree-engine benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload galaxy|cube --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds an
optimized copy of the library plus the benchmark program in
.bench_build/perfbench (Release, -march=native, NBODY_CHAOS=OFF); later
calls only re-check the build. The program's standard output is passed through unchanged: its last
line is the JSON result. The exit code is the program's (1 when a
correctness check failed), or 2 when the checkout cannot be built.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """git commit when the checkout is a repository, plus a digest of the
    library and benchmark sources, which identifies the code either way."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return f"git:{commit},src-sha256:{h.hexdigest()[:16]}"


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources next to {HERE.name}/ "
             f"(expected src/ and CMakeLists.txt in {ROOT})")
    if not (build_dir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-march=native"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    r = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                        "--target", "nbody_perfbench"], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return build_dir / "nbody_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["galaxy", "cube"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    exe = build(build_dir)
    out_dir = build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    # The library reads its pool size and scheduling backend from the
    # environment: pin them (nproc threads, static backend) and drop every
    # other NBODY_* knob (fault injection, metric/trace sinks).
    env = {k: v for k, v in os.environ.items() if not k.startswith("NBODY_")}
    env["NBODY_THREADS"] = str(os.cpu_count() or 1)
    env["NBODY_BACKEND"] = "static"
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", str(out_dir), "--source", source_id()]
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"nbody_perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
