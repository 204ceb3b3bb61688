#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve|report|update --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a source tree. The benchmark is built from source
with dune into .bench_build/ (spill files and traces go there too), then
perfbench.exe runs once; its standard output is passed through, and its
last line is the JSON result. Exits non-zero without a result when the
tree cannot be built or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a source tree of the program" % ROOT)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def main(argv):
    build()
    out_dir = os.path.join(BUILD, "perfbench-out")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # spill files stay inside the tree; no sort budget or GC setting
    # leaks in from the caller's environment
    env["TMPDIR"] = tmp
    for var in ("ALDSP_SORT_BUDGET", "OCAMLRUNPARAM"):
        env.pop(var, None)
    cmd = [EXE] + argv + ["--out-dir", out_dir, "--commit", source_revision()]
    try:
        r = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
