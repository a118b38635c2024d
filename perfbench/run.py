#!/usr/bin/env python3
"""DiffCode benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the DiffCode libraries
and the benchmark program from source into .bench_build/perfbench
(Release); later runs reuse the build. The seeded 600-project corpus is
generated once into .bench_build/corpus and reused, outside the measured
process; ten corpora serve all seeds (see corpus_seed).
The last line of stdout is the result object printed by the program
(perfbench.cpp); everything else goes to stderr.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = ".bench_build"
BUILD = os.path.join(STATE, "perfbench")
CORPORA = os.path.join(STATE, "corpus")
WORK = os.path.join(STATE, "work")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("batch_corpus600", "session_append", "scan_projects")
# A corpus is ~240 MB of small files and takes 10-20 s to write (and as
# long to delete) on a shared VM, so a checkout holds at most ten: seed n
# runs on the corpus generated from seed 40 + n % 10 (so the default seed
# 42 runs on corpus 42), and n itself drives the session stream.
CORPUS_SEEDS = 10


def corpus_seed(seed):
    return 40 + seed % CORPUS_SEEDS


# A measured run must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def check(cmd):
    """Runs cmd with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log("failed: " + " ".join(cmd))
        sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + generator)
    check(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])


def corpus_for(seed):
    os.makedirs(CORPORA, exist_ok=True)
    path = os.path.join(CORPORA, "seed-%d" % corpus_seed(seed))
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        check([BINARY, "--generate", tmp, "--seed", str(corpus_seed(seed))])
        os.rename(tmp, path)
        # Flush the new files now, so writeback does not run during the
        # measured process.
        os.sync()
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    build()
    corpus = corpus_for(args.seed)
    os.makedirs(WORK, exist_ok=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", corpus, "--work", WORK]
    # Own process group, so a timeout also takes down the daemon child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench exited with %d" % proc.returncode)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    started = time.time()
    code = main()
    log("%.1f s" % (time.time() - started))
    sys.exit(code)
