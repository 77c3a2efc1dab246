#!/usr/bin/env python3
"""Wall-clock benchmark of the dphls host programs, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload align-batch --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/METRICS.md for the metric reference):

  align-batch  dphls_align --kernel local-affine --threads 3 on seeded
               distinct ~1 kb DNA pairs at ~5% divergence
  serve-short  dphls_serve --kernel global-affine --nk 2 --threads 2 on a
               Unix socket, driven open-loop by perfbench_probe loadgen
  map-reads    dphls_map on a seeded 2 Mb genome, 2/3 short and 1/3 long reads
               (runs and checks like the others; not listed in BENCHMARK.json)

--trace 0 runs the programs as a user would, checks every output and
prints the end-to-end metrics; --trace 1 runs the traced in-process
replay (perfbench_probe trace) and prints the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. --smoke shrinks every input so a run takes seconds; --out
writes the result with its environment stamp for compare.py.

The program and the probe are built from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build); inputs and scratch files live
in .bench_work and are removed at exit.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Interactive latency limit of serve-short (also stated in BENCHMARK.json).
SLO_MS = 20.0
# serve-short offered load: interactive single-pair requests per second
# at the fixed rate and in the sweep for sustained_rps. The request mix
# (bulk rate and size, deadline, pair lengths) is fixed in the probe
# (perfbench/probe/loadgen.hh) and echoed in its output.
FIXED_RPS = 2000.0
SWEEP_RPS = [8000.0, 16000.0, 24000.0, 32000.0]
WARMUP_S = 0.5
# serve-short throughput phase: a closed loop that keeps this many
# interactive requests outstanding, so the daemon sets the rate. Its
# request count is CLOSED_SIZING_RPS x its share of --seconds, the same
# for every seed.
CLOSED_IN_FLIGHT = 32
CLOSED_SIZING_RPS = 15000
# workloads::MapperConfig::windowPad: a read is placed when its reported
# start lies this close to its true origin.
MAP_WINDOW_PAD = 64

# Shares of --seconds spent at the fixed rate, in the closed loop (at
# about CLOSED_SIZING_RPS) and at each swept rate. The daemon's rate
# swings by tens of percent from one second to the next on a shared
# host, so the closed loop gets most of the run.
SERVE_FIXED_SHARE = 0.15
SERVE_CLOSED_SHARE = 0.7
SERVE_SWEEP_SHARE = 0.03
SERVE_WINDOWS = 9

# align-batch's set-up input: one pair, cut to this many bp from the
# first seeded pair, so that the alignment itself is a small share of it.
SETUP_PAIR_BP = 64

SIZES = {
    "full": {
        "align_pairs": 1000, "align_samples": 6,
        "map": (2000000, 160, 80),  # genome bp, short reads, long reads
        # align: set-up runs after each measured invocation; serve:
        # daemon launches, half before and half after the load.
        "align_setup_repeats": 4, "serve_setup_repeats": 60,
        "map_setup_repeats": 5,
    },
    "smoke": {
        "align_pairs": 40, "align_samples": 2,
        "map": (100000, 12, 4),
        "align_setup_repeats": 1, "serve_setup_repeats": 4,
        "map_setup_repeats": 2,
    },
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


class Processes:
    """Every child started by the run; all are stopped and reaped at exit.

    A child's kill timer starts with the child, so one that hangs while
    its output is being read is still killed on time. Each child leads
    its own process group, and the whole group is killed, so nothing it
    started keeps its pipes open. A child is reaped only after its
    timer can no longer fire, so a timer never signals a reused pid."""

    def __init__(self):
        self.live = []
        self.lock = threading.Lock()

    def start(self, cmd, timeout, **kw):
        """Start @p cmd; it is killed if it runs longer than @p timeout s."""
        p = subprocess.Popen(cmd, start_new_session=True, **kw)
        p.done = p.expired = False
        p.timer = threading.Timer(timeout, self._expire, (p,))
        p.timer.daemon = True
        self.live.append(p)
        p.timer.start()
        return p

    def _expire(self, p):
        with self.lock:
            if not p.done:
                p.expired = True
                os.killpg(p.pid, signal.SIGKILL)

    def exited(self, p):
        """Whether @p p has exited, without reaping it."""
        return os.waitid(os.P_PID, p.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None

    def wait(self, p):
        """Reap @p p; returns (exit code, peak RSS in MB)."""
        os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
        with self.lock:
            p.done = True
        p.timer.cancel()
        _, status, ru = os.wait4(p.pid, 0)
        self.live.remove(p)
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.expired:
            raise BenchError(f"{os.path.basename(p.args[0])} timed out")
        return p.returncode, ru.ru_maxrss / 1024.0

    def kill(self, p):
        if p in self.live:
            with self.lock:
                p.done = True
                try:
                    os.killpg(p.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            p.timer.cancel()
            p.wait()
            self.live.remove(p)

    def stop_all(self):
        for p in list(self.live):
            self.kill(p)


PROCS = Processes()


def run(cmd, timeout=170, stdout_path=None):
    """Run @p cmd to completion; returns (stdout text, wall s, peak RSS MB)."""
    out = open(stdout_path, "w") if stdout_path else subprocess.PIPE
    t0 = time.perf_counter()
    p = PROCS.start(cmd, timeout, stdout=out, stderr=subprocess.PIPE)
    text = ""
    if not stdout_path:
        text = p.stdout.read().decode()
    err = p.stderr.read().decode()
    code, rss = PROCS.wait(p)
    wall = time.perf_counter() - t0
    if stdout_path:
        out.close()
        with open(stdout_path) as f:
            text = f.read()
    if code != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {code}: {err.strip()[-400:]}")
    return text, wall, rss


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    bdir = build_dir()
    cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    tgt = ["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1)),
           "--target", "perfbench_probe", "dphls_align", "dphls_serve", "dphls_map"]
    for cmd in (cfg, tgt):
        p = PROCS.start(cmd, 880, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = p.stderr.read().decode()
        code, _ = PROCS.wait(p)
        if code != 0:
            raise BenchError(f"build failed: {err.strip()[-800:]}")
    return {"probe": os.path.join(bdir, "perfbench_probe"),
            "align": os.path.join(bdir, "dphls", "dphls_align"),
            "serve": os.path.join(bdir, "dphls", "dphls_serve"),
            "map": os.path.join(bdir, "dphls", "dphls_map")}


def probe_json(bins, *args):
    text, _, _ = run([bins["probe"], *args])
    return json.loads(text.strip().splitlines()[-1])


def stamp(bins, seed):
    env = probe_json(bins, "env")
    env.update({"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
                "seed": seed})
    return env


# -------------------------------------------------------------- statistics

def percentile(values, p):
    """Nearest-rank percentile, @p p in (0, 1]."""
    v = sorted(values)
    return v[max(1, math.ceil(p * len(v))) - 1]


def slices(values, k):
    """@p values cut into @p k consecutive slices (fewer if too short)."""
    n = len(values)
    k = max(1, min(k, n))
    return [values[n * w // k:n * (w + 1) // k] for w in range(k)]


def windowed(values, k, p):
    """Median over @p k consecutive slices of @p values of the slice's
    percentile @p p: a tail figure that a stall in one slice cannot move."""
    return statistics.median(percentile(v, p) for v in slices(values, k))


def batch_figures(walls, work, items, rss, setups, rep):
    """End-to-end metrics of a batch workload from its invocations.

    The host's speed changes by tens of percent from one invocation to
    the next, so one invocation's time is bimodal. Rates are therefore
    total work over total wall time, the typical latency is the median
    of the means of 5 consecutive slices of the invocations, and the
    tails are medians over 3 slices of the slice's percentile (its
    maximum, for slices of at most 10 invocations). Peak RSS moves in
    steps of one traceback bank with the number of tickets in flight,
    so the mean over invocations is reported.
    """
    total, n = sum(walls), len(walls)
    p50 = statistics.median(statistics.fmean(v) for v in slices(walls, 5))
    rep(f"p50_ms {1e3 * p50:.4f} ms")
    rep(f"p90_ms {1e3 * windowed(walls, 3, 0.9):.4f} ms")
    rep(f"p99_ms {1e3 * windowed(walls, 3, 0.99):.4f} ms")
    return {
        "setup_s": statistics.median(setups),
        "gcups": work * n / total / 1e9,
        "reads_per_s": items * n / total,
        "peak_rss_mb": statistics.fmean(rss),
    }


# ------------------------------------------------------------- align-batch

def parse_align(text, expect_pairs):
    rows = []
    for line in text.splitlines():
        if not line or line[0] == "#" or line.startswith("query "):
            continue
        f = line.split()
        if len(f) != 5:
            raise BenchError(f"malformed dphls_align line: {line[:80]}")
        rows.append(tuple(f))
    if len(rows) != expect_pairs:
        raise BenchError(f"dphls_align printed {len(rows)} of {expect_pairs} pairs")
    return rows


def measure(cmd, out_path, seconds, check, between=None):
    """One warm-up invocation of @p cmd, then invocations until @p seconds
    have passed (at least three). @p check(output) returns the number of
    wrong items and sees every output, the warm-up's too. @p between(),
    if given, runs after each measured invocation, outside its timing.
    Returns the measured walls, their peak RSS (MB), the invocations
    checked and the wrong items."""
    walls, rss, runs, wrong = [], [], 0, 0
    t_end = None
    while t_end is None or len(walls) < 3 or time.perf_counter() < t_end:
        text, wall, peak = run(cmd, stdout_path=out_path)
        wrong += check(text)
        runs += 1
        if t_end is None:
            t_end = time.perf_counter() + seconds
            continue
        walls.append(wall)
        rss.append(peak)
        if between:
            between()
    return walls, rss, runs, wrong


def report_walls(rep, walls):
    rep(f"# latency: one invocation is one request, {len(walls)} measured: "
        + " ".join(f"{w:.3f}" for w in walls) + " s")


def align_batch(bins, work, seed, seconds, sz, rep):
    q, r = os.path.join(work, "q.fa"), os.path.join(work, "r.fa")
    q1, r1 = os.path.join(work, "q1.fa"), os.path.join(work, "r1.fa")
    n = sz["align_pairs"]
    run([bins["probe"], "gen-align", "--seed", str(seed), "--pairs", str(n),
         "--query", q, "--reference", r])
    for src, dst in ((q, q1), (r, r1)):
        with open(src) as f:
            name, residues = f.readline(), ""
            while len(residues) < SETUP_PAIR_BP:
                residues += f.readline().strip()
        with open(dst, "w") as f:
            f.write(name + residues[:SETUP_PAIR_BP] + "\n")
    cmd = [bins["align"], "--kernel", "local-affine", "--threads", "3"]
    # Set-up runs are spread over the measured period, so their median
    # sees the same host as the invocations.
    setups = []

    def set_up():
        for _ in range(sz["align_setup_repeats"]):
            setups.append(run(cmd + ["--query", q1, "--reference", r1])[1])

    ref_rows, bad, digests = None, set(), set()

    def check(text):
        nonlocal ref_rows, bad
        rows = parse_align(text, n)
        digests.add(hashlib.sha256(repr(rows).encode()).hexdigest()[:16])
        if ref_rows is None:
            ref_rows = rows
            if any(row[0] != f"q{i:06d}" or row[1] != f"r{i:06d}"
                   for i, row in enumerate(rows)):
                raise BenchError("dphls_align output is not in input order")
            bad = check_align_sample(bins, q, r, rows, seed, sz["align_samples"])
        return sum(1 for i, row in enumerate(rows) if row != ref_rows[i] or i in bad)

    walls, rss, runs, failed = measure(cmd + ["--query", q, "--reference", r],
                                       os.path.join(work, "align.out"), seconds, check,
                                       set_up)
    rep(f"# align-batch: {runs} invocations of {n} pairs (1 warm-up), {len(setups)} "
        f"set-up runs on one {SETUP_PAIR_BP} bp pair, "
        f"{len(digests)} distinct output digest(s) {sorted(digests)}, "
        f"{sz['align_samples']} pairs re-scored by the golden aligner, {len(bad)} wrong")
    report_walls(rep, walls)
    return batch_figures(walls, pairs_cells(q, r), n, rss, setups, rep), runs * n, failed


def pairs_cells(qpath, rpath):
    def lengths(path):
        out, cur = [], None
        with open(path) as f:
            for line in f:
                if line.startswith(">"):
                    if cur is not None:
                        out.append(cur)
                    cur = 0
                else:
                    cur += len(line.strip())
        out.append(cur)
        return out
    return float(sum(a * b for a, b in zip(lengths(qpath), lengths(rpath))))


def check_align_sample(bins, q, r, rows, seed, k):
    """Indices whose score, CIGAR or cycles differ from the golden model."""
    n = len(rows)
    idx = sorted({(seed * 7919 + i * 104729) % n for i in range(k)})
    golden = probe_json(bins, "expect-align", "--query", q, "--reference", r,
                        "--indices", ",".join(map(str, idx)))
    bad = set()
    for g in golden:
        row = rows[g["index"]]
        if (float(row[2]) != g["score"] or row[4] != g["cigar"]
                or int(row[3]) != g["cycles"]):
            bad.add(g["index"])
    return bad


# --------------------------------------------------------------- map-reads

def gen_map(bins, work, seed, genome, short, long_):
    paths = {k: os.path.join(work, f"map_{k}") for k in ("ref", "reads", "truth")}
    run([bins["probe"], "gen-map", "--seed", str(seed), "--genome", str(genome),
         "--short", str(short), "--long", str(long_),
         "--reference", paths["ref"], "--reads", paths["reads"],
         "--truth", paths["truth"]])
    return paths


def map_reads(bins, work, seed, seconds, sz, rep):
    genome, n_short, n_long = sz["map"]
    p = gen_map(bins, work, seed, genome, n_short, n_long)
    truth = {}
    with open(p["truth"]) as f:
        for line in f:
            name, start, length = line.split()
            truth[name] = (int(start), int(length))
    # Set-up: reference parse, index build and pipeline construction,
    # measured as the same command on a one-read input.
    one = os.path.join(work, "map_one.fa")
    with open(p["reads"]) as src, open(one, "w") as dst:
        lines = src.read().split(">")[1:]
        first_short = next(rec for rec in lines if rec.startswith("s"))
        dst.write(">" + first_short)
    cmd = [bins["map"], "--reference", p["ref"]]
    setups = [run(cmd + ["--reads", one])[1] for _ in range(sz["map_setup_repeats"])]

    ref_rows, placed_fracs, cells = None, [], 0.0

    def check(text):
        nonlocal ref_rows, cells
        rows, wrong = {}, 0
        for line in text.splitlines():
            if not line or line[0] == "#" or line.startswith("read "):
                continue
            f = line.split()
            if len(f) != 9 or f[0] not in truth or f[0] in rows:
                wrong += 1
                continue
            rows[f[0]] = tuple(f)
        wrong += len(truth) - len(rows)
        if ref_rows is None:
            ref_rows = rows
            # Cells of the reported alignments: read x reference span.
            cells = float(sum(truth[k][1] * (int(f[3]) - int(f[2]))
                              for k, f in rows.items() if f[1] == "yes"))
        wrong += sum(1 for k, v in rows.items() if ref_rows.get(k) != v)
        placed = sum(1 for k, f in rows.items() if f[1] == "yes" and
                     abs(int(f[2]) - truth[k][0]) <= MAP_WINDOW_PAD)
        placed_fracs.append(placed / len(truth))
        return wrong

    walls, rss, runs, failed = measure(cmd + ["--reads", p["reads"]],
                                       os.path.join(work, "map.out"), seconds, check)
    rep(f"# map-reads: {runs} invocations (1 warm-up) of {len(truth)} reads "
        f"({n_short} short, {n_long} long) on {genome} bp")
    rep(f"placed_frac {placed_fracs[0]:.6f} ratio")
    if len(set(placed_fracs)) != 1:
        raise BenchError("placed_frac differs between invocations of one input")
    report_walls(rep, walls)
    return batch_figures(walls, cells, len(truth), rss, setups, rep), runs * len(truth), failed


# ------------------------------------------------------------- serve-short

HELLO, HELLO_OK, SHUTDOWN, SHUTDOWN_OK = 1, 2, 9, 10


def frame(kind, rid, payload=b""):
    return struct.pack("<IBBHIQ", 0x4C485044, 1, kind, 0, len(payload), rid) + payload


def recv_frame(sock):
    def exactly(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("daemon closed the connection")
            buf += chunk
        return buf
    hdr = exactly(20)
    kind, length = hdr[5], struct.unpack("<I", hdr[8:12])[0]
    exactly(length)
    return kind


def start_daemon(bins, work, name):
    """Launch dphls_serve; returns (process, socket path, launch -> Hello s)."""
    path = os.path.relpath(os.path.join(work, name))
    cmd = [bins["serve"], "--socket", path, "--kernel", "global-affine",
           "--nk", "2", "--threads", "2"]
    t0 = time.perf_counter()
    p = PROCS.start(cmd, 170, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    kernel = b"global-affine"
    while True:
        if PROCS.exited(p):
            raise BenchError(f"dphls_serve exited early: {p.stderr.read().decode()[-400:]}")
        if time.perf_counter() - t0 > 30:
            raise BenchError("dphls_serve did not answer Hello")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.connect(path)
                s.sendall(frame(HELLO, 1, bytes([len(kernel)]) + kernel))
                if recv_frame(s) != HELLO_OK:
                    raise BenchError("dphls_serve refused Hello")
                return p, path, time.perf_counter() - t0
        except (FileNotFoundError, ConnectionRefusedError):
            time.sleep(0.00005)  # fine-grained: set-up is about 2 ms


def stop_daemon(p, path):
    """Shut the daemon down over its socket; returns (exit code, peak RSS MB)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(path)
        s.sendall(frame(SHUTDOWN, 1))
        if recv_frame(s) != SHUTDOWN_OK:
            raise BenchError("dphls_serve refused Shutdown")
    return reap_daemon(p)


def reap_daemon(p):
    return PROCS.wait(p)


def serve_short(bins, work, seed, seconds, sz, rep):
    setups = []

    def set_up(count):
        for _ in range(count):
            p, path, t = start_daemon(bins, work, f"setup{len(setups)}.sock")
            setups.append(t)
            code, _ = stop_daemon(p, path)
            if code != 0:
                raise BenchError("dphls_serve exited non-zero after set-up")

    set_up(sz["serve_setup_repeats"] // 2)

    fixed_s = max(0.5, seconds * SERVE_FIXED_SHARE)
    closed_n = max(500, round(CLOSED_SIZING_RPS * seconds * SERVE_CLOSED_SHARE))
    sweep_s = max(0.3, seconds * SERVE_SWEEP_SHARE)
    p, path, _ = start_daemon(bins, work, "serve.sock")
    res = probe_json(bins, "loadgen", "--socket", path, "--seed", str(seed),
                     "--rate", str(FIXED_RPS), "--seconds", str(fixed_s),
                     "--warmup", str(WARMUP_S),
                     "--closed-requests", str(closed_n),
                     "--in-flight", str(CLOSED_IN_FLIGHT),
                     "--sweep", ",".join(map(str, SWEEP_RPS)),
                     "--sweep-seconds", str(sweep_s),
                     "--shutdown", "1")
    code, rss = reap_daemon(p)
    set_up(sz["serve_setup_repeats"] - len(setups))

    fixed, closed, sweep = res["phases"][0], res["phases"][1], res["phases"][2:]
    inter = fixed["interactive_ms"]
    attempted = fixed["sent"] + closed["sent"]
    # A reject counts as a miss; every unanswered request is a failure.
    failed = (fixed["rejected"] + fixed["unanswered"] + closed["rejected"]
              + closed["unanswered"] + res["sample_mismatches"])
    problems = []
    if res["protocol_errors"]:
        problems.append(f"{res['protocol_errors']} protocol errors")
    if not res["accounting_closed"] or code != 0:
        problems.append("accounting not closed")
    for ph in sweep:
        if ph["unanswered"]:
            problems.append(f"{ph['unanswered']} unanswered at {ph['rate']:.0f}/s")
    if problems or not inter or not closed["interactive_ms"]:
        raise BenchError("serve-short: " + (", ".join(problems) or "no answers"))

    def tail(ph):
        return windowed(ph["interactive_ms"], SERVE_WINDOWS, 0.99)

    sustained = max((ph["rate"] for ph in [fixed] + sweep
                     if ph["interactive_ms"] and tail(ph) <= SLO_MS
                     and ph["rejected"] == 0 and ph["drain_s"] * 1e3 <= 20 * SLO_MS),
                    default=0.0)
    window = fixed["window_s"]
    rep(f"# serve-short: fixed {FIXED_RPS:.0f}/s interactive {res['min_len']}-"
        f"{res['max_len']} bp, deadline {res['deadline_ms']:.0f} ms, + "
        f"{res['bulk_rps']:.0f}/s bulk x {res['bulk_chunk']} pairs for {fixed_s:.2f} s; "
        f"closed loop {closed_n} requests x {CLOSED_IN_FLIGHT} in flight in "
        f"{closed['window_s']:.3f} s; sweep {SWEEP_RPS} x {sweep_s:.2f} s; "
        f"SLO p99 <= {SLO_MS:.0f} ms")
    rep(f"# latency: interactive due->response, {len(inter)} samples; p90 and p99 are "
        f"medians over {SERVE_WINDOWS} consecutive windows; bulk p99 of "
        f"{len(fixed['bulk_ms'])} samples")
    rep(f"p50_ms {statistics.median(inter):.4f} ms")
    rep(f"p90_ms {windowed(inter, SERVE_WINDOWS, 0.9):.4f} ms")
    rep(f"p99_ms {tail(fixed):.4f} ms")
    rep(f"bulk_p99_ms {percentile(fixed['bulk_ms'], 0.99):.4f} ms")
    rep(f"goodput_rps {sum(1 for x in inter if x <= SLO_MS) / window:.2f} 1/s")
    rep(f"sustained_rps {sustained:.0f} 1/s")
    rep(f"bench.gen_lag_p99_ms {percentile(fixed['lag_ms'], 0.99):.4f} ms")
    rep(f"closed_p50_ms {statistics.median(closed['interactive_ms']):.4f} ms")
    for ph in sweep:
        rep(f"#   sweep {ph['rate']:.0f}/s: p99 {tail(ph):.3f} ms, "
            f"{ph['rejected']} rejected, drain {1e3 * ph['drain_s']:.1f} ms")
    rep(f"# server isa {res['isa_tier']}, {res['samples_checked']} sampled fixed-rate "
        f"responses checked in-process, {res['sample_mismatches']} wrong")
    # Throughput is the closed loop's: answered pairs and cells over its
    # window, a rate the daemon sets rather than the generator.
    return {
        "setup_s": statistics.median(setups),
        "gcups": closed["cells"] / closed["window_s"] / 1e9,
        "reads_per_s": closed["pairs"] / closed["window_s"],
        "peak_rss_mb": rss,
    }, attempted, failed


# ------------------------------------------------------------------ traced

def traced(bins, work, workload, seed, seconds, sz, rep):
    """The traced replay of every layer on the align and map inputs of
    @p seed; tracing overhead and closure are those of @p workload."""
    q, r = os.path.join(work, "q.fa"), os.path.join(work, "r.fa")
    run([bins["probe"], "gen-align", "--seed", str(seed), "--pairs", str(sz["align_pairs"]),
         "--query", q, "--reference", r])
    mp = gen_map(bins, work, seed, *sz["map"])
    # Shares of --seconds for the serve burst (run twice, untraced and
    # traced, when serve-short is the traced workload).
    burst = max(0.2, seconds * (0.3 if workload == "serve-short" else 0.05))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}.tsv")
    p, path, _ = start_daemon(bins, work, "trace.sock")
    # The probe's last serving burst shuts the daemon down.
    res = probe_json(bins, "trace", "--workload", workload, "--seed", str(seed),
                     "--align-query", q, "--align-ref", r,
                     "--map-ref", mp["ref"], "--map-reads", mp["reads"],
                     "--map-truth", mp["truth"], "--socket", path,
                     "--rate", str(FIXED_RPS), "--burst-seconds", str(burst),
                     "--service-seconds", str(min(2.0, burst)), "--spans", spans)
    code, _ = reap_daemon(p)
    if code != 0:
        raise BenchError("dphls_serve exited non-zero (accounting not closed)")
    rep(f"# traced run: spans in {os.path.relpath(spans, ROOT)}; self time by span:")
    for k in sorted(k for k in res if k.startswith("self_s.")):
        rep(f"#   {k[7:]:<28} {res[k]:.6f} s")
    rep(f"# mem.stream over {res['mem.stream_array_bytes'] / 2**20:.0f} MiB "
        f"(LLC {res['mem.llc_bytes'] / 2**20:.0f} MiB); systolic.tb_* bytes are computed, "
        f"not measured")
    # One traced replay is one attempt; it fails if the serve burst saw a
    # protocol error, a wrong sampled response or open accounting.
    failed = (res["serve.protocol_errors"] + res["serve.sample_mismatches"] > 0
              or res["serve.accounting_closed"] != 1)
    metrics = {k: v for k, v in res.items() if not k.startswith("self_s.")}
    return metrics, 1, int(failed)


# -------------------------------------------------------------------- main

WORKLOADS = {"align-batch": align_batch, "serve-short": serve_short,
             "map-reads": map_reads}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: every workload and check in seconds")
    ap.add_argument("--out", help="also write the result and environment stamp here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sz = SIZES["smoke" if args.smoke else "full"]

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bins = build()
        env = stamp(bins, args.seed)
        print("# env: " + json.dumps(env, sort_keys=True))
        lines = []
        if args.trace:
            values, attempted, failed = traced(bins, work, args.workload, args.seed,
                                               args.seconds, sz, lines.append)
        else:
            values, attempted, failed = WORKLOADS[args.workload](
                bins, work, args.seed, args.seconds, sz, lines.append)
            lines.append(f"failed_frac {failed / attempted:.6g} ratio")
        for line in lines:
            print(line)
        metrics = {}
        for m in wanted:
            if m["name"] not in values:
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
        result = {"correct": failed == 0, "attempted": int(attempted),
                  "failed": int(failed), "metrics": metrics}
        if args.out:
            with open(args.out, "w") as f:
                json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                           "trace": args.trace, "result": result}, f, indent=1)
        print(json.dumps(result), flush=True)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr, flush=True)
        return 1
    finally:
        PROCS.stop_all()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
