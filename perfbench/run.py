#!/usr/bin/env python3
"""Session benchmark for the tracer: record, live and readback.

Run from the repository root:

    python3 perfbench/run.py --workload record --seed 1 --seconds 20 --trace 0

--workload is record, live or readback (or "all", which runs the three
in turn and cross-checks their event totals). With --trace 0 the
workload drives the built rostracer and modelsynth binaries as a user
would and reports the end-to-end metrics; with --trace 1 the in-process
traced driver (perfbench/tracedrv) reports the per-layer metrics and
bench.trace_overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Everything the benchmark builds or writes lives under .bench_build/ in
the directory it is run from. See perfbench/README.md for why each
workload exists and which layer metric should move which end-to-end
metric.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
RAM = os.path.join(BUILD, "ram")
WORK = os.path.join(BUILD, "work")  # replaced by RAM once the tmpfs is mounted
NAMESPACE_ENV = "PERFBENCH_MOUNT_NS"

# Every session: AVP+SYN on 12 simulated CPUs, PID-filtered kernel
# tracer, 1 s drain segments. DURATION is the same for all three
# workloads so their event totals must agree for a given seed.
DURATION_S = 300
SESSION_ARGS = ["-app", "both", "-cpus", "12", "-segment", "1s"]
SNAPSHOT_EVERY_S = 5
LIVE_ARGS = ["-snapshot-every", "%ds" % SNAPSHOT_EVERY_S, "-metrics-addr", "127.0.0.1:0"]
SETUP_LAUNCHES = 60      # one-segment rostracer launches timed for setup_s
READBACK_RECORDINGS = 5  # store recordings timed for readback's setup_s
QUERY_SET = 40           # distinct seeded queries, cycled
MIN_QUERIES = stats.min_samples(0.9)  # 100: ten samples beyond p90
SESSION_QUERIES = 150    # record/live: queries after the sessions (p90 of 100 alone is too jumpy)
MIN_MODELS = 5           # full-session syntheses per readback run
CHILD_TIMEOUT_S = 60
BATCH = 10               # queries sharing one steal and speed measurement
LAUNCH_BATCH = 20        # launches sharing one steal and speed measurement
REF_CPU_S = 0.2          # nominal CPU seconds of perfbench/calib; times are scaled to it
CALIB_OUTPUT = "49 231759"
OVERHEAD_REPS = 3

WORKLOADS = ("record", "live", "readback")


class BenchError(Exception):
    """A set-up step failed: the run cannot produce a result."""


class StealMeter:
    """Share of CPU time the hypervisor stole over an interval.

    On a shared VM a vCPU that is runnable but not scheduled by the host
    stalls whatever runs on it; the guest kernel counts that time as
    steal in /proc/stat. Only runnable vCPUs accrue steal, so for one
    busy child the rate that applies to it is steal over busy (non-idle)
    time. Over a batch of short children the vCPUs are mostly idle and
    their steal comes from wake-ups, so there the share of all time is
    used. Where /proc/stat is unreadable both shares are 0.
    """

    def __init__(self):
        self.start = self._read()

    @staticmethod
    def _read():
        try:
            with open("/proc/stat") as f:
                t = [int(x) for x in f.readline().split()[1:9]]
        except (OSError, ValueError):
            return 0, 0, 0
        if len(t) < 8:
            return 0, 0, 0
        return t[7], sum(t), sum(t) - t[3] - t[4]  # steal, total, busy (not idle or iowait)

    def shares(self):
        """(steal over all time, steal over busy time) since creation."""
        now = self._read()
        steal, total, busy = (b - a for a, b in zip(self.start, now))
        return steal / total if total > 0 else 0.0, steal / busy if busy > 0 else 0.0


class Child:
    """One finished child process with its own resource usage."""

    def __init__(self, argv, rc, out, err, wall, cpu, maxrss_mb, steal):
        self.argv, self.rc, self.out, self.err = argv, rc, out, err
        self.wall, self.cpu, self.maxrss_mb, self.steal = wall, cpu, maxrss_mb, steal


class Sample:
    """One measured operation, in the units every metric reports.

    With steal share s (the child's own busy-time share, or the batch's
    all-time share for children too short to measure alone), the child
    lost s/(1-s) of its runnable time, min(cpu, wall), to the hypervisor,
    at most s * wall; that part is dropped. Of what remains, the CPU
    part is scaled by the speed factor measured next to the operation,
    and waiting on wake-ups and I/O is kept as measured.
    """

    def __init__(self, child, speed, batch_steal=None):
        s = min(child.steal if batch_steal is None else batch_steal, 0.9)
        stolen = min(s / (1 - s) * min(child.cpu, child.wall), s * child.wall)
        busy = min(child.cpu, child.wall - stolen)
        self.wall = child.wall - stolen - busy + busy * speed
        self.cpu = child.cpu * speed
        self.rss_mb = child.maxrss_mb
        RAW.append({"op": os.path.basename(child.argv[0]), "wall": child.wall, "cpu": child.cpu,
                    "rss_mb": child.maxrss_mb, "steal": s, "speed": speed})


RAW = []  # every sample before scaling, saved next to the spans for diagnosis


SPEEDS = []


def speed_factor():
    """REF_CPU_S over the CPU time the reference workload takes right now.

    A shared VM's vCPUs speed up and slow down by a third within minutes
    as neighbours come and go (hyperthread siblings, caches, clocks); the
    fixed reference run next to each measured operation tracks that, and
    scaling by it keeps the drift out of the program's numbers.
    """
    c = run_child([os.path.join(BIN, "calib")])
    if c.rc != 0 or c.out.strip() != CALIB_OUTPUT or c.cpu <= 0:
        raise BenchError("reference workload failed: exit %d, output %r" % (c.rc, c.out))
    SPEEDS.append(REF_CPU_S / c.cpu)
    return SPEEDS[-1]


def run_child(argv):
    """Run argv to completion, draining both pipes, and reap it with wait4.

    wait4 returns the child's own rusage, so CPU time and max RSS are this
    child's alone (RUSAGE_CHILDREN would keep a running max across runs).
    """
    meter = StealMeter()
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         stdin=subprocess.DEVNULL)
    bufs = {}

    def drain(name, f):
        bufs[name] = f.read()
        f.close()

    readers = [threading.Thread(target=drain, args=(n, f)) for n, f in (("out", p.stdout), ("err", p.stderr))]
    for t in readers:
        t.start()
    watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    watchdog.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    steal = meter.shares()[1]
    p.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    return Child(argv, p.returncode, bufs["out"].decode(errors="replace"),
                 bufs["err"].decode(errors="replace"), wall,
                 ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, steal)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    return env


def check_root():
    for need in ("go.mod", "cmd/rostracer", "cmd/modelsynth", "perfbench/tracedrv"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("run from the repository root: %s not found" % need)


def use_ram_store():
    """Put every store on a tmpfs mounted on RAM, private to this run.

    The first call re-executes the benchmark under `unshare --mount`, so
    the mount lives in a namespace of its own and disappears with the
    run; the second mounts the tmpfs. If either step is not permitted,
    stores stay in WORK on disk (the stamp's store_fs says which).
    """
    global WORK
    if os.environ.get(NAMESPACE_ENV) != "1":
        unshare = ["unshare", "--mount", "--propagation", "private"]
        try:
            ok = subprocess.run(unshare + ["true"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, timeout=30).returncode == 0
        except (OSError, subprocess.SubprocessError):
            ok = False
        if not ok:
            return
        sys.stdout.flush()
        os.execvpe(unshare[0], unshare + [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                   dict(os.environ, **{NAMESPACE_ENV: "1"}))
    os.makedirs(RAM, exist_ok=True)
    r = subprocess.run(["mount", "-t", "tmpfs", "-o", "size=1g,mode=0700", "perfbench", RAM],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if r.returncode == 0:
        WORK = RAM


def build():
    """Build the CLIs, the traced driver and the reference workload from
    this checkout's source."""
    os.makedirs(BIN, exist_ok=True)
    steps = [(ROOT, ["go", "build", "-o", BIN + "/", "./cmd/rostracer", "./cmd/modelsynth"]),
             (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", BIN + "/", "./tracedrv", "./calib"])]
    for cwd, argv in steps:
        r = subprocess.run(argv, cwd=cwd, env=go_env(), stdin=subprocess.DEVNULL,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
        if r.returncode != 0:
            raise BenchError("build failed: %s\n%s" % (" ".join(argv), r.stdout.decode(errors="replace")))


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def rtrc_files(store):
    return sorted(f for f in os.listdir(store) if f.endswith(".rtrc"))


def store_bytes(store):
    return sum(os.path.getsize(os.path.join(store, f)) for f in rtrc_files(store))


def store_digest(store):
    h = hashlib.sha256()
    for f in rtrc_files(store):
        h.update(f.encode())
        with open(os.path.join(store, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


SEG_RE = re.compile(r"^rostracer:\s+seg\s+\d+\s.*, lost \+(\d+) .*?( \[disk down: spilling\])?$", re.M)
SNAP_RE = re.compile(r"^rostracer:\s+snapshot \d+ at ", re.M)
EVENTS_RE = re.compile(r"^rostracer:\s+(\d+) events, [\d.]+ MB perf payload", re.M)
FSCK_RE = re.compile(r"total: (\d+) events recovered, (\d+)/(\d+) segments damaged, (\d+) bytes dropped")
SYNTH_RE = re.compile(r"^modelsynth: session \S+: (\d+) events", re.M)
QUERY_RE = re.compile(r"^modelsynth: session \S+: \d+/\d+ blocks read .* (\d+) matched", re.M)


def rostracer_argv(store, seed, live, duration_s=DURATION_S):
    argv = [os.path.join(BIN, "rostracer"), *SESSION_ARGS, "-duration", "%ds" % duration_s,
            "-seed", str(seed), "-out", store]
    return argv + LIVE_ARGS if live else argv


def modelsynth_argv(store, *extra):
    return [os.path.join(BIN, "modelsynth"), "-in", store, *extra]


class Tally:
    """Operations attempted and failed, with the first few failure reasons.

    A child that ran to completion is measured even when its output is
    wrong (the check fails, the run reports correct: false); crashes
    counts the children that did not complete, which stop a run early.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.crashes = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok


def check_windows(tally, err, live):
    """Count each drain window, and each live snapshot, as an operation:
    a window fails if it lost events or found the disk down."""
    segs = SEG_RE.findall(err)
    for lost, down in segs:
        tally.check(lost == "0" and not down, "drain window lost %s events%s" % (lost, down))
    tally.check(len(segs) == DURATION_S, "%d drain windows, want %d" % (len(segs), DURATION_S))
    if live:
        snaps = len(SNAP_RE.findall(err))
        for i in range(DURATION_S // SNAPSHOT_EVERY_S):
            tally.check(i < snaps, "snapshot %d missing (%d taken)" % (i + 1, snaps))


def record_session(tally, store, seed, live):
    """One rostracer session, then fsck; returns (child, events), or None
    if the session did not complete."""
    c = run_child(rostracer_argv(store, seed, live))
    check_windows(tally, c.err, live)
    m = EVENTS_RE.search(c.err)
    tally.check(c.rc == 0 and m is not None and "DEGRADED" not in c.err,
                "rostracer exit %d: %s" % (c.rc, c.err[-400:]))
    if m is None:
        tally.crashes += 1
        return None
    events = int(m.group(1))
    f = run_child(modelsynth_argv(store, "-fsck"))
    fm = FSCK_RE.search(f.out)
    ok = (f.rc == 0 and fm is not None and int(fm.group(1)) == events and fm.group(2) == "0"
          and int(fm.group(3)) == DURATION_S and fm.group(4) == "0")
    tally.check(ok, "fsck after session (seed %d): exit %d, %s" % (seed, f.rc, f.out[-300:]))
    return c, events


def setup_launches(tally, seed, live):
    """Median wall time of repeated one-segment rostracer launches."""
    walls = []
    for batch in range(0, SETUP_LAUNCHES, LAUNCH_BATCH):
        meter, done = StealMeter(), []
        for i in range(batch, min(batch + LAUNCH_BATCH, SETUP_LAUNCHES)):
            store = fresh_dir("setup")
            c = run_child(rostracer_argv(store, seed, live, duration_s=1))
            if tally.check(c.rc == 0, "one-segment launch exit %d: %s" % (c.rc, c.err[-300:])):
                done.append(c)
        steal, speed = meter.shares()[0], speed_factor()
        walls += [Sample(c, speed, steal).wall for c in done]
    shutil.rmtree(os.path.join(WORK, "setup"), ignore_errors=True)
    if not walls:
        raise BenchError("no one-segment launch succeeded")
    return stats.median(walls)


def session_metrics(samples, disk_bytes, events):
    return {
        "rtf": (stats.median([s.wall for s in samples]) / DURATION_S, "s/s"),
        "cpu_per_vsec": (stats.median([s.cpu for s in samples]) / DURATION_S, "s/s"),
        # Mean, not median: a child's peak lands in one of two modes
        # depending on where the GC happened to run, and the median of a
        # handful of samples jumps between them from run to run.
        "peak_rss_mb": (sum(s.rss_mb for s in samples) / len(samples), "MB"),
        "disk_bytes_per_event": (disk_bytes / events, "B"),
    }


def reference_events(tally, seed):
    """Event total of a plain record session for seed (untimed)."""
    store = fresh_dir("reference")
    r = record_session(tally, store, seed, live=False)
    shutil.rmtree(store, ignore_errors=True)
    if r is None:
        raise BenchError("reference record session failed")
    return r[1]


def workload_session(tally, seed, seconds, live):
    """record / live: repeated identical sessions for `seconds`, then the
    query latency a user sees on the store the last session wrote."""
    setup_s = setup_launches(tally, seed, live)
    expected = reference_events(tally, seed) if live else None
    children, disk, store = [], None, None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(children) < 3:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        store = fresh_dir("session")
        r = record_session(tally, store, seed, live)
        if r is not None:
            c, events = r
            if expected is None:
                expected = events
            tally.check(events == expected, "session event total %d != %d" % (events, expected))
            children.append(Sample(c, speed_factor()))
            disk = store_bytes(store)
        if tally.crashes >= 3:
            break
    if not children:
        raise BenchError("no session succeeded: %s" % tally.reasons)
    m = session_metrics(children, disk, expected)
    m["setup_s"] = (setup_s, "s")
    queries = query_expectations(tally, store, seed, expected)
    lat = []
    while len(lat) < SESSION_QUERIES and tally.crashes <= 10:
        lat += query_batch(tally, store, queries, len(lat))[0]
    m.update(query_metrics(lat))
    shutil.rmtree(store, ignore_errors=True)
    return m, expected, len(children)


def query_expectations(tally, store, seed, events):
    """The seeded query set with each query's brute-force match count."""
    c = run_child([os.path.join(BIN, "tracedrv"), "queries", "-store", store,
                   "-seed", str(seed), "-duration", "%ds" % DURATION_S, "-count", str(QUERY_SET)])
    if c.rc != 0:
        raise BenchError("tracedrv queries: %s" % c.err[-400:])
    expect = json.loads(c.out)
    tally.check(expect["events"] == events, "stored events %d != recorded %d" % (expect["events"], events))
    return expect["queries"]


def query_batch(tally, store, queries, done_before):
    """BATCH windowed modelsynth queries, each checked against its
    brute-force match count; returns their latencies."""
    meter, done = StealMeter(), []
    for i in range(done_before, done_before + BATCH):
        q = queries[i % len(queries)]
        c = run_child(modelsynth_argv(store, *q["args"]))
        qm, sm = QUERY_RE.search(c.err), SYNTH_RE.search(c.err)
        ok = (c.rc == 0 and qm is not None and sm is not None
              and int(qm.group(1)) == q["matched"] and int(sm.group(1)) == q["matched"])
        tally.check(ok, "query %s: exit %d, want %d matched: %s"
                    % (" ".join(q["args"]), c.rc, q["matched"], c.err[-300:]))
        if c.rc == 0:
            done.append(c)
        else:
            tally.crashes += 1
    steal, speed = meter.shares()[0], speed_factor()
    return [Sample(c, speed, steal).wall for c in done], speed


def query_metrics(lat):
    if len(lat) < MIN_QUERIES:
        raise BenchError("only %d queries succeeded" % len(lat))
    return {"query_p50_ms": (1000 * stats.median(lat), "ms"),
            "query_p90_ms": (1000 * stats.percentile(lat, 0.9), "ms")}


def record_readback_store(tally, seed):
    """Record the readback store several times; the recordings must match."""
    walls, digests, events = [], set(), set()
    store = None
    for i in range(READBACK_RECORDINGS):
        store = fresh_dir("readback")
        r = record_session(tally, store, seed, live=False)
        if r is None:
            continue
        walls.append(Sample(r[0], speed_factor()).wall)
        events.add(r[1])
        digests.add(store_digest(store))
    if not walls:
        raise BenchError("no readback store recording completed: %s" % tally.reasons)
    tally.check(len(digests) == 1 and len(events) == 1,
                "%d recordings of the readback store differ" % len(digests))
    return store, stats.median(walls), max(events)


def workload_readback(tally, seed, seconds):
    store, setup_s, events = record_readback_store(tally, seed)
    queries = query_expectations(tally, store, seed, events)
    models, lat, summaries = [], [], set()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(lat) < MIN_QUERIES or len(models) < MIN_MODELS:
        c = run_child(modelsynth_argv(store))
        m = SYNTH_RE.search(c.err)
        tally.check(c.rc == 0 and m is not None and int(m.group(1)) == events and c.out,
                    "full synthesis exit %d: %s" % (c.rc, c.err[-300:]))
        # The model and the query batch after it share one speed factor.
        batch, speed = query_batch(tally, store, queries, len(lat))
        lat += batch
        if c.rc == 0:
            models.append(Sample(c, speed))
            summaries.add(c.out)
        else:
            tally.crashes += 1
        if tally.crashes > 10:
            break
    tally.check(len(summaries) == 1, "model summary differs between runs (%d variants)" % len(summaries))
    if not models or len(lat) < MIN_QUERIES:
        raise BenchError("readback made too few successful operations: %s" % tally.reasons)
    m = session_metrics(models, store_bytes(store), events)
    m["setup_s"] = (setup_s, "s")
    m.update(query_metrics(lat))
    shutil.rmtree(store, ignore_errors=True)
    return m, events, len(lat)


def e2e_walls(tally, workload, seed, store, events):
    """Wall time of the user-visible operation the traced driver mirrors;
    its event total must match the traced one."""
    walls = []
    for _ in range(OVERHEAD_REPS):
        if workload == "readback":
            c = run_child(modelsynth_argv(store))
            m = SYNTH_RE.search(c.err)
        else:
            out = fresh_dir("overhead")
            c = run_child(rostracer_argv(out, seed, workload == "live"))
            m = None if "DEGRADED" in c.err else EVENTS_RE.search(c.err)
        ok = c.rc == 0 and m is not None and int(m.group(1)) == events
        if tally.check(ok, "%s session for the overhead ratio: exit %d, events %s != traced %d"
                       % (workload, c.rc, m and m.group(1), events)):
            walls.append(Sample(c, 1).wall)
    if not walls:
        raise BenchError("no end-to-end session for the overhead ratio succeeded")
    return stats.median(walls)


def workload_traced(tally, workload, seed, seconds):
    work = fresh_dir("traced")
    spans = os.path.join(BUILD, "spans-%s-%d.json" % (workload, seed))
    c = run_child([os.path.join(BIN, "tracedrv"), "trace", "-workload", workload, "-seed", str(seed),
                   "-duration", "%ds" % DURATION_S, "-seconds", str(seconds), "-work", work,
                   "-queries", str(QUERY_SET), "-spans", spans])
    if c.rc != 0:
        raise BenchError("tracedrv trace exit %d: %s" % (c.rc, c.err[-800:]))
    res = json.loads(c.out)
    tally.attempted += res["attempted"]
    tally.failed += res["failed"]
    tally.reasons += (res["failures"] or [])[:10]
    store = os.path.join(work, "record")
    ratio = res["phase_wall_s"] * (1 - c.steal) / e2e_walls(tally, workload, seed, store, res["events"])
    metrics = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
    metrics["bench.trace_overhead"] = (ratio, "ratio")
    shutil.rmtree(work, ignore_errors=True)
    return metrics, res["events"], res["attempted"]


def environment():
    def first_line(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fstype, best = "unknown", ""
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (WORK + "/").startswith(mnt.rstrip("/") + "/") and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    # Only this directory's own repository: git would otherwise report an
    # enclosing one's commit.
    commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]) if os.path.exists(os.path.join(ROOT, ".git")) else ""
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": commit if re.fullmatch(r"[0-9a-f]{40}", commit) else "unknown (not a git checkout)",
        "nproc": nproc,
        "cpu_model": cpu,
        "go_version": first_line(["go", "version"]),
        # The Go runtime's default, which the children inherit.
        "gomaxprocs": int(os.environ.get("GOMAXPROCS") or nproc),
        "store_fs": fstype,
        "python": platform.python_version(),
    }


def run_workload(workload, seed, seconds, trace):
    tally = Tally()
    if trace:
        metrics, events, samples = workload_traced(tally, workload, seed, seconds)
    elif workload == "readback":
        metrics, events, samples = workload_readback(tally, seed, seconds)
    else:
        metrics, events, samples = workload_session(tally, seed, seconds, workload == "live")
    return tally, metrics, events, samples


def result_line(tally, metrics):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must not be negative")

    try:
        check_root()
        use_ram_store()
        build()
        env = environment()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        totals, lines = {}, []
        for name in names:
            meter = StealMeter()
            tally, metrics, events, samples = run_workload(name, args.seed, args.seconds, args.trace)
            totals[name] = events
            for reason in tally.reasons:
                print("FAILED: %s" % reason, file=sys.stderr)
            print("# %s" % json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                       "events": events, "samples": samples,
                                       "steal_share": round(meter.shares()[0], 4),
                                       "speed_factor": round(stats.median(SPEEDS), 4) if SPEEDS else None,
                                       "env": env}))
            lines.append(result_line(tally, metrics))
            with open(os.path.join(BUILD, "samples-%s-%d-trace%d.json" % (name, args.seed, args.trace)), "w") as f:
                json.dump(RAW, f)
            RAW.clear()
            if len(names) > 1:
                print(lines[-1])
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(set(totals.values())) != 1:
        print("perfbench: event totals differ across workloads: %s" % totals, file=sys.stderr)
        sys.exit(1)
    if len(names) == 1:
        print(lines[0])


if __name__ == "__main__":
    main()
