"""Machine context and process-tree sampling, read from /proc only.

Nothing here changes a setting: BLAS thread variables are reported as
inherited and never set, so the sweep runs with whatever threading a user's
shell would give it.
"""

import os
import platform
import subprocess
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def loadavg() -> list:
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else []


def cpu_ticks() -> tuple:
    """(all ticks, steal ticks) summed over CPUs since boot."""
    text = _read("/proc/stat")
    if not text:
        return (0, 0)
    fields = [int(x) for x in text.splitlines()[0].split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return (sum(fields[:8]), steal)


def steal_share(before: tuple, after: tuple) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def host_probe_ms() -> float:
    """Time of a fixed pure-Python loop that does not use cbwk.

    Its spread over a run shows how much the host's own speed moved.
    """
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def context() -> dict:
    """Host facts that do not need the package under test."""
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "inherited_blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "loadavg_start": loadavg(),
    }


def _children(pid: int) -> list:
    kids = []
    tasks = f"/proc/{pid}/task"
    try:
        tids = os.listdir(tasks)
    except OSError:
        return kids
    for tid in tids:
        text = _read(f"{tasks}/{tid}/children")
        if text:
            kids.extend(int(x) for x in text.split())
    return kids


def _status(pid: int) -> dict:
    out = {}
    text = _read(f"/proc/{pid}/status") or ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key in ("VmHWM", "Threads"):
            out[key] = int(value.split()[0])
    return out


class TreeWatch:
    """Samples a running process and its descendants until the root exits.

    Records each process's last-seen peak resident set (VmHWM) and the
    largest thread count seen in any descendant, i.e. in a sweep worker.
    """

    def __init__(self):
        self.hwm_kb = {}
        self.worker_threads = 0

    def sample(self, root: int) -> None:
        seen = [root]
        frontier = [root]
        while frontier:
            kids = [k for pid in frontier for k in _children(pid)]
            seen.extend(kids)
            frontier = kids
        for pid in seen:
            status = _status(pid)
            if "VmHWM" in status:
                self.hwm_kb[pid] = max(self.hwm_kb.get(pid, 0), status["VmHWM"])
            if pid != root and "Threads" in status:
                self.worker_threads = max(self.worker_threads, status["Threads"])

    @property
    def peak_rss_mb(self) -> float:
        """Sum over the program's processes of each one's peak resident set."""
        return sum(self.hwm_kb.values()) / 1024.0


def run_watched(cmd: list, env: dict, timeout: float, stderr_path: str,
                interval: float = 0.05):
    """Run ``cmd`` to completion while sampling its process tree.

    Standard error goes to ``stderr_path``.  Returns (returncode, TreeWatch).
    On timeout the whole process group is killed and waited for.
    """
    watch = TreeWatch()
    deadline = time.monotonic() + timeout
    with open(stderr_path, "w") as err, \
            subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                             start_new_session=True) as proc:
        try:
            while proc.poll() is None:
                watch.sample(proc.pid)
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(cmd, timeout)
                time.sleep(interval)
        except BaseException:
            os.killpg(proc.pid, 9)
            proc.wait()
            raise
    return proc.returncode, watch
