"""Host-speed calibration for the end-to-end timings.

On a shared host the same pass can run 1.7x slower for half a minute at a
time while the CPU is contended, with no steal time to show for it.  A fixed
kernel of the same kind of code as the program's hot path -- Python-level
Jacobi rotations on a constant 4x4 complex Hermitian matrix with tiny numpy
row operations -- is run for a block of time next to every pass, and each
pass time is scaled to what it would have been on a host where one kernel
sweep takes REFERENCE_S.  The kernel shares no code with schattenlab, so
program changes cannot move it.

A single 30 ms sweep is as noisy as the host, so a block repeats the sweep
for a fixed share of a pass.  A pass of a process pool runs on every core,
so the block then runs one copy of the kernel per pool worker at once, in
helper processes forked when the Calibrator is made, and averages them.
"""

import multiprocessing
import statistics
import time

import numpy as np

# median kernel time on the 2-core Intel Xeon (2.1 GHz) the benchmark was
# sized on, with one BLAS thread
REFERENCE_S = 0.030

_A0 = np.array([[4.0, 1 + 1j, 0.5, 0.2j],
                [1 - 1j, 3.0, 0.3, 0.1],
                [0.5, 0.3, 2.0, 0.7j],
                [-0.2j, 0.1, -0.7j, 1.0]])


def kernel_s(repeats=400):
    """Wall time of one fixed sweep of Jacobi-style rotations, repeated."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        a = _A0.copy()
        for p in range(3):
            for q in range(p + 1, 4):
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(a[p, q]))
                t = 1.0 / (tau + np.hypot(tau, 1.0))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :]
                a[p, :] = c * rp + s * rq
                a[q, :] = c * rq - s * rp
    return time.perf_counter() - t0


def sweeps(seconds):
    """Kernel times of back-to-back sweeps for at least `seconds`, and at
    least one."""
    times = [kernel_s()]
    while sum(times) < seconds:
        times.append(kernel_s())
    return times


def _helper(conn):
    while True:
        seconds = conn.recv()
        if seconds is None:
            conn.close()
            return
        conn.send(sweeps(seconds))


class Calibrator:
    """Runs kernel blocks on `procs` cores at once.

    With procs == 1 the block runs in this process.  Otherwise procs helper
    processes are forked now and live until close(); use the Calibrator as
    a context manager so they are stopped on every path out.
    """

    def __init__(self, procs=1):
        self.helpers = []
        if procs > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(procs):
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self.helpers.append((proc, mine))

    def block(self, seconds):
        """Mean sweep time over a block of `seconds` on every core."""
        if not self.helpers:
            return statistics.fmean(sweeps(seconds))
        for _, conn in self.helpers:
            conn.send(seconds)
        return statistics.fmean(t for _, conn in self.helpers for t in conn.recv())

    def close(self):
        for proc, conn in self.helpers:
            try:
                conn.send(None)
            except OSError:
                pass
        for proc, conn in self.helpers:
            proc.join(5)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()
        self.helpers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scaled(times, kernels):
    """Scale times[i] by REFERENCE_S over the mean of the kernel blocks
    taken just before (kernels[i]) and just after (kernels[i + 1]) it."""
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel timing around every measured time")
    return [t * 2.0 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, kernels, kernels[1:])]
