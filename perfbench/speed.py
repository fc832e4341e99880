"""Machine-speed reference for the end-to-end times.

On a shared 2-vCPU virtual machine (Intel Xeon at 2 GHz) each vCPU's
speed swung by up to 2x within a second (a fixed kernel took 11-34 ms),
the two vCPUs swung independently, and the share of slow time drifted
over minutes, so raw wall times of the same code spread by up to 36 %
between 30-second runs. A fixed reference kernel sampled on a timer in
the measuring thread, on whichever vCPU that thread is running, tracks
the speed the measured calls get (correlation 0.91-0.95 with operation
times there). The end-to-end times are wall times scaled by
NOMINAL_S / mean(kernel time), i.e. seconds at a fixed nominal speed;
on that machine this cut the 10-run spread of a workload's round time
from 0.13-0.21 to 0.04-0.07 of its median.
"""

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 1.4e-3      # kernel CPU time that defines the nominal speed (about
                        # its uncontended time on that host)
INTERVAL_S = 0.2        # sampling period of the kernel


class SpeedProbe:
    """Context manager sampling the reference kernel on SIGALRM.

    The handler runs in the main thread between bytecodes, so it measures
    the vCPU the main thread is on at that moment. Kernel time is thread
    CPU time, which excludes waits for the interpreter lock while sweep
    worker threads run.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((4, 40, 40)) + 1j * rng.standard_normal((4, 40, 40))
        self._mats = mats + mats.conj().transpose(0, 2, 1)
        self.samples = []
        self._previous = None

    def kernel(self):
        start = time.thread_time()
        acc = 0.0
        for i in range(1500):
            acc += (i * 0.5) ** 0.5
        np.linalg.eigh(self._mats)
        return time.thread_time() - start

    def _on_alarm(self, signum, frame):
        self.samples.append(self.kernel())

    def __enter__(self):
        self.samples.append(self.kernel())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, first):
        """Factor turning seconds measured since sample `first` into nominal seconds.

        Averages the samples from `first` on; the caller passes the index
        of the last sample taken before its interval began, so an interval
        shorter than the sampling period still has one sample.
        """
        return NOMINAL_S / statistics.fmean(self.samples[first:])
