"""Machine-speed normalisation of job times.

On a shared virtual machine (measured on 2 vCPUs of an Intel Xeon, Python
3.11) the same pure-Python work ran at two speeds about 2x apart, switching
every few seconds: audit-space on the real line took 290-610 ms within one
minute, with CPU time equal to wall time. A fixed reference loop timed right
before and right after each job tracks that speed: audit time divided by the
neighbouring reference times varied by 6% (quartile spread over median)
where the raw times varied by 68%.

Each job's wall time is therefore also reported scaled to a fixed reference
speed, the one at which ``reference_ms()`` reads REFERENCE_MS:

    normalised = wall * REFERENCE_MS / mean(reference before, reference after)

The reference loop shares no code with coupledfp, allocates a single small
dict (so it hardly sees the program's heap) and runs outside the timed region,
in the same process and thread as the job.
"""

import time

REFERENCE_MS = 6.0


def _reference_work():
    # integer mixing, float arithmetic and dict stores: the interpreter work
    # the library's sampled lanes are made of
    z = 0x9E3779B97F4A7C15
    acc = 0.0
    d = {}
    for i in range(20000):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        acc += (z >> 11) * 1.1102230246251565e-16
        d[i & 255] = acc
    return acc


def reference_ms():
    """Wall time of one run of the reference loop, in ms."""
    t0 = time.perf_counter()
    _reference_work()
    return 1000.0 * (time.perf_counter() - t0)


def factors(refs):
    """Scale from measured to reference speed for each job, given the
    reference timings taken at the job boundaries (len(refs) == jobs + 1)."""
    return [REFERENCE_MS / (0.5 * (a + b)) for a, b in zip(refs, refs[1:])]
