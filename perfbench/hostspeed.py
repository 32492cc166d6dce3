"""Host-speed probe: the workload's kind of work, run by a pinned copy of
the program between items; the benchmark's wall and item times are
scaled by it.

The CPUs of a shared VM run at a speed that follows the other tenants of
its host: the same pass can take up to 1.8x longer within a minute,
and the time is lost on the core, not in scheduling (CPU time drifts with
wall time).  Raw times then measure the host.  So the worker runs
`Probe(workload)` every PROBE_EVERY_S between items, and scales each
stretch of the pass, and each item latency in it, by the probe's
reference time over the mean of the two probes around the stretch.  A time
then reads as it would on the same host when the probe takes its
reference time.

The probe is a small fixed job of the workload's own kind (a few of its
items, or for `kernel-opt` the quadratures its optimizer runs), run by
`pinned`: a copy of `src/nonresidue` (less the CLI) as it was when the
benchmark was defined.  It is never edited, so a change to the program
moves the scaled times as much as the raw ones.  The program's time
follows the host's speed as the pinned code's does; a generic probe (a
Python loop and a numpy sweep) tracked it much less well.  The probe
clears the pinned copy's caches first, so every probe does the same work.
"""

from __future__ import annotations

import math
import time

from pinned import arith, bounds, characters, explicit_formula as ef, kernels, lfunctions

PROBE_EVERY_S = 0.1

# Each probe's time at the reference speed: a fixed value near the fastest
# it ran on a busy 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, scipy
# 1.17); at calmer times it runs faster.  Only the units of the scaled
# times depend on it.
REFERENCE_S = {"scan": 0.0032, "classnum": 0.0027, "residuals": 0.0021, "kernel-opt": 0.0023}

_SCAN_PRIMES = [q for q in range(100_003, 100_400, 2) if arith.is_prime(q)][:20]
_KERNEL_LAMBDAS = (2.0, 4.0, 8.0, 16.0)


def _scan_job() -> None:
    for q in _SCAN_PRIMES:
        list(bounds.verify_stream("cor12", [q]))
    list(bounds.verify_stream("cor15", [1000]))
    for q in (5003, 5004):
        list(bounds.verify_stream("thm11", [q], subgroup="squares"))


def _classnum_job() -> None:
    for q in (2003, 2011):
        bounds.verify_classnum(q)


def _residuals_job() -> None:
    for chi in characters.primitive_characters(101)[:3]:
        rb = lfunctions.re_b(chi)
        logl = math.log(abs(lfunctions.l_at_1(chi).value))
        for x in (50.0, 100.0, 1e3, 1e4):
            ef.character_log_residual(x, chi, rb)
            ef.hadamard_window(x, chi)
            ef.log_l_residual(x, chi, rb, logl)


def _kernel_job() -> None:
    for kern in (kernels.gamma_kernel(), kernels.fejer_kernel(1.5)):
        for lam in _KERNEL_LAMBDAS:
            kernels.weighted_integral(kern, lam)


JOBS = {"scan": _scan_job, "classnum": _classnum_job, "residuals": _residuals_job, "kernel-opt": _kernel_job}


def _clear_caches() -> None:
    for fn in (
        arith.factorize,
        arith.unit_group_structure,
        characters.kronecker_character_table,
        lfunctions.hurwitz_laurent_pair,
    ):
        fn.cache_clear()
    characters._roots_cache.clear()
    kernels._l1_cache.clear()


class Probe:
    """Times the workload's fixed job; `scale(probes)` turns probe times
    into the factor of each stretch between two probes."""

    def __init__(self, workload: str):
        self.job = JOBS[workload]
        self.reference_s = REFERENCE_S[workload]

    def __call__(self) -> float:
        _clear_caches()
        clock = time.perf_counter
        start = clock()
        self.job()
        return clock() - start

    def scale(self, probes: list[float]) -> list[float]:
        """Factor of stretch k, between probes k and k + 1."""
        return [2 * self.reference_s / (a + b) for a, b in zip(probes, probes[1:])]
