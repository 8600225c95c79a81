"""Per-layer probes: median time per call of one public function on seeded
fixed inputs.  Fast calls are timed in batches of at least ``BATCH_S`` and
divided by the batch size, so the clock's resolution does not show."""

import random
import statistics
import time
from fractions import Fraction

from splithopf import gammarep, gaugegeom, hopfmaps, splitnum, superhopf
from splithopf.superhopf import GrassmannElement

import workloads

BATCH_S = 0.002
MIN_REPS = 3
MAX_REPS = 50
OVERLAP_CASES = ((1, "I"), (2, "I"), (2, "II"), (3, "I"), (3, "II"))
UNITS = {"us": 1e6, "ms": 1e3}


def time_per_call(fn, budget_s):
    """Median seconds per call of ``fn()`` over at least MIN_REPS batches,
    taking more batches (up to MAX_REPS) while the budget lasts."""
    t = time.perf_counter()
    fn()  # warm-up, also sizes the batch
    single = time.perf_counter() - t
    batch = max(1, int(BATCH_S / single)) if single > 0 else 1000
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPS or (len(samples) < MAX_REPS
                                      and time.perf_counter() - start < budget_s):
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t) / batch)
    return statistics.median(samples)


def _rand_grassmann(rng, cfg):
    return GrassmannElement({mask: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for mask in range(1 << cfg.n_generators)}, cfg)


def probe_cases(seed):
    """Yield (metric name, unit, zero-argument callable)."""
    rng = random.Random(seed)
    oct_f = [splitnum.random_element(splitnum.SplitOctonion, rng) for _ in range(2)]
    oct_x = [splitnum.SplitOctonion([rng.uniform(-2, 2) for _ in range(8)]) for _ in range(2)]
    yield "splitnum.octonion_mul.fraction_us", "us", lambda: oct_f[0] * oct_f[1]
    yield "splitnum.octonion_mul.float_us", "us", lambda: oct_x[0] * oct_x[1]
    ga, gb = _rand_grassmann(rng, superhopf.PSEUDO), _rand_grassmann(rng, superhopf.PSEUDO)
    yield "superhopf.grassmann_mul_us", "us", lambda: ga * gb

    for dim, fam in ((2, "split_pauli"), (4, "so32_I"), (8, "so43_I"), (16, "so54_I")):
        f = gammarep.build_family(fam)
        a, b = f.gamma(1), f.gamma(2)
        yield "ringmat.matmul.d%d_us" % dim, "us", (lambda a=a, b=b: a @ b)

    sigmas = list(gammarep.build_weyl_generators("I")["sigmas"].values())
    coeffs = [rng.uniform(-1, 1) for _ in sigmas]

    def scale_sum():
        acc = sigmas[0].scale(coeffs[0])
        for c, m in zip(coeffs[1:], sigmas[1:]):
            acc = acc + m.scale(c)
        return acc
    yield "ringmat.scale_sum.weyl28_us", "us", scale_sum

    def cold_build():
        workloads.clear_static_caches()
        workloads.build_static_tables()
    yield "gammarep.cold_build_ms", "ms", cold_build

    for level, real in workloads.CASES:
        name = workloads.case_name(level, real)
        sp = hopfmaps.sample_normalized(level, real, rng=rng)
        pt = hopfmaps.sample_base_point(level, real, rng=rng)
        yield "hopfmaps.project.%s_us" % name, "us", (lambda sp=sp: hopfmaps.project(sp))
        yield "hopfmaps.invert.%s_us" % name, "us", (lambda pt=pt: hopfmaps.invert(pt))
    for level, real in workloads.CASES:
        name = workloads.case_name(level, real)
        pt = hopfmaps.sample_base_point(level, real, rng=rng)
        yield ("gaugegeom.connection_residual.%s_ms" % name, "ms",
               lambda pt=pt: gaugegeom.connection_residual(pt, "upper"))
        yield ("gaugegeom.curvature_residual.%s_ms" % name, "ms",
               lambda pt=pt: gaugegeom.curvature_residual(pt, "upper", pairs=2,
                                                          rng=random.Random(seed)))
        yield ("gaugegeom.field_components.%s_ms" % name, "ms",
               lambda pt=pt: gaugegeom.field_components(pt, "upper"))
    for level, real in OVERLAP_CASES:
        name = workloads.case_name(level, real)
        pt = hopfmaps.sample_base_point(level, real, rng=rng, overlap=True)
        yield ("gaugegeom.gluing_check.%s_ms" % name, "ms",
               lambda pt=pt: gaugegeom.gluing_check(pt, rng=random.Random(seed)))
        yield "gaugegeom.transition.%s_us" % name, "us", (lambda pt=pt: gaugegeom.transition(pt))

    xb1 = (Fraction(24, 25), Fraction(0), Fraction(7, 25))
    yield ("superhopf.super_connection_check_ms", "ms",
           lambda: superhopf.super_connection_check(xb1, "upper", "I"))
    yield "superhopf.super_gluing_check_ms", "ms", lambda: superhopf.super_gluing_check(xb1)


def run_probes(seed, budget_s):
    """Run every probe within about ``budget_s`` in total (each probe takes at
    least MIN_REPS batches).  Returns {metric: (value, unit)}."""
    cases = list(probe_cases(seed))
    out = {}
    for name, unit, fn in cases:
        per_call = time_per_call(fn, budget_s / len(cases))
        out[name] = (per_call * UNITS[unit], unit)
    workloads.build_static_tables()
    return out
