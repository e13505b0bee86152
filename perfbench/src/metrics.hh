/**
 * @file
 * The metric names the benchmark prints, with their units. The lists
 * must equal the `end_to_end` and `per_layer` lists of BENCHMARK.json;
 * the benchmark's tests and its runner both check that they do.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed with tracing off. */
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Printed by the traced run. */
inline constexpr MetricDef kPerLayer[] = {
    {"exp.prewarm_s", "s"},
    {"exp.build_ms_p50", "ms"},
    {"exp.build_ms_p90", "ms"},
    {"exp.measure_s", "s"},
    {"exp.ref_hit_us_1", "us"},
    {"exp.ref_hit_us_n", "us"},
    {"exp.churn_events", "count"},
    {"pool.jobs", "count"},
    {"pool.work_s", "s"},
    {"pool.critical_path_s", "s"},
    {"pool.efficiency", "ratio"},
    {"sim.ticks", "count"},
    {"sim.ticks_per_s", "1/s"},
    {"sim.fast_frac", "ratio"},
    {"sim.ticks_per_periodic", "ratio"},
    {"sim.full_tick_ns", "ns"},
    {"sim.fast_tick_ns", "ns"},
    {"node.demand_calls", "count"},
    {"node.advance_calls", "count"},
    {"node.fast_task_ticks", "count"},
    {"mem.resolve_hit_frac", "ratio"},
    {"mem.mc_hit_frac", "ratio"},
    {"mem.fast_ticks", "count"},
    {"mem.resolve_ns", "ns"},
    {"mem.resolve_cached_ns", "ns"},
    {"mem.cache_gain", "ratio"},
    {"cpu.llc_apportion_ns", "ns"},
    {"cpu.llc_cache_hit_ns", "ns"},
    {"kelp.samples", "count"},
    {"kelp.sample_us", "us"},
    {"kelp.full_ticks_per_sample", "ratio"},
    {"serve.requests", "count"},
    {"serve.drop_frac", "ratio"},
    {"serve.periodic_frac", "ratio"},
    {"cluster.evaluations", "count"},
    {"cluster.memo_hit_frac", "ratio"},
    {"cluster.eval_ms", "ms"},
    {"cluster.simulate_s", "s"},
    {"cluster.overhead_frac", "ratio"},
    {"cluster.place_ns", "ns"},
    {"trace.overhead_frac", "ratio"},
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
