/**
 * @file
 * In-memory wall-clock spans for the traced run.
 *
 * A span records a name, the module (layer) whose public function it
 * brackets, its start and end on the host's steady clock, the span
 * that was open on the same thread when it began (its parent), and a
 * scenario id shared by every span of one simulated scenario. Spans
 * are kept in memory and written once, at exit, to a wall-clock JSON
 * file that never mixes with the simulator's deterministic artifacts.
 *
 * Recording is thread-safe: pool workers may open spans concurrently;
 * each thread keeps its own stack of open spans.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Host steady-clock time, seconds since an arbitrary epoch. */
double nowSeconds();

/** User plus system CPU time of the whole process, seconds. */
double cpuSeconds();

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

struct Span
{
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;

    /** Index of the parent span, or -1 for a top-level span. */
    int parent = -1;

    /** Scenario id shared by one scenario's spans (-1 = none). */
    int scenario = -1;

    double duration() const { return end - start; }
};

class SpanLog
{
  public:
    /** Open a span on the calling thread; returns its index. */
    int begin(const std::string &name, const std::string &layer,
              int scenario = -1);

    /** Close the span `index` (must be the calling thread's innermost
     * open span). */
    void end(int index);

    /** A fresh scenario id. */
    int newScenario();

    /** Snapshot of every recorded span. */
    std::vector<Span> spans() const;

    /** Write every span as JSON to `path`; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    int scenarios_ = 0;
};

/** RAII span; a null log records nothing. */
class Scoped
{
  public:
    Scoped(SpanLog *log, const std::string &name, const std::string &layer,
           int scenario = -1)
        : log_(log), index_(log ? log->begin(name, layer, scenario) : -1)
    {
    }
    ~Scoped()
    {
        if (log_)
            log_->end(index_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog *log_;
    int index_;
};

/** Self time per layer: each span's duration minus the part of its
 * interval covered by its children, summed per layer. */
std::map<std::string, double> selfTimes(const std::vector<Span> &spans);

/** Total time covered by the union of the top-level spans that start
 * at or after `from` (overlapping spans from pool workers count once). */
double topLevelCoverage(const std::vector<Span> &spans, double from);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
