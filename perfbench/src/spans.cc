#include "spans.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/** The calling thread's open spans, innermost last. */
thread_local std::vector<int> t_open;

/** Length of the union of [start, end) intervals. */
double
unionLength(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double curStart = 0.0;
    double curEnd = -1.0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (!open || s > curEnd) {
            if (open)
                total += curEnd - curStart;
            curStart = s;
            curEnd = e;
            open = true;
        } else {
            curEnd = std::max(curEnd, e);
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

} // namespace

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int
SpanLog::begin(const std::string &name, const std::string &layer,
               int scenario)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = t_open.empty() ? -1 : t_open.back();
    s.scenario = scenario;
    int index;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (scenario < 0 && s.parent >= 0)
            s.scenario = spans_[static_cast<size_t>(s.parent)].scenario;
        index = static_cast<int>(spans_.size());
        spans_.push_back(std::move(s));
    }
    t_open.push_back(index);
    // Read the clock last, so the bookkeeping above is outside the span.
    const double t = nowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].start = t;
    return index;
}

void
SpanLog::end(int index)
{
    const double t = nowSeconds();
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end = t;
}

int
SpanLog::newScenario()
{
    std::lock_guard<std::mutex> lock(mu_);
    return scenarios_++;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = all.empty() ? 0.0 : all.front().start;
    std::fprintf(f, "{\"clock\": \"host steady clock, seconds\", "
                    "\"spans\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                     "\"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                     "\"scenario\": %d}%s\n",
                     i, s.name.c_str(), s.layer.c_str(), s.start - t0,
                     s.end - t0, s.parent, s.scenario,
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[static_cast<size_t>(s.parent)].push_back(
                {s.start, s.end});
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += spans[i].duration() - unionLength(children[i]);
    return out;
}

double
topLevelCoverage(const std::vector<Span> &spans, double from)
{
    std::vector<std::pair<double, double>> iv;
    for (const Span &s : spans) {
        if (s.parent < 0 && s.start >= from)
            iv.push_back({s.start, s.end});
    }
    return unionLength(iv);
}

} // namespace perfbench
