/**
 * @file
 * Tests for the structured observability layer: JSON helpers, the
 * Perfetto trace recorder, the decision audit log, run manifests, and
 * the guarantee that observability changes nothing it observes.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hh"
#include "fuzz/oracle.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/decision_log.hh"
#include "trace/json.hh"
#include "trace/run_manifest.hh"
#include "trace/telemetry.hh"
#include "trace/trace_recorder.hh"

using namespace kelp;

namespace {

/**
 * Minimal recursive-descent JSON parser -- enough to validate that
 * the exporters emit well-formed JSON and to query fields back out.
 * Throws std::runtime_error (via fail()) on malformed input, which
 * a test turns into a failure.
 */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &operator[](const std::string &key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &why)
    {
        throw std::runtime_error(why + " at offset " +
                                 std::to_string(pos_));
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue value()
    {
        skipWs();
        char c = peek();
        JsonValue v;
        if (c == '{') {
            v.type = JsonValue::Type::Object;
            expect('{');
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = string();
                skipWs();
                expect(':');
                v.fields[key] = value();
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            v.type = JsonValue::Type::Array;
            expect('[');
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (true) {
                v.items.push_back(value());
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.type = JsonValue::Type::String;
            v.str = string();
            return v;
        }
        if (literal("null"))
            return v;
        if (literal("true")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (literal("false")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return v;
        }
        // Number.
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("unexpected character");
        v.type = JsonValue::Type::Number;
        v.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                               nullptr);
        return v;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (c == '\\') {
                char e = peek();
                ++pos_;
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("bad \\u escape");
                    unsigned code = static_cast<unsigned>(std::strtoul(
                        text_.substr(pos_, 4).c_str(), nullptr, 16));
                    pos_ += 4;
                    // Exporters only escape control chars this way.
                    out += static_cast<char>(code);
                    break;
                  }
                  default:
                    fail("bad escape");
                }
                continue;
            }
            out += c;
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace

TEST(Json, EscapesSpecials)
{
    EXPECT_EQ(trace::jsonString("a\"b\\c\nd"),
              "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(trace::jsonString(std::string("x\x01y")),
              "\"x\\u0001y\"");
}

TEST(Json, NumberFormats)
{
    EXPECT_EQ(trace::jsonNumber(3.0), "3");
    EXPECT_EQ(trace::jsonNumber(-41.0), "-41");
    EXPECT_EQ(trace::jsonNumber(0.5), "0.5");
    // Non-finite values are not valid JSON numbers.
    EXPECT_EQ(trace::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(trace::jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

TEST(Json, RoundTripsDoubles)
{
    double v = 313.63086629254104;
    JsonValue parsed = parseJson(trace::jsonNumber(v));
    EXPECT_EQ(parsed.number, v);
}

TEST(TraceRecorder, EmitsParseableTraceEvents)
{
    trace::TraceRecorder rec;
    rec.addSpan(trace::TraceRecorder::Lane::Cpu, 1.0, 1.5, "host", 7);
    rec.addSpan(trace::TraceRecorder::Lane::Pcie, 1.5, 1.6, "pcie", 7);
    rec.addSpan(trace::TraceRecorder::Lane::Accel, 1.6, 2.0, "accel",
                7);
    rec.addInstant(2.0, "algorithm1", "action_l=THROTTLE");
    rec.addCounter(2.5, "socket_bw_gibps", 57.25);

    JsonValue doc = parseJson(rec.toJson());
    const JsonValue &events = doc["traceEvents"];
    ASSERT_EQ(events.type, JsonValue::Type::Array);

    int spans = 0, instants = 0, counters = 0, meta = 0;
    for (const JsonValue &ev : events.items) {
        const std::string &ph = ev["ph"].str;
        if (ph == "X") {
            ++spans;
            EXPECT_EQ(ev["pid"].number, 1.0);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(ev["s"].str, "t");
            EXPECT_EQ(ev["name"].str, "algorithm1");
            EXPECT_EQ(ev["args"]["detail"].str, "action_l=THROTTLE");
        } else if (ph == "C") {
            ++counters;
            EXPECT_EQ(ev["name"].str, "socket_bw_gibps");
            EXPECT_EQ(ev["args"]["value"].number, 57.25);
        } else if (ph == "M") {
            ++meta;
        }
    }
    EXPECT_EQ(spans, 3);
    EXPECT_EQ(instants, 1);
    EXPECT_EQ(counters, 1);
    // 3 process_name + 4 thread_name metadata records.
    EXPECT_EQ(meta, 7);

    // Timestamps are exported in microseconds.
    for (const JsonValue &ev : events.items) {
        if (ev["ph"].str == "X" && ev["name"].str == "host") {
            EXPECT_EQ(ev["ts"].number, 1.0e6);
            EXPECT_EQ(ev["dur"].number, 0.5e6);
            EXPECT_EQ(ev["args"]["iteration"].number, 7.0);
        }
    }
}

TEST(TraceRecorder, PhaseSinkMapsSegmentKindsToLanes)
{
    trace::TraceRecorder rec;
    auto sink = rec.phaseSink();
    sink(wl::TraceEvent{wl::SegmentKind::Host, 0.0, 0.1, 1});
    sink(wl::TraceEvent{wl::SegmentKind::Pcie, 0.1, 0.2, 1});
    sink(wl::TraceEvent{wl::SegmentKind::Accel, 0.2, 0.3, 1});

    JsonValue doc = parseJson(rec.toJson());
    std::map<std::string, double> laneOf;
    for (const JsonValue &ev : doc["traceEvents"].items)
        if (ev["ph"].str == "X")
            laneOf[ev["name"].str] = ev["tid"].number;
    EXPECT_EQ(laneOf["host"], 1.0);
    EXPECT_EQ(laneOf["pcie"], 2.0);
    EXPECT_EQ(laneOf["accel"], 3.0);
}

TEST(TraceRecorder, BackwardsSpanPanics)
{
    trace::TraceRecorder rec;
    EXPECT_DEATH(
        {
            sim::setContractMode(sim::ContractMode::Fatal);
            rec.addSpan(trace::TraceRecorder::Lane::Cpu, 2.0, 1.0,
                        "bad");
        },
        "span");
}

TEST(DecisionLog, RecordsAndRoundTripsJsonl)
{
    trace::DecisionLog log;
    trace::DecisionEvent ev;
    ev.time = 4.0;
    ev.kind = "algorithm1";
    ev.reason = "action_h=BOOST action_l=THROTTLE";
    ev.loCoresOld = 12;
    ev.loCoresNew = 12;
    ev.loPrefetchersOld = 12;
    ev.loPrefetchersNew = 6;
    ev.hiBackfillOld = 0;
    ev.hiBackfillNew = 1;
    ev.bwS = 57.27;
    ev.latS = 85.06;
    ev.satS = 0.59;
    ev.bwH = 4.31;
    log.append(ev);

    trace::DecisionEvent later = ev;
    later.time = 8.0;
    later.kind = "slo-rung";
    later.perfRatio = 0.91;
    log.append(later);

    ASSERT_EQ(log.size(), 2u);
    EXPECT_TRUE(log.events()[0].changedKnobs());

    std::string jsonl = log.toJsonl();
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < jsonl.size()) {
        size_t end = jsonl.find('\n', start);
        ASSERT_NE(end, std::string::npos);
        lines.push_back(jsonl.substr(start, end - start));
        start = end + 1;
    }
    ASSERT_EQ(lines.size(), 2u);

    JsonValue first = parseJson(lines[0]);
    EXPECT_EQ(first["t"].number, 4.0);
    EXPECT_EQ(first["kind"].str, "algorithm1");
    EXPECT_EQ(first["lo_prefetchers"].items[0].number, 12.0);
    EXPECT_EQ(first["lo_prefetchers"].items[1].number, 6.0);
    EXPECT_EQ(first["hi_backfill"].items[1].number, 1.0);
    EXPECT_EQ(first["trigger"]["bw_s"].number, 57.27);
    EXPECT_EQ(first["reason"].str,
              "action_h=BOOST action_l=THROTTLE");

    JsonValue second = parseJson(lines[1]);
    EXPECT_EQ(second["kind"].str, "slo-rung");
    EXPECT_EQ(second["perf_ratio"].number, 0.91);
}

TEST(DecisionLog, EnforcesMonotonicTimePerContext)
{
    trace::DecisionLog log;
    trace::DecisionEvent ev;
    ev.kind = "algorithm1";
    ev.time = 10.0;
    log.append(ev);
    EXPECT_DEATH(
        {
            sim::setContractMode(sim::ContractMode::Fatal);
            trace::DecisionEvent bad;
            bad.kind = "algorithm1";
            bad.time = 5.0;
            log.append(bad);
        },
        "order");

    // A fresh context restarts the clock (benches pool runs).
    log.setContext("second-run");
    trace::DecisionEvent ok;
    ok.kind = "algorithm1";
    ok.time = 2.0;
    log.append(ok);
    EXPECT_EQ(log.size(), 2u);

    JsonValue tagged = parseJson(
        log.toJsonl().substr(log.toJsonl().rfind("{\"t\":2")));
    EXPECT_EQ(tagged["run"].str, "second-run");
}

TEST(RunManifest, PercentilesMatchHistogramExactly)
{
    sim::LatencyHistogram h(1e-6, 10.0);
    for (int i = 1; i <= 1000; ++i)
        h.add(1e-4 * i);

    trace::RunManifest man;
    man.set("tool", "test");
    man.addHistogram("lat", h);

    JsonValue doc = parseJson(man.toJson());
    EXPECT_EQ(doc["schema"].str, "kelp-run-manifest-v1");
    EXPECT_FALSE(doc["git_describe"].str.empty());
    EXPECT_EQ(doc["tool"].str, "test");

    const JsonValue &lat = doc["histograms"]["lat"];
    EXPECT_EQ(lat["count"].number, 1000.0);
    EXPECT_EQ(lat["mean"].number, h.mean());
    EXPECT_EQ(lat["p50"].number, h.percentile(50.0));
    EXPECT_EQ(lat["p90"].number, h.percentile(90.0));
    EXPECT_EQ(lat["p95"].number, h.percentile(95.0));
    EXPECT_EQ(lat["p99"].number, h.percentile(99.0));
    EXPECT_EQ(lat["p999"].number, h.percentile(99.9));
}

TEST(RunManifest, BooleansAndStringsRender)
{
    trace::RunManifest man;
    man.set("flag_on", true);
    man.set("flag_off", false);
    man.set("note", "a \"quoted\" string");
    JsonValue doc = parseJson(man.toJson());
    EXPECT_EQ(doc["flag_on"].type, JsonValue::Type::Bool);
    EXPECT_TRUE(doc["flag_on"].boolean);
    EXPECT_FALSE(doc["flag_off"].boolean);
    EXPECT_EQ(doc["note"].str, "a \"quoted\" string");
}

namespace {

/** Short KP run used by the invariance tests. */
exp::RunConfig
shortKpConfig()
{
    exp::RunConfig cfg;
    cfg.ml = wl::MlWorkload::Rnn1;
    cfg.cpu = wl::CpuWorkload::Stitch;
    cfg.cpuInstances = 4;
    cfg.config = exp::ConfigKind::KP;
    cfg.warmup = 4.0;
    cfg.measure = 8.0;
    cfg.samplePeriod = 2.0;
    return cfg;
}

} // namespace

TEST(Observability, OffPathMatchesPlainRunExactly)
{
    exp::RunConfig cfg = shortKpConfig();
    exp::RunResult plain = exp::runScenario(cfg);

    // A default Observability installs nothing.
    exp::Scenario s = exp::buildScenario(cfg, exp::Observability{});
    exp::RunResult off = exp::measureScenario(s, cfg);
    EXPECT_EQ(fuzz::resultTextWithCounters(plain),
              fuzz::resultTextWithCounters(off));
}

TEST(Observability, SinksDoNotPerturbResults)
{
    exp::RunConfig cfg = shortKpConfig();
    exp::RunResult plain = exp::runScenario(cfg);

    trace::Telemetry tel;
    trace::TraceRecorder rec;
    trace::DecisionLog decisions;
    exp::Observability obs;
    obs.telemetry = &tel;
    obs.recorder = &rec;
    obs.decisions = &decisions;
    exp::Scenario s = exp::buildScenario(cfg, obs);
    exp::RunResult instrumented = exp::measureScenario(s, cfg);

    // Probes, the phase sink, and the audit log only read: the
    // instrumented run must reproduce the plain run bit for bit. The
    // telemetry periodic adds firings, so the counters differ.
    EXPECT_EQ(fuzz::resultText(plain), fuzz::resultText(instrumented));
    EXPECT_FALSE(tel.all().empty());
    EXPECT_FALSE(rec.empty());
    EXPECT_FALSE(decisions.empty());
}

TEST(Observability, SameSeedRunsExportIdenticalBytes)
{
    exp::RunConfig cfg = shortKpConfig();
    auto runOnce = [&cfg]() {
        trace::Telemetry tel;
        trace::TraceRecorder rec;
        trace::DecisionLog decisions;
        exp::Observability obs;
        obs.telemetry = &tel;
        obs.recorder = &rec;
        obs.decisions = &decisions;
        exp::Scenario s = exp::buildScenario(cfg, obs);
        exp::measureScenario(s, cfg);
        rec.importTelemetry(tel);
        rec.importDecisions(decisions);
        return std::make_pair(rec.toJson(), decisions.toJsonl());
    };
    auto [trace1, log1] = runOnce();
    auto [trace2, log2] = runOnce();
    EXPECT_EQ(trace1, trace2);
    EXPECT_EQ(log1, log2);
    EXPECT_FALSE(log1.empty());
}

TEST(Observability, DecisionLogReplaysKnobChanges)
{
    // Every knob change the controller's averages imply must be
    // reachable by replaying the audit log from the initial state.
    exp::RunConfig cfg = shortKpConfig();
    trace::DecisionLog decisions;
    exp::Observability obs;
    obs.decisions = &decisions;
    exp::Scenario s = exp::buildScenario(cfg, obs);
    exp::measureScenario(s, cfg);

    ASSERT_FALSE(decisions.empty());
    // Replay: each event's old state must match the running state
    // (events are a complete, ordered record of mutations).
    const auto &evs = decisions.events();
    int cores = evs.front().loCoresOld;
    int prefetchers = evs.front().loPrefetchersOld;
    int backfill = evs.front().hiBackfillOld;
    for (const trace::DecisionEvent &ev : evs) {
        EXPECT_EQ(ev.loCoresOld, cores) << "at t=" << ev.time;
        EXPECT_EQ(ev.loPrefetchersOld, prefetchers)
            << "at t=" << ev.time;
        EXPECT_EQ(ev.hiBackfillOld, backfill) << "at t=" << ev.time;
        cores = ev.loCoresNew;
        prefetchers = ev.loPrefetchersNew;
        backfill = ev.hiBackfillNew;
    }
    // And the final replayed state is the controller's final state.
    ASSERT_TRUE(s.manager);
    runtime::ControllerParams p = s.manager->controller().params();
    EXPECT_EQ(cores, p.loCores);
    EXPECT_EQ(prefetchers, p.loPrefetchers);
    EXPECT_EQ(backfill, p.hiBackfillCores);
}
