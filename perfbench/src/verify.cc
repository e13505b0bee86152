#include "verify.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "fuzz/oracle.hh"

namespace perfbench {

using namespace kelp;

namespace {

std::string
hex(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** First field of a `key=value` per line text whose value is not a
 * finite non-negative number; empty when all are. */
std::string
badField(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string value = line.substr(eq + 1);
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || !std::isfinite(v) || v < 0.0)
            return line;
    }
    return {};
}

std::string
contracts(uint64_t delta)
{
    return delta == 0 ? std::string()
                      : std::to_string(delta) + " contract violation(s)";
}

} // namespace

std::string
mixText(const exp::MixResult &m)
{
    std::ostringstream os;
    const char *names[4] = {"bl", "ct", "kpsd", "kp"};
    for (int i = 0; i < 4; ++i) {
        os << names[i] << ".mlSlowdown=" << hex(m.mlSlowdown[i]) << "\n"
           << names[i] << ".cpuSlowdown=" << hex(m.cpuSlowdown[i]) << "\n"
           << names[i] << ".mlPerf=" << hex(m.mlPerf[i]) << "\n"
           << names[i] << ".cpuTput=" << hex(m.cpuTput[i]) << "\n";
    }
    return os.str();
}

std::string
runText(const exp::RunResult &r)
{
    return fuzz::resultText(r);
}

uint64_t
fnv1a(const std::string &s, uint64_t h)
{
    for (char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return h;
}

void
Verifier::record(const std::string &what, const std::string &problem)
{
    ++attempted_;
    if (!problem.empty())
        failures_.push_back(what + ": " + problem);
}

void
Verifier::checkRun(const std::string &what, const exp::RunResult &r,
                   uint64_t contractDelta)
{
    std::string problem = contracts(contractDelta);
    if (problem.empty()) {
        if (std::string bad = badField(runText(r)); !bad.empty())
            problem = "bad metric " + bad;
    }
    if (problem.empty() &&
        (r.reqArrivals != r.reqAdmitted + r.reqRejected ||
         r.reqAdmitted != r.reqCompleted + r.reqShed + r.reqExpired +
                              r.reqInFlight)) {
        problem = "request conservation broken";
    }
    if (problem.empty() && !(r.mlPerf > 0.0))
        problem = "no ML progress";
    record(what, problem);
}

void
Verifier::checkMix(const std::string &what, const exp::MixResult &m,
                   uint64_t contractDelta)
{
    std::string problem = contracts(contractDelta);
    if (problem.empty()) {
        if (std::string bad = badField(mixText(m)); !bad.empty())
            problem = "bad metric " + bad;
    }
    if (problem.empty() && !(m.mlPerf[0] > 0.0 && m.cpuTput[0] > 0.0))
        problem = "no baseline progress";
    record(what, problem);
}

void
Verifier::checkCluster(const std::string &what,
                       const cluster::ClusterResult &c,
                       uint64_t contractDelta)
{
    std::string problem = contracts(contractDelta);
    if (problem.empty() &&
        (c.arrivals != c.placed + c.rejected ||
         c.placed != c.finished + c.evictions + c.runningAtEnd)) {
        problem = "job conservation broken";
    }
    if (problem.empty() &&
        (c.nodeHours == 0 || c.sloNodeHours > c.nodeHours ||
         c.usedThreadHours > c.capacityThreadHours || c.evaluations == 0)) {
        problem = "node-hour accounting broken";
    }
    if (problem.empty()) {
        for (double t : c.tailSamples) {
            if (!std::isfinite(t) || t < 0.0) {
                problem = "bad tail sample " + hex(t);
                break;
            }
        }
    }
    record(what, problem);
}

void
Verifier::compareReplay(const std::string &what, const std::string &original,
                        const std::string &replay)
{
    record(what, original == replay
                     ? std::string()
                     : "reference-path replay differs");
}

} // namespace perfbench
