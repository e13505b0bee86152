#include "workload/ml_infer_task.hh"

#include <algorithm>

#include "sim/log.hh"

namespace kelp {
namespace wl {

MlInferTask::MlInferTask(std::string name, sim::GroupId group,
                         InferConfig cfg, accel::Accelerator *accel,
                         uint64_t seed)
    : Task(std::move(name), group), cfg_(std::move(cfg)),
      accel_(accel), rng_(seed)
{
    KELP_ASSERT(!cfg_.iteration.stages.empty(),
                "inference iteration has no stages");
    for (const auto &stage : cfg_.iteration.stages) {
        KELP_ASSERT(stage.segments.size() == 1,
                    "inference stages must have one segment each");
        const StepSegment &seg = stage.segments[0];
        stages_.push_back({seg.kind, seg.duration, seg.host,
                           HostSpeeds{}, 0});
    }
    KELP_ASSERT(cfg_.itersPerRequest >= 1, "need >= 1 iteration");
    KELP_ASSERT(cfg_.pipelineDepth >= 1, "need pipeline depth >= 1");
    if (cfg_.serial) {
        cfg_.closedLoop = true;
        cfg_.pipelineDepth = 1;
    }
    inFlight_.reserve(static_cast<size_t>(cfg_.pipelineDepth));
    KELP_ASSERT(!(cfg_.serial && cfg_.externalArrivals),
                "serial trace mode cannot be externally driven");
    if (cfg_.externalArrivals) {
        cfg_.closedLoop = false;
        // Never reached: submit() is the only arrival source.
        nextArrival_ = 1e300;
    } else if (!cfg_.closedLoop) {
        KELP_ASSERT(cfg_.targetQps > 0.0, "target QPS must be > 0");
        nextArrival_ = rng_.exponential(1.0 / cfg_.targetQps);
    }
}

void
MlInferTask::submit(sim::Time arrival)
{
    KELP_EXPECTS(cfg_.externalArrivals,
                 "submit() is only valid in externalArrivals mode");
    queue_.push_back(arrival);
    noteChange();
}

bool
MlInferTask::fastPrepare(const ExecEnv &env, sim::Time dt)
{
    (void)env;
    (void)dt;
    // Only the fully-idle server has a fast kernel: a closed loop
    // re-arms itself instantly and never idles, and any queued or
    // in-flight request makes intra-tick event processing necessary.
    return !cfg_.closedLoop && queued() == 0 && inFlight_.empty();
}

bool
MlInferTask::fastTickReady(sim::Time dt) const
{
    // Conservative: the next arrival must lie strictly beyond this
    // tick (externally-driven tasks hold a 1e300 sentinel here).
    return nextArrival_ > now_ + dt;
}

bool
MlInferTask::fastTickRun(sim::Time dt)
{
    // Replay of advance() on an idle server: the event loop runs no
    // admissions or retirements and the trailing assignment leaves
    // now_ at exactly entry-now_ + dt.
    now_ = now_ + dt;
    if (accel_) {
        accel_->recordEngineBusy(0.0, dt);
        accel_->recordLinkBusy(0.0, dt);
    }
    return true;
}

uint64_t
MlInferTask::fastHorizon(sim::Time dt) const
{
    // Ticks until the next arrival could fall inside one, with a
    // margin of a few ticks: per-tick accumulation of now_ drifts
    // from the closed-form division by at most a few ulp per tick,
    // and an overestimate here would skip a tick the stepped
    // protocol would have refused. (Externally-driven tasks hold a
    // 1e300 sentinel, which simply yields a huge horizon.)
    double ticks = (nextArrival_ - now_) / dt;
    if (!(ticks > 5.0))
        return 0;
    return static_cast<uint64_t>(std::min(ticks - 4.0, 1e15));
}

void
MlInferTask::fastTickRunMany(sim::Time dt, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        now_ = now_ + dt;
    if (accel_)
        accel_->recordBusyRepeat(0.0, 0.0, dt, n);
}

int
MlInferTask::threadsWanted() const
{
    int threads = 1;
    for (const Stage &stage : stages_)
        if (stage.kind == SegmentKind::Host)
            threads = std::max(threads, stage.host.parallelism);
    // The pipeline can have several requests in host stages at once.
    return threads * std::min(cfg_.pipelineDepth, 2);
}

HostPhaseParams
MlInferTask::llcProfile() const
{
    for (const Stage &stage : stages_)
        if (stage.kind == SegmentKind::Host)
            return stage.host;
    return HostPhaseParams{};
}

void
MlInferTask::admit(sim::Time arrival)
{
    Request r;
    r.arrival = arrival;
    r.remaining = stages_[0].duration;
    r.segmentStart = now_;
    inFlight_.push_back(r);
    if (stages_[0].kind == SegmentKind::Host)
        ++hostActive_;
}

bool
MlInferTask::advanceStage(Request &r)
{
    const Stage &done = stages_[r.stage];
    if (traceSink_)
        traceSink_({done.kind, r.segmentStart, now_, r.iter});
    if (done.kind == SegmentKind::Host)
        --hostActive_;
    ++r.stage;
    if (r.stage >= stages_.size()) {
        r.stage = 0;
        ++r.iter;
        if (r.iter >= cfg_.itersPerRequest)
            return true;
    }
    const Stage &next = stages_[r.stage];
    if (next.kind == SegmentKind::Host)
        ++hostActive_;
    r.remaining = next.duration;
    r.segmentStart = now_;
    return false;
}

void
MlInferTask::admitFromQueue()
{
    while (static_cast<int>(inFlight_.size()) < cfg_.pipelineDepth &&
           queueHead_ < queue_.size())
        admit(queue_[queueHead_++]);
    // Drop the consumed prefix in place once it is at least half the
    // buffer, so the capacity is kept and the backlog stays bounded.
    if (queueHead_ * 2 >= queue_.size()) {
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<long>(queueHead_));
        queueHead_ = 0;
    }
}

sim::GiBps
MlInferTask::bwDemand(const ExecEnv &env)
{
    // Demand comes from requests currently in host segments, at the
    // parameters of the last of them in admission order.
    if (!hostActive_)
        return 0.0;
    const HostPhaseParams *params = nullptr;
    for (auto r = inFlight_.rbegin(); r != inFlight_.rend() && !params;
         ++r)
        if (stages_[r->stage].kind == SegmentKind::Host)
            params = &stages_[r->stage].host;
    KELP_ASSERT(params, "host-stage count out of step with requests");
    double share = env.effCores / hostActive_;
    double cores_each =
        std::min(share, static_cast<double>(params->parallelism));
    return hostDemand(*params, cores_each * hostActive_, demandBasis(),
                      env.missRatio, env.pfFraction);
}

void
MlInferTask::advance(sim::Time dt, const ExecEnv &env)
{
    sim::Time end = now_ + dt;
    sim::Time accel_busy = 0.0;
    sim::Time link_busy = 0.0;
    double last_host_speed = -1.0;
    ++advances_;
    const size_t depth = static_cast<size_t>(cfg_.pipelineDepth);

    // Event loop within the tick: advance to the next segment
    // completion or arrival, whichever is first.
    int guard = 0;
    while (now_ < end - 1e-12) {
        KELP_ASSERT(++guard < 100000, "inference event loop stuck");

        if (cfg_.closedLoop) {
            // Closed loop: keep exactly pipelineDepth requests in
            // flight; a fresh one arrives the moment a slot frees.
            while (inFlight_.size() < depth)
                admit(now_);
        } else {
            // Admit arrivals that have already happened. Externally
            // driven tasks get arrivals via submit() only; the
            // self-generating loop never runs for them (nextArrival_
            // stays at its sentinel).
            while (nextArrival_ <= now_ + 1e-12) {
                queue_.push_back(nextArrival_);
                nextArrival_ += rng_.exponential(1.0 / cfg_.targetQps);
            }
            admitFromQueue();
        }

        // Speed of every in-flight request, and the next event: the
        // earliest completion, the next arrival, or the tick end.
        sim::Time horizon = end;
        if (!cfg_.closedLoop)
            horizon = std::min(horizon, nextArrival_);
        bool accel_taken = false, pcie_taken = false;
        for (Request &r : inFlight_) {
            Stage &stage = stages_[r.stage];
            r.speed = 0.0;
            switch (stage.kind) {
              case SegmentKind::Host: {
                double share = env.effCores / hostActive_;
                double cores_each = std::min(
                    share, static_cast<double>(stage.host.parallelism));
                double core_scale = cores_each / stage.host.parallelism;
                if (stage.call != advances_) {
                    stage.speeds =
                        hostSpeeds(stage.host, env, demandBasis());
                    stage.call = advances_;
                }
                r.speed = std::max(stage.speeds.speed * core_scale, 1e-6);
                last_host_speed = stage.speeds.demandSpeed;
                break;
              }
              case SegmentKind::Accel:
                // FIFO: only the first accel-stage request runs.
                if (!accel_taken) {
                    r.speed = 1.0;
                    accel_taken = true;
                }
                break;
              case SegmentKind::Pcie:
                if (!pcie_taken) {
                    r.speed = 1.0;
                    pcie_taken = true;
                }
                break;
            }
            if (r.speed > 0.0)
                horizon = std::min(horizon, now_ + r.remaining / r.speed);
        }
        sim::Time slice = std::max(horizon - now_, 1e-12);
        now_ += slice;

        // Progress each request by the slice and retire its segment,
        // or the request, if that completed it. Requests do not read
        // each other's progress, so one pass matches progressing all
        // of them before retiring any.
        for (size_t i = 0; i < inFlight_.size();) {
            Request &r = inFlight_[i];
            if (r.speed > 0.0) {
                r.remaining -= slice * r.speed;
                const SegmentKind kind = stages_[r.stage].kind;
                if (kind == SegmentKind::Accel)
                    accel_busy += slice;
                else if (kind == SegmentKind::Pcie)
                    link_busy += slice;
            }
            if (r.remaining <= 1e-12 && advanceStage(r)) {
                latency_.add(now_ - r.arrival);
                ++completed_;
                if (completionSink_)
                    completionSink_(r.arrival, now_);
                inFlight_.erase(inFlight_.begin() + static_cast<long>(i));
                continue;
            }
            ++i;
        }
    }
    now_ = end;

    if (accel_) {
        accel_->recordEngineBusy(accel_busy / dt, dt);
        accel_->recordLinkBusy(link_busy / dt, dt);
    }
    if (last_host_speed >= 0.0)
        updateDemandBasis(last_host_speed);
}

} // namespace wl
} // namespace kelp
