#include "node/node.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace kelp {
namespace node {

Node::Node(const PlatformSpec &spec)
    : spec_(spec), topo_(spec.topo), mem_(spec.mem),
      accel_(spec.accel), groups_(topo_), knobs_(groups_)
{
    // Any group-knob write or memory-system reconfiguration breaks
    // quiescence; the hooks funnel them all into markDirty().
    groups_.setChangeHook([this]() { markDirty(); });
    mem_.setChangeHook([this]() { markDirty(); });
}

wl::Task &
Node::addTask(std::unique_ptr<wl::Task> task)
{
    KELP_ASSERT(task, "null task");
    KELP_ASSERT(task->group() >= 0 && task->group() < groups_.size(),
                "task placed into unknown group ", task->group());
    task->setId(static_cast<int>(tasks_.size()));
    task->setChangeHook([this]() { markDirty(); });
    tasks_.push_back(std::move(task));
    states_.push_back(TaskState{tasks_.back().get(), {}, {}});
    markDirty();
    return *tasks_.back();
}

void
Node::attach(sim::Engine &engine)
{
    engine.onTick([this](sim::Time now, sim::Time dt) {
        tick(now, dt);
    });
    engine.setFastForward(
        [this](sim::Time now, sim::Time dt, uint64_t max_ticks) {
            return fastForward(now, dt, max_ticks);
        });
}

Node::TaskState &
Node::stateOf(const wl::Task &task)
{
    KELP_ASSERT(task.id() >= 0 &&
                task.id() < static_cast<int>(states_.size()),
                "task not placed on this node");
    return states_[task.id()];
}

const wl::ExecEnv &
Node::lastEnv(const wl::Task &task) const
{
    KELP_ASSERT(task.id() >= 0 &&
                task.id() < static_cast<int>(states_.size()),
                "task not placed on this node");
    return states_[task.id()].env;
}

wl::Task *
Node::taskById(int id)
{
    if (id < 0 || id >= static_cast<int>(tasks_.size()))
        return nullptr;
    return tasks_[id].get();
}

int
Node::runnableThreadsInGroup(sim::GroupId group,
                             sim::SocketId socket) const
{
    int threads = 0;
    for (const auto &t : tasks_) {
        if (t->group() == group && t->homeSocket() == socket &&
            t->runnable()) {
            threads += t->threadsWanted();
        }
    }
    return threads;
}

wl::Task *
Node::hungriestRunnable(sim::GroupId group)
{
    wl::Task *best = nullptr;
    double best_demand = -1.0;
    for (auto &st : states_) {
        if (st.task->group() != group || !st.task->runnable())
            continue;
        if (st.lastDemand > best_demand) {
            best_demand = st.lastDemand;
            best = st.task;
        }
    }
    return best;
}

void
Node::computeCoreShares()
{
    // Pools are rebuilt for every socket on every recompute; the
    // member scratch only keeps their capacity (pinned pools by
    // group id).
    pinnedPools_.resize(static_cast<size_t>(groups_.size()));
    for (int s = 0; s < topo_.sockets(); ++s) {
        int pinned_cores = 0;
        for (const auto &g : groups_.all()) {
            Pool &p = pinnedPools_[static_cast<size_t>(g->id())];
            p.pinned = !g->floating() && g->cores().inSocket(s) > 0;
            p.threads = 0;
            p.members.clear();
            if (p.pinned) {
                p.cores = g->cores().inSocket(s);
                p.coresPerSub[0] = g->cores().inSubdomain(s, 0);
                p.coresPerSub[1] = g->cores().inSubdomain(s, 1);
                pinned_cores += g->cores().inSocket(s);
            }
        }
        Pool &floating = floatingPool_;
        floating.threads = 0;
        floating.members.clear();
        floating.cores = std::max(
            topo_.coresPerSocket() - pinned_cores, 0);
        floating.coresPerSub[0] = floating.cores / 2.0;
        floating.coresPerSub[1] = floating.cores / 2.0;

        for (size_t i = 0; i < states_.size(); ++i) {
            TaskState &st = states_[i];
            if (st.task->homeSocket() != s)
                continue;
            if (!st.task->runnable()) {
                // Suspended/terminated tasks hold no cores and make
                // no progress; their slots return to the pool.
                st.env.effCores = 0.0;
                st.env.smtFactor = 1.0;
                st.coresPerSub = {0.0, 0.0};
                continue;
            }
            const auto &g = groups_.get(st.task->group());
            Pool &pinned = pinnedPools_[static_cast<size_t>(g.id())];
            Pool &pool = pinned.pinned ? pinned : floating;
            pool.threads += st.task->threadsWanted();
            pool.members.push_back(i);
        }

        auto apply = [this](const Pool &pool) {
            if (pool.members.empty())
                return;
            double smt = topo_.config().smtSiblingFactor;
            for (size_t i : pool.members) {
                TaskState &st = states_[i];
                int n = st.task->threadsWanted();
                // Slots: how many of the task's threads can run at
                // once (SMT doubles thread capacity). SMT factor: the
                // per-running-thread throughput penalty from sibling
                // sharing.
                double slots_frac = 0.0;
                double smt_factor = 1.0;
                if (pool.cores > 0.0 && pool.threads > 0) {
                    double r = pool.threads / pool.cores;
                    if (r <= 1.0) {
                        slots_frac = 1.0;
                    } else {
                        double running = std::min(
                            static_cast<double>(pool.threads),
                            2.0 * pool.cores);
                        double c_eff = pool.cores *
                            (1.0 + smt * std::min(r - 1.0, 1.0));
                        slots_frac = running / pool.threads;
                        smt_factor = c_eff / running;
                    }
                }
                st.env.effCores = n * slots_frac;
                st.env.smtFactor = smt_factor;
                // Split a task's effective cores across subdomains in
                // proportion to the pool's core placement.
                for (int d = 0; d < 2; ++d) {
                    st.coresPerSub[d] = pool.cores > 0.0 ?
                        st.env.effCores *
                            (pool.coresPerSub[d] / pool.cores) :
                        0.0;
                }
            }
        };

        for (const Pool &pool : pinnedPools_)
            if (pool.pinned)
                apply(pool);
        apply(floating);
    }
}

void
Node::computeLlc()
{
    // Miss ratios are rebuilt from scratch on every recompute: a
    // task accumulates one weighted contribution per LLC domain it
    // has cores in (-1 marks "no contribution yet").
    for (auto &st : states_)
        st.env.missRatio = -1.0;

    bool snc = mem_.sncEnabled();
    for (int s = 0; s < topo_.sockets(); ++s) {
        int domains = snc ? 2 : 1;
        for (int d = 0; d < domains; ++d) {
            cpu::Llc llc(snc ? topo_.llcMbPerSubdomain() :
                               topo_.config().llcMbPerSocket,
                         snc ? topo_.llcWaysPerSubdomain() :
                               topo_.config().llcWays);

            // Gather requests from tasks with cores in this domain.
            llcReqs_.clear();
            llcPresent_.clear();
            for (size_t i = 0; i < states_.size(); ++i) {
                const TaskState &st = states_[i];
                if (st.task->homeSocket() != s)
                    continue;
                double cores = snc ? st.coresPerSub[d] :
                    st.coresPerSub[0] + st.coresPerSub[1];
                if (cores <= 1e-9)
                    continue;
                const auto &g = groups_.get(st.task->group());
                wl::HostPhaseParams prof = st.task->llcProfile();
                cpu::LlcRequest r;
                r.group = st.task->id();
                r.footprintMb = prof.llcFootprintMb;
                r.weight = prof.llcWeight * cores;
                r.dedicatedWays =
                    std::min(g.catWays(), llc.ways() - 1);
                r.hitMax = prof.llcHitMax;
                llcReqs_.push_back(r);
                llcPresent_.push_back(i);
            }
            if (llcReqs_.empty())
                continue;

            const auto &shares =
                llcCaches_[static_cast<size_t>(s * 2 + d)].get(
                    llc, llcReqs_);
            for (size_t i : llcPresent_) {
                TaskState &st = states_[i];
                wl::HostPhaseParams prof = st.task->llcProfile();
                // Standalone reference: the full socket LLC, alone,
                // SNC off (the paper's normalization baseline).
                double hit_alone = cpu::Llc::hitRate(
                    topo_.config().llcMbPerSocket,
                    prof.llcFootprintMb, prof.llcHitMax);
                double hit_now = shares.at(st.task->id()).hitRate;
                double miss_alone = std::max(1.0 - hit_alone, 0.01);
                double miss_now = std::max(1.0 - hit_now, 0.0);
                double ratio = miss_now / miss_alone;
                // Weight by the task's core split across domains so
                // spanning tasks blend their two domains' ratios.
                double c0 = st.coresPerSub[0];
                double c1 = st.coresPerSub[1];
                double total = c0 + c1;
                double w = 1.0;
                if (snc && total > 0.0)
                    w = (d == 0 ? c0 : c1) / total;
                double contrib = ratio * w;
                st.env.missRatio = st.env.missRatio < 0.0 ?
                    contrib : st.env.missRatio + contrib;
            }
        }
    }

    // Tasks with no cores anywhere keep the neutral ratio.
    for (auto &st : states_)
        if (st.env.missRatio < 0.0)
            st.env.missRatio = 1.0;
}

void
Node::resolveAndAdvance(sim::Time dt)
{
    // Throttles from the previous tick's distress state (one tick of
    // physical signal propagation).
    std::array<double, 2> throttle = {1.0, 1.0};
    for (int s = 0; s < mem_.numSockets(); ++s)
        throttle[s] = mem_.coreThrottle(s);

    mem_.beginTick();

    // Pass 1: collect and route demands.
    for (auto &st : states_) {
        if (!st.task->runnable()) {
            st.lastDemand = 0.0;
            continue;
        }
        const auto &g = groups_.get(st.task->group());
        st.env.socket = st.task->homeSocket();
        st.env.pfFraction = g.floating() ? 1.0 : g.prefetcherFraction();
        st.env.throttle = throttle[st.env.socket];
        if (priorityAwareBackpressure_ &&
            g.priority() == hal::Priority::High) {
            st.env.throttle = 1.0;
        }
        st.env.baseLatencyNs = mem_.baseLatency();

        sim::GiBps demand = st.task->bwDemand(st.env);
        ++demandCalls_;
        st.lastDemand = std::max(demand, 0.0);
        if (demand <= 0.0)
            continue;

        bool hi = g.priority() == hal::Priority::High;
        sim::SocketId home = st.task->homeSocket();
        if (!st.task->dataPlacement().empty()) {
            // Explicit placement (Remote-DRAM experiments). The
            // requesting subdomain is where most of its cores sit.
            sim::SubdomainId req_sub =
                st.coresPerSub[1] > st.coresPerSub[0] ? 1 : 0;
            for (const auto &share : st.task->dataPlacement()) {
                mem::Route route{home, req_sub, share.socket,
                                 share.subdomain};
                mem_.addFlow(st.task->id(), route,
                             demand * share.fraction, hi);
            }
        } else {
            // Local allocation: data lives where the cores are.
            double c0 = st.coresPerSub[0];
            double c1 = st.coresPerSub[1];
            double total = c0 + c1;
            if (total <= 1e-12) {
                continue;
            }
            if (c0 > 1e-12) {
                mem_.addFlow(st.task->id(),
                             {home, 0, home, 0}, demand * c0 / total,
                             hi);
            }
            if (c1 > 1e-12) {
                mem_.addFlow(st.task->id(),
                             {home, 1, home, 1}, demand * c1 / total,
                             hi);
            }
        }
    }

    mem_.resolve(dt);

    // Pass 2: advance with post-resolve environments. Non-runnable
    // tasks are frozen: no progress, no demand-basis updates.
    for (auto &st : states_) {
        if (!st.task->runnable())
            continue;
        mem::Grant grant = mem_.grant(st.task->id());
        st.env.latencyNs = grant.latency;
        st.env.bwFraction = grant.fraction;
        st.task->advance(dt, st.env);
        ++advanceCalls_;
    }
}

void
Node::tick(sim::Time now, sim::Time dt)
{
    (void)now;
    // Core shares and LLC miss ratios are pure in state that only
    // changes through a change hook, so an event-driven node reuses
    // them until one fires. The reference path recomputes every tick
    // so that it stays independent of the hooks.
    if (sharesDirty_ || !eventDriven_) {
        computeCoreShares();
        computeLlc();
        sharesDirty_ = false;
    } else {
#ifndef NDEBUG
        verifyShares();
#endif
    }
    resolveAndAdvance(dt);

    // Quiescence tracking: a tick is quiet when nothing marked the
    // node dirty and the memory system proved the flow set repeated
    // (resolve-cache hit). Any full tick invalidates the prepared
    // task kernels -- a task may have advanced through an internal
    // boundary (stage change) that a cached kernel would miss.
    bool quiet = !dirty_ && mem_.lastResolveHit();
    dirty_ = false;
    fastReady_ = false;
    if (quiet)
        ++quietStreak_;
    else
        quietStreak_ = 0;
}

bool
Node::tryPrepareFast(sim::Time dt)
{
    for (auto &st : states_) {
        if (!st.task->runnable())
            continue;
        if (!st.task->fastPrepare(st.env, dt))
            return false;
        // A stage transition inside the last advance() can move this
        // tick's demand while the resolve cache only notices one
        // tick later; require the demand to still be exactly what
        // the cache validated.
        if (std::max(st.task->bwDemand(st.env), 0.0) != st.lastDemand)
            return false;
    }
    fastReady_ = true;
    return true;
}

uint64_t
Node::fastForward(sim::Time now, sim::Time dt, uint64_t max_ticks)
{
    (void)now;
    // Two quiet ticks are required, not one: a resolve hit at tick N
    // proves tick N repeated N-1, which pins the throttle (computed
    // from N-1's distress state) for N+1 as well.
    if (!eventDriven_ || dirty_ || quietStreak_ < 2)
        return 0;
    if (!fastReady_ && !tryPrepareFast(dt))
        return 0;

    uint64_t done = 0;
    while (done < max_ticks) {
        // Batched chunk: every runnable task promises a conservative
        // horizon of safe ticks; run the overlap through the batch
        // kernels, one op chain per tick instead of two virtual
        // dispatches per task per tick.
        uint64_t h = max_ticks - done;
        uint64_t runnables = 0;
        for (auto &st : states_) {
            if (!st.task->runnable())
                continue;
            ++runnables;
            h = std::min(h, st.task->fastHorizon(dt));
            if (h == 0)
                break;
        }
        if (h > 0) {
#ifndef NDEBUG
            verifyQuiescent(dt);
#endif
            for (auto &st : states_) {
                if (st.task->runnable())
                    st.task->fastTickRunMany(dt, h);
            }
            fastTaskTicks_ += h * runnables;
            done += h;
            continue;
        }

        // Boundary ticks (a task stopped promising a horizon): fall
        // back to per-tick stepping through the ready/run protocol.
        // Phase 1 (const): every runnable task must accept one more
        // tick before anything mutates, so a refusal leaves the
        // model exactly at a full-tick boundary.
        bool ready = true;
        for (auto &st : states_) {
            if (st.task->runnable() && !st.task->fastTickReady(dt)) {
                ready = false;
                break;
            }
        }
        if (!ready)
            break;
#ifndef NDEBUG
        verifyQuiescent(dt);
#endif
        // Phase 2: apply the cached kernels.
        bool keep = true;
        for (auto &st : states_) {
            if (!st.task->runnable())
                continue;
            if (!st.task->fastTickRun(dt))
                keep = false;
            ++fastTaskTicks_;
        }
        ++done;
        if (!keep) {
            // A task crossed an internal edge; fall back to full
            // ticks so next tick's demand is recomputed.
            markDirty();
            break;
        }
    }
    // The memory-system integrals are independent of task state
    // while the flow set is frozen, so they batch at the end.
    if (done > 0)
        mem_.fastForward(done, dt);
    return done;
}

void
Node::verifyShares()
{
    // Recompute core shares and LLC miss ratios and prove the values
    // held in states_ are bitwise fixed points. The recomputation is
    // idempotent: with no input changed it writes back exactly the
    // values already present.
    const std::vector<TaskState> cached = states_;

    computeCoreShares();
    computeLlc();

    for (size_t i = 0; i < states_.size(); ++i) {
        const TaskState &st = states_[i];
        const TaskState &c = cached[i];
        KELP_INVARIANT(st.env.effCores == c.env.effCores &&
                           st.env.smtFactor == c.env.smtFactor &&
                           st.env.missRatio == c.env.missRatio &&
                           st.coresPerSub == c.coresPerSub,
                       "reused core/LLC shares drifted for task '",
                       st.task->name(), "'");
    }
}

void
Node::verifyQuiescent(sim::Time dt)
{
    (void)dt;
    // Recompute the whole pre-resolve pipeline and prove the cached
    // environments are bitwise fixed points: core shares and LLC
    // miss ratios first, then knobs, throttles, and demands.
    verifyShares();

    std::array<double, 2> throttle = {1.0, 1.0};
    for (int s = 0; s < mem_.numSockets(); ++s)
        throttle[s] = mem_.coreThrottle(s);

    for (auto &st : states_) {
        if (!st.task->runnable())
            continue;
        const auto &g = groups_.get(st.task->group());
        double pf = g.floating() ? 1.0 : g.prefetcherFraction();
        double th = throttle[st.task->homeSocket()];
        if (priorityAwareBackpressure_ &&
            g.priority() == hal::Priority::High) {
            th = 1.0;
        }
        KELP_INVARIANT(st.env.pfFraction == pf && st.env.throttle == th,
                       "fast-forward knob/throttle state drifted "
                       "for task '", st.task->name(), "'");
        KELP_INVARIANT(std::max(st.task->bwDemand(st.env), 0.0) ==
                           st.lastDemand,
                       "fast-forward demand drifted for task '",
                       st.task->name(), "'");
    }
}

} // namespace node
} // namespace kelp
