/**
 * @file
 * Node: a complete accelerated server, and the per-tick orchestration
 * that couples tasks to the hardware models.
 *
 * A full tick of the node:
 *  1. Builds core pools per socket (pinned groups own their masked
 *     cores; floating groups share the rest) and computes each task's
 *     effective cores, folding in fair sharing and SMT capacity.
 *  2. Apportions each LLC domain (socket-wide, or per-subdomain when
 *     SNC is on) among the tasks present and derives per-task LLC
 *     miss ratios relative to their standalone hit rates.
 *  3. Reads the previous tick's distress throttles, collects per-task
 *     bandwidth demands, and routes them: explicit data placements
 *     (Remote-DRAM experiments) or local-allocation splits across the
 *     subdomains where the task holds cores.
 *  4. Resolves the memory system and advances every task with its
 *     post-resolve environment.
 *
 * Steps 1 and 2 depend only on state whose every mutation fires a
 * change hook (markDirty()), so with the event-driven path on they
 * run only on the first tick after a hook fired; the other ticks
 * reuse their results. With it off, every tick runs all four steps.
 */

#ifndef KELP_NODE_NODE_HH
#define KELP_NODE_NODE_HH

#include <array>
#include <memory>
#include <vector>

#include "accel/accelerator.hh"
#include "cpu/llc.hh"
#include "cpu/topology.hh"
#include "hal/knobs.hh"
#include "hal/task_group.hh"
#include "mem/mem_system.hh"
#include "node/platform.hh"
#include "sim/engine.hh"
#include "workload/task.hh"

namespace kelp {
namespace node {

/** A fully-assembled accelerated server. */
class Node
{
  public:
    explicit Node(const PlatformSpec &spec);

    const PlatformSpec &spec() const { return spec_; }
    const cpu::Topology &topology() const { return topo_; }
    mem::MemSystem &memSystem() { return mem_; }
    const mem::MemSystem &memSystem() const { return mem_; }
    accel::Accelerator &accelerator() { return accel_; }
    hal::GroupRegistry &groups() { return groups_; }
    hal::ResourceKnobs &knobs() { return knobs_; }

    /** Enable NUMA subdomains on the host (SNC/CoD). */
    void setSncEnabled(bool enabled) { mem_.setSncEnabled(enabled); }
    bool sncEnabled() const { return mem_.sncEnabled(); }

    /**
     * Section VI-C what-if: backpressure that targets the offending
     * threads only -- high-priority groups are exempt from the
     * distress throttle. Off by default (the paper's hardware
     * throttles every core on the socket).
     */
    void setPriorityAwareBackpressure(bool enabled)
    {
        priorityAwareBackpressure_ = enabled;
        markDirty();
    }
    bool priorityAwareBackpressure() const
    {
        return priorityAwareBackpressure_;
    }

    /**
     * Place a task on the node. The node assigns the task id used as
     * its memory-system requestor.
     */
    wl::Task &addTask(std::unique_ptr<wl::Task> task);

    /** Typed convenience overload returning the concrete task type. */
    template <typename T>
    T &
    add(std::unique_ptr<T> task)
    {
        return static_cast<T &>(addTask(std::move(task)));
    }

    /** All placed tasks. */
    const std::vector<std::unique_ptr<wl::Task>> &tasks() const
    {
        return tasks_;
    }

    /** Task by node-assigned id, or nullptr. Ids are stable: tasks
     * are never erased, only moved to a terminal lifecycle state. */
    wl::Task *taskById(int id);

    /**
     * Threads wanted by the *runnable* members of a group on a
     * socket. Controllers re-read this every sample under churn
     * instead of assuming a fixed colocation.
     */
    int runnableThreadsInGroup(sim::GroupId group,
                               sim::SocketId socket) const;

    /**
     * The runnable member of a group with the highest bandwidth
     * demand on the last tick (ties break toward the lowest task id).
     * Nullptr when the group has no runnable members. This is the SLO
     * ladder's eviction victim: the antagonist hurting the ML task
     * most right now.
     */
    wl::Task *hungriestRunnable(sim::GroupId group);

    /** Register the node's tick pipeline with an engine, including
     * the event-driven fast-forward hook. */
    void attach(sim::Engine &engine);

    /** Execute one tick (exposed for tests; attach() drives this). */
    void tick(sim::Time now, sim::Time dt);

    /** Last computed environment for a task (inspection/tests). */
    const wl::ExecEnv &lastEnv(const wl::Task &task) const;

    /**
     * Enable/disable the event-driven fast path (default on).
     * Disabling forces every tick through the full pipeline,
     * including the core-share and LLC recompute that an
     * event-driven node skips until a change hook fires; the
     * results are bit-identical either way -- the fast path only
     * engages where it can prove ticks are repeats.
     */
    void setEventDrivenEnabled(bool enabled)
    {
        eventDriven_ = enabled;
        markDirty();
    }
    bool eventDrivenEnabled() const { return eventDriven_; }

    /**
     * Fast-forward up to max_ticks quiescent ticks; returns how many
     * were consumed (0 = not quiescent). attach() wires this into
     * the engine; exposed for tests.
     */
    uint64_t fastForward(sim::Time now, sim::Time dt,
                         uint64_t max_ticks);

    /** Invalidate quiescence and the reused core shares (knob
     * writes, lifecycle changes, task arrivals, config flips all
     * funnel here via change hooks). */
    void markDirty()
    {
        dirty_ = true;
        sharesDirty_ = true;
        fastReady_ = false;
        quietStreak_ = 0;
    }

    /** Per-task bwDemand() calls made by the full tick path. */
    uint64_t demandCalls() const { return demandCalls_; }

    /** Per-task advance() calls made by the full tick path. */
    uint64_t advanceCalls() const { return advanceCalls_; }

    /** Task-ticks consumed through the fast path. */
    uint64_t fastTaskTicks() const { return fastTaskTicks_; }

  private:
    struct TaskState
    {
        wl::Task *task = nullptr;
        wl::ExecEnv env;
        /** Effective cores per subdomain of the home socket. */
        std::array<double, 2> coresPerSub = {0.0, 0.0};
        /** Bandwidth demand submitted on the last tick, GiB/s. */
        double lastDemand = 0.0;
    };

    /**
     * A set of tasks sharing a set of cores: one pool per pinned
     * group per socket, plus one floating pool per socket over the
     * unpinned cores. Members are indices into states_.
     */
    struct Pool
    {
        bool pinned = false;
        double cores = 0.0;
        std::array<double, 2> coresPerSub = {0.0, 0.0};
        int threads = 0;
        std::vector<size_t> members;
    };

    /** Phase 1: pools, effective cores, SMT. */
    void computeCoreShares();

    /** Phase 2: LLC apportionment and miss ratios. */
    void computeLlc();

    /** Phase 3+4: demands, memory resolution, task advancement. */
    void resolveAndAdvance(sim::Time dt);

    /** Ask every runnable task to cache its quiescent-tick kernel
     * against its last resolved environment; true when all accept
     * and their demands still match what the resolve cache saw. */
    bool tryPrepareFast(sim::Time dt);

    /** Debug cross-check: recompute core shares and LLC miss ratios
     * and KELP_INVARIANT them bitwise against the reused ones. */
    void verifyShares();

    /** Debug cross-check: recompute the full pre-resolve pipeline
     * and KELP_INVARIANT it against the cached environments. */
    void verifyQuiescent(sim::Time dt);

    TaskState &stateOf(const wl::Task &task);

    PlatformSpec spec_;
    cpu::Topology topo_;
    mem::MemSystem mem_;
    accel::Accelerator accel_;
    hal::GroupRegistry groups_;
    hal::ResourceKnobs knobs_;

    std::vector<std::unique_ptr<wl::Task>> tasks_;
    std::vector<TaskState> states_;
    bool priorityAwareBackpressure_ = false;

    /** Event-driven engine state. dirty_ is raised by any change
     * hook; sharesDirty_ likewise, but is cleared only when tick()
     * recomputes the core shares and LLC miss ratios, so a hook that
     * fires mid-tick still reaches the next tick; quietStreak_
     * counts consecutive full ticks that were resolve-cache hits
     * with no dirt; fastReady_ marks the task kernels as prepared
     * for the current environment. */
    bool eventDriven_ = true;
    bool dirty_ = true;
    bool sharesDirty_ = true;
    int quietStreak_ = 0;
    bool fastReady_ = false;
    uint64_t demandCalls_ = 0;
    uint64_t advanceCalls_ = 0;
    uint64_t fastTaskTicks_ = 0;

    /** Per-(socket, domain) apportionment memos (2 sockets x 2
     * domains; the non-SNC case uses domain 0 only). */
    std::array<cpu::ApportionCache, 4> llcCaches_;

    /** Core-share and LLC scratch, rebuilt from scratch on every
     * recompute and kept only so its capacity is reused: pinned
     * pools indexed by group id, the floating pool, and one LLC
     * domain's requests with the states_ indices of their tasks. */
    std::vector<Pool> pinnedPools_;
    Pool floatingPool_;
    std::vector<cpu::LlcRequest> llcReqs_;
    std::vector<size_t> llcPresent_;
};

} // namespace node
} // namespace kelp

#endif // KELP_NODE_NODE_HH
