/**
 * @file
 * Node-level memory system: per-socket controller pairs, NUMA
 * subdomain routing, shared backpressure, and the cross-socket link.
 *
 * Each socket owns two memory controllers (two halves of its channel
 * population). With NUMA subdomains (SNC/CoD) *disabled*, every flow
 * interleaves 50/50 across both controllers of its home socket --
 * full socket bandwidth, fully shared. With subdomains *enabled*,
 * a flow is routed to the controller of its home subdomain only, and
 * same-subdomain accesses enjoy a small latency discount while
 * cross-subdomain accesses pay a small premium (the SNC side effects
 * the paper measures in Section IV-A).
 *
 * Per tick the node submits flows, calls resolve(), and reads grants,
 * throttles, and counters back.
 *
 * A full resolve streams the tick's demands through a flow plan: the
 * flow set's shape (count, and per flow the requestor, route, and
 * priority bit) compiled into per-flow targets, merge slots, SNC
 * latency factors, and remote flags, plus each controller's lane of
 * flows in flow order. The plan is rebuilt only when the shape
 * changes; demand alone moving between ticks reuses it.
 */

#ifndef KELP_MEM_MEM_SYSTEM_HH
#define KELP_MEM_MEM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/backpressure.hh"
#include "mem/controller.hh"
#include "mem/upi.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace kelp {
namespace mem {

/** Memory-related parameters of one socket. */
struct SocketMemConfig
{
    /** Total peak socket bandwidth (both controllers), GiB/s. */
    sim::GiBps peakBw = 76.8;

    /** Unloaded memory latency, ns. */
    sim::Nanoseconds baseLatency = 90.0;

    /** Latency multiplier at 95% controller utilization. */
    double inflationAt95 = 4.0;

    /** Controller utilization where the distress signal asserts. */
    double distressThreshold = 0.80;

    /** Max issue-rate fraction removed by socket-wide throttling. */
    double throttleStrength = 0.45;

    /** Latency factor for same-subdomain accesses under SNC (< 1). */
    double sncLocalLatencyFactor = 0.92;

    /** Latency factor for cross-subdomain accesses under SNC (> 1). */
    double sncRemoteLatencyFactor = 1.10;
};

/** Parameters of the full memory system. */
struct MemSystemConfig
{
    int numSockets = 2;
    SocketMemConfig socket;

    /** Cross-socket link bandwidth, GiB/s. */
    sim::GiBps upiCapacity = 40.0;

    /** Added latency per remote hop, ns. */
    sim::Nanoseconds upiHopLatency = 70.0;

    /** Coherence latency tax at full link load (platform knob; the
     * Cloud TPU platform's is the highest, per Section VI-A). */
    double upiCoherenceTax = 0.5;

    /**
     * Controller-occupancy overhead of remote requests: a request
     * arriving over the link holds the home controller longer
     * (coherence round-trips, open-page misses), so remote traffic
     * consumes this multiple of its data bandwidth at the home
     * controller.
     */
    double remoteMcOverhead = 1.5;
};

/** Where a flow originates and where its data lives. */
struct Route
{
    sim::SocketId reqSocket = 0;
    sim::SubdomainId reqSub = 0;
    sim::SocketId homeSocket = 0;
    sim::SubdomainId homeSub = 0;
};

/** Aggregated per-socket counters exposed to the HAL. */
struct SocketCounters
{
    sim::IntervalAccumulator bw;
    sim::IntervalAccumulator latency;
    std::array<sim::IntervalAccumulator, 2> subdomainBw;
    std::array<sim::IntervalAccumulator, 2> subdomainLat;
};

/**
 * The complete host memory system of a node.
 */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemConfig &cfg);

    int numSockets() const { return static_cast<int>(sockets_.size()); }

    /** Enable/disable NUMA subdomains (SNC/CoD) on all sockets. */
    void setSncEnabled(bool enabled)
    {
        sncEnabled_ = enabled;
        cacheValid_ = false;
        noteChange();
    }
    bool sncEnabled() const { return sncEnabled_; }

    /** Select controller arbitration for the what-if ablation. */
    void setArbitration(Arbitration mode);

    /** Clear per-tick state; call before submitting flows. */
    void beginTick();

    /**
     * Submit one flow's bandwidth demand for this tick. A demand <= 0
     * submits nothing.
     *
     * @param requestor Task identifier (>= 0; grants are found through
     *        a dense index by it).
     * @param route Requesting/home placement of the flow; sockets
     *        must exist and subdomains must be 0 or 1.
     * @param demand Requested bandwidth, GiB/s.
     * @param high_priority Request-priority class (used only under
     *        RequestPriority arbitration).
     */
    void addFlow(int requestor, const Route &route, sim::GiBps demand,
                 bool high_priority = false);

    /** Resolve all flows for a tick of length dt. */
    void resolve(sim::Time dt);

    /** Aggregated grant for a requestor across all its flows;
     * {0, 1, baseLatency()} when it submitted none. */
    Grant grant(int requestor) const;

    /** A requestor's grant at controller (s, d) from the last full
     * resolve (testing/inspection); {0, 1, that controller's
     * latency()} when none of its flows contributed there. */
    Grant controllerGrant(sim::SocketId s, sim::SubdomainId d,
                          int requestor) const;

    /**
     * Core issue-rate multiplier for a socket, reflecting the last
     * resolve(). Read it *before* submitting this tick's flows to get
     * the physical one-tick signal-propagation delay.
     */
    double coreThrottle(sim::SocketId s) const;

    /** Instantaneous distress duty cycle for a socket. */
    double saturation(sim::SocketId s) const;

    /** Effective unloaded latency (for normalizing stall factors). */
    sim::Nanoseconds baseLatency() const { return cfg_.socket.baseLatency; }

    /** Utilization of a specific controller (testing/inspection). */
    const Controller &controller(sim::SocketId s,
                                 sim::SubdomainId d) const;

    const UpiLink &upi() const { return upi_; }

    /** Per-socket counter block (bandwidth, latency, subdomain BW). */
    const SocketCounters &counters(sim::SocketId s) const;

    /** FAST_ASSERTED-equivalent accumulator for a socket. */
    const sim::IntervalAccumulator &fastAsserted(sim::SocketId s) const;

    const MemSystemConfig &config() const { return cfg_; }

    /**
     * Reuse across ticks. Resolve caching: when a tick's submitted
     * flows are identical to the previous tick's (same requestors,
     * routes, demands, priority bits, in the same order -- the common
     * case, since task demand only moves on phase or knob changes),
     * resolve() reuses the previous grants and only advances the
     * time-integrated counters. A tick whose flows keep the previous
     * shape but move demand reuses the flow plan, and each controller
     * whose contributions repeat skips arbitration. Disabling turns
     * off all three: every resolve rebuilds the plan and arbitrates
     * every controller. Debug builds re-run the full computation on
     * every hit, rebuild a fresh plan on every plan reuse, and
     * KELP_INVARIANT the reused results against them.
     */
    void setResolveCacheEnabled(bool enabled)
    {
        cacheEnabled_ = enabled;
        cacheValid_ = false;
        noteChange();
    }
    uint64_t resolveCacheHits() const { return cacheHits_; }
    uint64_t resolveCacheMisses() const { return cacheMisses_; }

    /** True when the most recent resolve() was a cache hit: every
     * grant, throttle, and instantaneous signal repeated the previous
     * tick's bit for bit. The node's quiescence detector keys off
     * this. */
    bool lastResolveHit() const { return lastHit_; }

    /** Controller arbitration skips and arbitrations, summed. */
    uint64_t mcCacheHits() const;
    uint64_t mcCacheMisses() const;

    /** Ticks consumed through fastForward(). */
    uint64_t fastTicks() const { return fastTicks_; }

    /**
     * Advance the whole memory system by n ticks during which the
     * registered flow set is frozen (node fast-forward). Equivalent,
     * bit for bit, to n resolve() cache hits: only time integrals
     * move; grants, utilizations, latencies, and throttles are fixed
     * points. Callable only when the previous resolve() hit.
     */
    void fastForward(uint64_t n, sim::Time dt);

    /** Hook fired on every configuration mutation (SNC, arbitration,
     * cache enablement); the node uses it to leave the fast path. */
    void setChangeHook(std::function<void()> hook)
    {
        changeHook_ = std::move(hook);
    }

  private:
    void noteChange()
    {
        if (changeHook_)
            changeHook_();
    }

    struct Flow
    {
        int requestor = 0;
        Route route;
        sim::GiBps demand = 0.0;
        bool highPriority = false;
    };

    /** One flow's compiled shape: everything resolveFull() needs
     * besides its demand. */
    struct PlannedFlow
    {
        /** Dense slot of the requestor, in first-appearance order. */
        int slot = 0;

        /** Target controller index (socket * 2 + subdomain). Without
         * subdomains the flow interleaves over mc and mc + 1. */
        int mc = 0;

        /** The requestor's merge slot at each target controller. */
        std::array<int, 2> mergeSlot = {-1, -1};

        /** SNC locality latency factor. */
        double sncFactor = 1.0;

        bool remote = false;
        bool highPriority = false;

        bool operator==(const PlannedFlow &) const = default;
    };

    /** The flow plan. Rebuilt in place, so a rebuild reuses every
     * vector's storage. */
    struct FlowPlan
    {
        /** Per flow, in submission order. */
        std::vector<PlannedFlow> flows;

        /** Requestor id of each slot, in first-appearance order. */
        std::vector<int> requestors;

        /** Requestor id -> slot, -1 for ids not in the plan. */
        std::vector<int> slotOf;

        /** Per controller index: the flows routed there, in flow
         * order. */
        std::vector<std::vector<int>> lanes;

        /** Per controller index: its number of merge slots. */
        std::vector<int> mergeSlots;

        /** (requestor slot, controller index) -> merge slot, -1 when
         * none of the requestor's flows targets that controller;
         * row-major by requestor slot. A controller numbers its merge
         * slots in the order its lane first meets each requestor, so
         * an unchanged lane keeps its numbering across a rebuild. */
        std::vector<int> mergeSlotOf;

        bool anyRemote = false;

        bool operator==(const FlowPlan &) const = default;
    };

    /** One requestor's merge accumulators of the last full resolve
     * and the grant assembled from them. */
    struct Merged
    {
        sim::GiBps delivered = 0.0;
        sim::GiBps demand = 0.0;
        double latW = 0.0;
        Grant grant;
    };

    struct SocketState
    {
        std::unique_ptr<BackpressureUnit> backpressure;
        SocketCounters counters;
    };

    /** Latency factor from SNC locality for a flow. */
    double sncFactor(const Route &route) const;

    /** Compile this tick's flows into @p plan, reusing its storage. */
    void buildPlan(FlowPlan &plan) const;

#ifndef NDEBUG
    /** Check that the reused plan equals a freshly built one. */
    void verifyPlan() const;
#endif

    /** Slot of a requestor in the plan, -1 when absent. */
    int slotOf(int requestor) const;

    /** Index of (requestor slot, controller index) in
     * FlowPlan::mergeSlotOf. */
    size_t
    mergeIndex(int slot, size_t mc) const
    {
        return static_cast<size_t>(slot) * mcs_.size() + mc;
    }

    /** The full resolve pipeline through the current plan. */
    void resolveFull(sim::Time dt);

    /** Counter-only advance for a tick identical to the last one. */
    void resolveCached(sim::Time dt);

    /** Steps shared by the full, cached, and fast-forward paths:
     * backpressure and socket counters, each for n identical ticks
     * of length dt. */
    void updateBackpressure(sim::Time dt, uint64_t n);
    void accumulateSocketCounters(sim::Time dt, uint64_t n);

    MemSystemConfig cfg_;
    bool sncEnabled_ = false;
    std::vector<SocketState> sockets_;

    /** Memory controllers by index socket * 2 + subdomain. */
    std::vector<Controller> mcs_;
    UpiLink upi_;

    /** This tick's flows in positions [0, numFlows_). Written in
     * place over the previous tick's, which addFlow() compares
     * against position by position. */
    std::vector<Flow> flows_;
    size_t numFlows_ = 0;
    size_t prevNumFlows_ = 0;
    bool shapeChanged_ = false;
    bool demandChanged_ = false;

    FlowPlan plan_;

    /** Per requestor slot of plan_. */
    std::vector<Merged> merged_;

    /** One controller's contribution list, reused for each. */
    std::vector<Contribution> contribs_;

    /** Reuse state (see setResolveCacheEnabled). */
    bool cacheEnabled_ = true;
    bool cacheValid_ = false;
    sim::Time prevDt_ = -1.0;
    uint64_t cacheHits_ = 0;
    uint64_t cacheMisses_ = 0;
    bool lastHit_ = false;
    uint64_t fastTicks_ = 0;
    std::function<void()> changeHook_;
};

} // namespace mem
} // namespace kelp

#endif // KELP_MEM_MEM_SYSTEM_HH
