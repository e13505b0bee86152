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
#include "mem/requestor_table.hh"
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
     * Submit one flow's bandwidth demand for this tick.
     *
     * @param requestor Task identifier (>= 0; grants are kept in a
     *        table indexed by it).
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

    /** Aggregated grant for a requestor across all its flows. */
    Grant grant(int requestor) const;

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
     * Resolve caching: when a tick's submitted flows are identical to
     * the previous tick's (same requestors, routes, demands, priority
     * bits, in the same order -- the common case, since task demand
     * only moves on phase or knob changes), resolve() reuses the
     * previous grants and only advances the time-integrated counters.
     * Debug builds re-run the full computation on every hit and
     * KELP_INVARIANT the cached grants against it.
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

    /** Controller-level arbitration-skip counters, summed. */
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
        int requestor;
        Route route;
        sim::GiBps demand;
        bool highPriority;
    };

    /** One requestor's row of the last full resolve: its flows'
     * merge accumulators and the grant assembled from them. */
    struct Merged
    {
        sim::GiBps delivered = 0.0;
        sim::GiBps demand = 0.0;
        double latW = 0.0;
        Grant grant;
    };

    struct SocketState
    {
        std::array<std::unique_ptr<Controller>, 2> mc;
        std::unique_ptr<BackpressureUnit> backpressure;
        SocketCounters counters;
    };

    /** Latency factor from SNC locality for a flow. */
    double sncFactor(const Route &route) const;

    /** The pre-cache resolve pipeline (always correct, never reuses
     * state). Clears and re-registers controller/link demand. */
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
    UpiLink upi_;
    std::vector<Flow> flows_;
    RequestorTable<Merged> grants_;

    /** Resolve-cache state (see setResolveCacheEnabled). */
    std::vector<Flow> prevFlows_;
    bool cacheEnabled_ = true;
    bool cacheValid_ = false;
    bool flowsDirty_ = false;
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
