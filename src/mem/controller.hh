/**
 * @file
 * Memory controller bandwidth/latency model.
 *
 * Every tick, requestors (tasks) register bandwidth demands; resolve()
 * computes each requestor's delivered bandwidth and the controller's
 * effective latency from the latency-load curve.
 *
 * Two arbitration modes are supported:
 *  - Fair: proportional sharing when oversubscribed. This models the
 *    FR-FCFS-ish behaviour of real controllers that the paper works
 *    around, and is the mode used in all paper-reproduction runs.
 *  - RequestPriority: high-priority demands are served first and see
 *    near-unloaded latency; low-priority flows share the remainder.
 *    This is the "fine-grained memory isolation" hardware that
 *    Section VI-D of the paper calls for, used by the what-if
 *    ablation to estimate its headroom.
 */

#ifndef KELP_MEM_CONTROLLER_HH
#define KELP_MEM_CONTROLLER_HH

#include <vector>

#include "mem/latency_curve.hh"
#include "mem/requestor_table.hh"
#include "sim/types.hh"

namespace kelp {
namespace mem {

/** Arbitration policy for an oversubscribed controller. */
enum class Arbitration { Fair, RequestPriority };

/** Per-requestor resolution result for one tick. */
struct Grant
{
    /** Bandwidth actually delivered (GiB/s). */
    sim::GiBps delivered = 0.0;

    /** delivered / demanded, in [0, 1]; 1 when demand was 0. */
    double fraction = 1.0;

    /** Effective access latency this requestor observed (ns). */
    sim::Nanoseconds latency = 0.0;
};

/**
 * One memory controller (one NUMA subdomain's worth of channels when
 * subdomains are enabled; half of an interleaved socket otherwise).
 */
class Controller
{
  public:
    /**
     * @param id Node-unique controller id.
     * @param socket Socket this controller belongs to.
     * @param capacity Peak deliverable bandwidth, GiB/s.
     * @param curve Latency-load curve.
     */
    Controller(sim::McId id, sim::SocketId socket, sim::GiBps capacity,
               LatencyCurve curve);

    sim::McId id() const { return id_; }
    sim::SocketId socket() const { return socket_; }
    sim::GiBps capacity() const { return capacity_; }

    /** Select the arbitration policy (default Fair). */
    void
    setArbitration(Arbitration mode)
    {
        arbitration_ = mode;
        cacheValid_ = false;
    }
    Arbitration arbitration() const { return arbitration_; }

    /** Clear per-tick demand state. */
    void beginTick();

    /**
     * Register demand for this tick.
     *
     * @param requestor Task identifier (>= 0; grants are kept in a
     *        table indexed by it).
     * @param demand Requested bandwidth, GiB/s.
     * @param high_priority Only meaningful under RequestPriority.
     * @param latency_extra Additional per-request latency (e.g., the
     *        UPI hop for remote flows), added to this requestor's
     *        grant latency.
     */
    void addDemand(int requestor, sim::GiBps demand, bool high_priority,
                   sim::Nanoseconds latency_extra);

    /**
     * Resolve all registered demands into grants, utilization, and
     * latency.
     *
     * Incremental: when this tick's addDemand() sequence matched the
     * previous tick's exactly (same requestors, demands, priorities,
     * and latency extras, in the same order), arbitration is skipped
     * and the previous outputs stand -- the grants, utilization, and
     * latency are unchanged by construction. Debug builds re-run
     * arbitration on every hit and check the cached outputs bitwise.
     */
    void resolve();

    /** Arbitration-skip counters for the perf breakdown. */
    uint64_t cacheHits() const { return cacheHits_; }
    uint64_t cacheMisses() const { return cacheMisses_; }

    /** Utilization in [0, 1] from the last resolve(). */
    double utilization() const { return utilization_; }

    /** Controller-level effective latency from the last resolve(). */
    sim::Nanoseconds latency() const { return latency_; }

    /** Grant for a requestor (zero Grant if it had no demand). */
    Grant grant(int requestor) const;

    /** Total delivered bandwidth from the last resolve(). */
    sim::GiBps totalDelivered() const { return delivered_; }

  private:
    struct Demand
    {
        int requestor;
        sim::GiBps demand;
        bool highPriority;
        sim::Nanoseconds latencyExtra;
    };

    /** Run arbitration over demands_ into the output members. Pure
     * in (demands_, arbitration_, capacity_, curve_): re-running it
     * produces bitwise-identical outputs. */
    void arbitrate();

    sim::McId id_;
    sim::SocketId socket_;
    sim::GiBps capacity_;
    LatencyCurve curve_;
    Arbitration arbitration_ = Arbitration::Fair;

    std::vector<Demand> demands_;
    std::vector<Demand> prevDemands_;
    bool demandsDirty_ = false;
    bool cacheValid_ = false;
    uint64_t cacheHits_ = 0;
    uint64_t cacheMisses_ = 0;
    RequestorTable<Grant> grants_;
    double utilization_ = 0.0;
    sim::Nanoseconds latency_;
    sim::GiBps delivered_ = 0.0;
};

} // namespace mem
} // namespace kelp

#endif // KELP_MEM_CONTROLLER_HH
