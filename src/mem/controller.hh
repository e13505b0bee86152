/**
 * @file
 * Memory controller bandwidth/latency model.
 *
 * Every tick, the memory system hands each controller the list of
 * contributions routed to it, in flow order; resolve() arbitrates them
 * into one grant per merge slot and computes the controller's
 * utilization and effective latency from the latency-load curve. A
 * merge slot is the dense index of one requestor at this controller,
 * assigned by MemSystem's flow plan, so several flows of one
 * requestor merge into one grant.
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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/latency_curve.hh"
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

/** One flow's demand at one controller for one tick. */
struct Contribution
{
    /** Merge slot of the flow's requestor at this controller. */
    int slot = 0;

    /** Requested bandwidth, GiB/s; a value <= 0 is skipped. */
    sim::GiBps demand = 0.0;

    /** Request-priority class (RequestPriority arbitration only). */
    bool highPriority = false;

    /** Latency added to this flow's accesses (the UPI hop for
     * remote flows), ns. */
    sim::Nanoseconds latencyExtra = 0.0;

    bool operator==(const Contribution &) const = default;
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
        skipValid_ = false;
    }
    Arbitration arbitration() const { return arbitration_; }

    /**
     * Arbitrate one tick's contributions into per-slot grants,
     * utilization, and latency.
     *
     * @param in This tick's contributions, in flow order. A demand
     *        below 0 panics; a demand of 0 is skipped.
     * @param slots Number of merge slots; every contribution's slot
     *        lies in [0, slots).
     * @param allow_skip Arbitration skip: when true and @p in and
     *        @p slots equal the previous call's, the previous outputs
     *        stand -- arbitration is pure in them, so they are
     *        unchanged by construction. Debug builds re-arbitrate on
     *        every skip and check the outputs bitwise.
     */
    void resolve(const std::vector<Contribution> &in, int slots,
                 bool allow_skip);

    /** Arbitration skips and arbitrations, for the perf breakdown. */
    uint64_t cacheHits() const { return cacheHits_; }
    uint64_t cacheMisses() const { return cacheMisses_; }

    /** Utilization in [0, 1] from the last resolve(). */
    double utilization() const { return utilization_; }

    /** Controller-level effective latency from the last resolve(). */
    sim::Nanoseconds latency() const { return latency_; }

    /** Grant of a merge slot from the last resolve(); {0, 1,
     * latency()} when no live contribution landed in it. */
    Grant
    grant(int slot) const
    {
        const auto i = static_cast<size_t>(slot);
        if (slot < 0 || i >= slots_.size() || !slots_[i].live)
            return Grant{0.0, 1.0, latency_};
        return slots_[i].grant;
    }

    /** Total delivered bandwidth from the last resolve(). */
    sim::GiBps totalDelivered() const { return delivered_; }

  private:
    struct Slot
    {
        Grant grant;
        bool live = false;
    };

    /** The arbitration arithmetic for both modes. Pure in (in, slots,
     * arbitration_, capacity_, curve_): re-running it produces
     * bitwise-identical outputs. */
    void arbitrate(const std::vector<Contribution> &in, int slots);

    sim::McId id_;
    sim::SocketId socket_;
    sim::GiBps capacity_;
    LatencyCurve curve_;
    Arbitration arbitration_ = Arbitration::Fair;

    /** Inputs of the last arbitration, for the skip compare. */
    std::vector<Contribution> prev_;
    bool skipValid_ = false;
    uint64_t cacheHits_ = 0;
    uint64_t cacheMisses_ = 0;

    std::vector<Slot> slots_;
    double utilization_ = 0.0;
    sim::Nanoseconds latency_;
    sim::GiBps delivered_ = 0.0;
};

} // namespace mem
} // namespace kelp

#endif // KELP_MEM_CONTROLLER_HH
