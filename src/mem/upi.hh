/**
 * @file
 * Cross-socket interconnect (UPI/QPI) model.
 *
 * Remote memory flows traverse this link in addition to the remote
 * controller. Beyond its own bandwidth cap and hop latency, link load
 * taxes *local* traffic on both sockets through coherence overhead
 * (snoop responses slow down while the link is busy). The paper
 * observes this effect is strongest on the Cloud TPU platform
 * (Section VI-A, Figures 15 and 16); the coherence-tax coefficient is
 * a platform parameter.
 */

#ifndef KELP_MEM_UPI_HH
#define KELP_MEM_UPI_HH

#include "sim/types.hh"

namespace kelp {
namespace mem {

/** A bidirectional socket-to-socket link (modeled as one shared
 * capacity, which is conservative for symmetric traffic). */
class UpiLink
{
  public:
    /**
     * @param capacity Link bandwidth, GiB/s.
     * @param hop_latency Added latency per remote access, ns.
     * @param coherence_tax Latency multiplier-at-full-load applied to
     *        all memory accesses on the attached sockets; 0.5 means
     *        +50% latency when the link saturates.
     */
    explicit UpiLink(sim::GiBps capacity = 40.0,
                     sim::Nanoseconds hop_latency = 70.0,
                     double coherence_tax = 0.5);

    /** Clear per-tick demand state. */
    void beginTick();

    /** Register a remote flow's demand for this tick. */
    void addDemand(sim::GiBps demand);

    /** Finalize this tick's utilization, grant fraction, and the
     * congestion signals derived from them. */
    void resolve();

    /** Utilization in [0, 1] from the last resolve(). */
    double utilization() const { return utilization_; }

    /**
     * Congestion-effective utilization from the last resolve():
     * protocol and credit overheads congest the link below its
     * nominal data bandwidth, so queueing effects (distress,
     * coherence tax) key off demand relative to ~80% of nominal
     * capacity.
     */
    double congestionUtilization() const { return congestion_; }

    /** Fraction of demanded link bandwidth actually granted. */
    double grantFraction() const { return grantFraction_; }

    /** Latency added to remote accesses crossing the link (ns). */
    sim::Nanoseconds remoteLatency() const;

    /**
     * Multiplier (>= 1) applied to the latency of *all* memory
     * accesses on the attached sockets: the coherence tax, from the
     * last resolve().
     */
    double coherenceInflation() const { return coherence_; }

    sim::GiBps capacity() const { return capacity_; }

  private:
    sim::GiBps capacity_;
    sim::Nanoseconds hopLatency_;
    double coherenceTax_;

    sim::GiBps demand_ = 0.0;
    double utilization_ = 0.0;
    double grantFraction_ = 1.0;
    double congestion_ = 0.0;
    double coherence_ = 1.0;
};

} // namespace mem
} // namespace kelp

#endif // KELP_MEM_UPI_HH
