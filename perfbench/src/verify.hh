/**
 * @file
 * Output verification for the benchmark's operations.
 *
 * Every operation (one grid mix, one cluster cell, one single-node
 * run, one reference-path replay) is checked once and counts as
 * attempted; any failed check counts it as failed. The checks:
 *
 *  - no contract violations during the operation;
 *  - every metric finite and non-negative;
 *  - request conservation from the RunResult counters;
 *  - job conservation from the ClusterResult fields;
 *  - replays on the reference path byte-identical to the original.
 *
 * The digest is information only: a change that alters simulated
 * behaviour changes it without failing anything.
 */

#ifndef PERFBENCH_VERIFY_HH
#define PERFBENCH_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "exp/evaluation.hh"
#include "exp/scenario.hh"

namespace perfbench {

/** Byte-diffable text of a MixResult (every double in hex-float). */
std::string mixText(const kelp::exp::MixResult &m);

/** Byte-diffable text of a RunResult (fuzz::resultText). */
std::string runText(const kelp::exp::RunResult &r);

/** FNV-1a over a string, continuing from `h`. */
uint64_t fnv1a(const std::string &s,
               uint64_t h = 1469598103934665603ull);

class Verifier
{
  public:
    void checkRun(const std::string &what, const kelp::exp::RunResult &r,
                  uint64_t contractDelta);
    void checkMix(const std::string &what, const kelp::exp::MixResult &m,
                  uint64_t contractDelta);
    void checkCluster(const std::string &what,
                      const kelp::cluster::ClusterResult &c,
                      uint64_t contractDelta);

    /** One replay: the reference-path text must equal the original. */
    void compareReplay(const std::string &what, const std::string &original,
                       const std::string &replay);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failures_.size(); }

    /** One line per failed operation. */
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    /** Record one operation; empty `problem` means it passed. */
    void record(const std::string &what, const std::string &problem);

    uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

} // namespace perfbench

#endif // PERFBENCH_VERIFY_HH
