/**
 * @file
 * Correctness checks run at the end of every workload.  They test
 * properties the method must have and the signs the paper reports, not
 * a copy of any earlier output.  Each takes plain data, so the
 * self-test can feed it deliberately wrong input.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit.hh"
#include "convert/cvp2champsim.hh"
#include "pipeline/sim_stats.hh"

namespace perfbench
{

/** Collected check outcomes. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++count_;
        if (!ok)
            failures_.push_back(what);
    }

    bool ok() const { return failures_.empty(); }
    std::size_t count() const { return count_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::size_t count_ = 0;
    std::vector<std::string> failures_;
};

/**
 * Figure 1 signs, on geomean IPC deltas in percent keyed by set name:
 * base-update and Memory above 0; branch-regs, flag-reg, Branch and All
 * below 0; call-stack at or above 0; mem-regs and mem-footprint within
 * +-0.5%.
 */
void checkFigureOneSigns(const std::map<std::string, double> &deltaPct,
                         Checks &c);

/**
 * One simulation run: retired instructions equal the converted records
 * minus the warm-up, mispredicts do not exceed branches, and misses do
 * not exceed accesses at any cache level.
 */
void checkRun(const trb::SimStats &s, std::uint64_t convertedRecords,
              std::uint64_t warmup, const std::string &tag, Checks &c);

/** Converted records equal CVP records plus the split micro-ops. */
void checkConversion(std::uint64_t cvpRecords, std::uint64_t converted,
                     const trb::ConvStats &stats, const std::string &tag,
                     Checks &c);

/**
 * Table 3 on geomean speedups over no prefetcher keyed by prefetcher:
 * every prefetcher above 1 on both trace sets.
 */
void checkPrefetchers(const std::map<std::string, double> &competition,
                      const std::map<std::string, double> &fixed,
                      Checks &c);

/**
 * Table 3's other claim, reported but not checked: the paper finds
 * every prefetcher faster on the fixed traces.  This model reproduces
 * that for six of the eight, while the spatial pair (barca, jip) gains
 * less, and the mean of the eight falls on either side with the seed.
 * Returns one line: how many gain, and the two means.
 */
std::string prefetcherShift(const std::map<std::string, double> &competition,
                            const std::map<std::string, double> &fixed);

/** One request a serve-mix client sent and what came back. */
struct Exchange
{
    std::string id;
    bool ping = false;
    bool cold = false;
    std::string twin;          //!< warm request: id of its cold twin
    std::uint64_t replies = 0; //!< replies received for this request
    bool ok = false;
    std::string replyId;
    std::uint64_t seq = 0;
    bool statsFromStore = false;
    std::vector<std::uint64_t> bits;   //!< SimStats::toBits of the reply
};

/**
 * Exactly one reply per request, carrying the request's id; no sim
 * reply seq repeats; every cold reply equals @p direct (the bits of a
 * direct simulate() keyed by request id) and was computed, not served;
 * every warm reply came from the store and equals its cold twin.
 */
void checkServe(const std::vector<Exchange> &exchanges,
                const std::map<std::string, std::vector<std::uint64_t>>
                    &direct,
                Checks &c);

/**
 * One trace's audit: the All_imps conversion draws no lint or
 * whole-program errors; the No_imp conversion draws mem-dest-regs and
 * flag-dest errors, and base-update-split errors when All_imps split
 * base-update micro-ops; every region's BBV row sums to its length.
 */
void checkAudit(const AuditResult &none, const AuditResult &all,
                const trb::ConvStats &allStats, const std::string &tag,
                Checks &c);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
