/**
 * @file
 * The trace-audit layer calls: lint plus the whole-program CFG,
 * dataflow, rule and region analysis of one converted trace.
 */

#ifndef PERFBENCH_AUDIT_HH
#define PERFBENCH_AUDIT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hh"

namespace perfbench
{

/** Region length of the audit's region signatures, in µops. */
constexpr std::uint64_t kRegionUops = 4000;

/** What one audit found. */
struct AuditResult
{
    std::uint64_t uops = 0;                       //!< records audited
    std::uint64_t lintErrors = 0;                 //!< streaming rules
    std::uint64_t flowErrors = 0;                 //!< whole-program rules
    std::map<std::string, std::uint64_t> rules;   //!< findings per rule
    std::uint64_t regionUops = 0;
    std::vector<std::uint64_t> regionRowSums;     //!< BBV row sums
    std::vector<std::uint64_t> bbvBits;           //!< for the digest

    std::uint64_t
    count(const std::string &rule) const
    {
        auto it = rules.find(rule);
        return it == rules.end() ? 0 : it->second;
    }
};

/**
 * lintConverted ("lint"), buildCfg ("flow.cfg"), solveDataflow
 * ("flow.dataflow"), the whole-program rules ("flow.rules") and
 * buildRegions ("flow.regions") over @p conv, converted from @p cvp.
 */
AuditResult auditConversion(const Probe &p, const trb::CvpTrace &cvp,
                            const trb::ChampSimTrace &conv);

} // namespace perfbench

#endif // PERFBENCH_AUDIT_HH
