#include "audit.hh"

#include "flow/cfg.hh"
#include "flow/dataflow.hh"
#include "flow/regions.hh"
#include "flow/rules.hh"
#include "lint/lint.hh"

namespace perfbench
{

using namespace trb;

namespace
{

/** Counts whole-program findings; keeps no diagnostics. */
class CountingSink : public lint::DiagnosticSink
{
  public:
    explicit CountingSink(AuditResult &out) : out_(out) {}

    void
    report(const lint::RuleInfo &rule, std::uint64_t, Addr, std::string,
           std::string) override
    {
        ++out_.rules[rule.id];
        if (rule.severity == lint::Severity::Error)
            ++out_.flowErrors;
    }

  private:
    AuditResult &out_;
};

} // namespace

AuditResult
auditConversion(const Probe &p, const CvpTrace &cvp,
                const ChampSimTrace &conv)
{
    AuditResult r;
    r.uops = conv.size();
    lint::LintOptions opts;
    opts.maxDiagnosticsPerRule = 0;   // counts only
    {
        Span span(p.spans, "lint");
        span.setItems(conv.size());
        lint::LintReport rep = lint::lintConverted(cvp, conv, opts);
        r.lintErrors = rep.errors;
        for (const lint::RuleCount &c : rep.counts)
            r.rules[c.rule] += c.count;
    }
    p.add("lint.errors", static_cast<double>(r.lintErrors));

    flow::Cfg cfg;
    {
        Span span(p.spans, "flow.cfg");
        span.setItems(conv.size());
        cfg = flow::buildCfg(conv, opts.limits.maxContiguousStep);
    }
    flow::Dataflow df;
    {
        Span span(p.spans, "flow.dataflow");
        span.setItems(conv.size());
        df = flow::solveDataflow(cfg);
    }
    {
        Span span(p.spans, "flow.rules");
        CountingSink sink(r);
        flow::runCfgRules(cfg, df, opts.limits, flow::wholeProgramRuleIds(),
                          sink);
    }
    flow::RegionSignatures regions;
    {
        Span span(p.spans, "flow.regions");
        span.setItems(conv.size());
        regions = flow::buildRegions(conv, cfg, kRegionUops);
    }
    r.regionUops = regions.regionUops;
    r.regionRowSums.assign(regions.numRegions, 0);
    for (std::uint64_t row = 0; row < regions.numRegions; ++row)
        for (std::size_t col = 0; col < regions.blockPcs.size(); ++col)
            r.regionRowSums[row] += regions.bbvAt(row, col);
    r.bbvBits = regions.bbvBits();
    return r;
}

} // namespace perfbench
