/**
 * @file
 * The SimStats golden cases, shared by tests/test_sim_golden.cc (which
 * recomputes them and compares every bit with the committed file) and
 * tools/make_sim_golden (which writes that file,
 * tests/data/golden/sim_stats.txt).
 *
 * Three groups cover every path of the core model the benches drive:
 *  - modern: modernConfig() over a reduced CVP-1 slice, the original
 *    conversion plus the nine Figure 1 improvement sets;
 *  - ipc1: ipc1Config() over a reduced IPC-1 slice, both Table 3
 *    conversions, with no instruction prefetcher and with each of the
 *    eight (the MSHR-merge and prefetch-fill paths);
 *  - offdefault: one core off the defaults (gshare, the original
 *    branch-deduction rules, no decoupled front-end).
 *
 * A case is one line: its name, then SimStats::toBits() in decimal.
 * A change to any line is a change to simulation output: it needs a
 * kSimKeyVersion bump (src/sim/simulator.cc) so stale store artifacts
 * stop being served, and a CHANGES.md line saying why.
 */

#ifndef TRB_TESTS_SIM_GOLDEN_HH
#define TRB_TESTS_SIM_GOLDEN_HH

#include <cstdint>
#include <istream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "convert/improvements.hh"
#include "experiments/experiment.hh"
#include "ipref/instr_prefetcher.hh"
#include "sim/simulator.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"

namespace trb::golden
{

/** The case groups, one gtest each. */
enum class Group
{
    Modern,
    Ipc1,
    OffDefault,
};

inline const char *
groupName(Group g)
{
    switch (g) {
      case Group::Modern: return "modern";
      case Group::Ipc1: return "ipc1";
      case Group::OffDefault: return "offdefault";
    }
    return "?";
}

/** One simulated configuration and its exact statistics. */
struct Case
{
    std::string name;
    std::vector<std::uint64_t> bits;
};

/// @name Slice make-up.  Changing any of these regenerates the file.
/// @{
constexpr std::uint64_t kCvpLength = 20000;
constexpr std::uint64_t kIpc1Length = 30000;
constexpr double kIpc1Warmup = 0.5;
/// @}

/** Every @p stride-th entry of @p suite from @p first. */
inline std::vector<TraceSpec>
every(const std::vector<TraceSpec> &suite, std::size_t first,
      std::size_t stride)
{
    std::vector<TraceSpec> out;
    for (std::size_t i = first; i < suite.size(); i += stride)
        out.push_back(suite[i]);
    return out;
}

/** Simulate one conversion of @p cvp without the store. */
inline std::vector<std::uint64_t>
simBits(const CvpTrace &cvp, ImprovementSet imps, const CoreParams &params,
        double warmup = 0.0, InstrPrefetcher *ipref = nullptr)
{
    return simulate(cvp, {.imps = imps,
                          .params = params,
                          .warmupFraction = warmup,
                          .ipref = ipref,
                          .useStore = false})
        .stats.toBits();
}

/** Compute every case of group @p g, in file order. */
inline std::vector<Case>
run(Group g)
{
    std::vector<Case> out;
    const std::string prefix = std::string(groupName(g)) + "/";
    if (g == Group::Ipc1) {
        const std::vector<std::string> &pfs = ipc1PrefetcherNames();
        for (const TraceSpec &spec :
             every(ipc1Suite(kIpc1Length), 1, 25)) {
            CvpTrace cvp = TraceGenerator(spec.params).generate(spec.length);
            for (ImprovementSet imps :
                 {ImprovementSet{kImpNone}, kIpc1Imps}) {
                std::string base = prefix + spec.name + "/" +
                                   improvementSetName(imps) + "/";
                out.push_back({base + "no",
                               simBits(cvp, imps, ipc1Config(),
                                       kIpc1Warmup)});
                for (const std::string &pf : pfs) {
                    auto ipref = makeInstrPrefetcher(pf);
                    out.push_back({base + pf,
                                   simBits(cvp, imps, ipc1Config(),
                                           kIpc1Warmup, ipref.get())});
                }
            }
        }
        return out;
    }

    CoreParams params = modernConfig();
    if (g == Group::OffDefault) {
        params.dirPred = DirPredKind::Gshare;
        params.rules = DeductionRules::Original;
        params.decoupledFrontEnd = false;
    }
    for (const TraceSpec &spec :
         every(cvp1PublicSuite(kCvpLength), 4, 27)) {
        CvpTrace cvp = TraceGenerator(spec.params).generate(spec.length);
        std::string base = prefix + spec.name + "/";
        out.push_back({base + "original", simBits(cvp, kImpNone, params)});
        if (g == Group::OffDefault) {
            out.push_back({base + "All", simBits(cvp, kAllImps, params)});
            continue;
        }
        for (const NamedSet &set : figureOneSets())
            out.push_back({base + set.name, simBits(cvp, set.set, params)});
    }
    return out;
}

/** One file line per case. */
inline std::string
format(const std::vector<Case> &cases)
{
    std::string s;
    for (const Case &c : cases) {
        s += c.name;
        for (std::uint64_t w : c.bits)
            s += " " + std::to_string(w);
        s += "\n";
    }
    return s;
}

/**
 * Parse a golden file: name -> bits, skipping '#' comments and blank
 * lines.  @return false (with @p err) on a malformed or duplicate line.
 */
inline bool
parse(std::istream &in,
      std::map<std::string, std::vector<std::uint64_t>> &out,
      std::string &err)
{
    std::string line;
    for (unsigned n = 1; std::getline(in, line); ++n) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        std::vector<std::uint64_t> bits;
        for (std::uint64_t w; fields >> w;)
            bits.push_back(w);
        if (!fields.eof() || bits.empty()) {
            err = "line " + std::to_string(n) + ": malformed";
            return false;
        }
        if (!out.emplace(name, std::move(bits)).second) {
            err = "line " + std::to_string(n) + ": duplicate case " + name;
            return false;
        }
    }
    return true;
}

} // namespace trb::golden

#endif // TRB_TESTS_SIM_GOLDEN_HH
