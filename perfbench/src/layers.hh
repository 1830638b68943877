/**
 * @file
 * One call per layer of the program, each wrapped in a span when a
 * span timeline is given, plus the per-layer counters the traced run reports
 * and the replays that price single predictor and cache calls.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "convert/cvp2champsim.hh"
#include "ipref/instr_prefetcher.hh"
#include "pipeline/core_params.hh"
#include "pipeline/sim_stats.hh"
#include "store/store.hh"
#include "synth/params.hh"
#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"
#include "spans.hh"

namespace perfbench
{

/** Per-layer counts and directly measured per-layer values. */
using Counters = std::map<std::string, double>;

/** What the traced run hands the layer calls; both null untraced. */
struct Probe
{
    trb::obs::SpanTimeline *spans = nullptr;
    Counters *counters = nullptr;

    void
    add(const std::string &name, double v) const
    {
        if (counters)
            (*counters)[name] += v;
    }
};

/** TraceGenerator::generate, span "synth.generate". */
trb::CvpTrace generateTrace(const Probe &p, const trb::WorkloadParams &params,
                            std::uint64_t length);

/** Cvp2ChampSim::convert, span "convert"; @p stats_out optional. */
trb::ChampSimTrace convertTrace(const Probe &p, const trb::CvpTrace &cvp,
                                trb::ImprovementSet imps,
                                trb::ConvStats *stats_out = nullptr);

/**
 * O3Core construction (span "core.construct") and run ("core.run"),
 * the same two steps simulate() takes without a store.  Records the
 * run's cache and branch counters read through O3Core::memory().
 */
trb::SimStats runCore(const Probe &p, trb::ChampSimView trace,
                      const trb::CoreParams &params, double warmupFraction,
                      trb::InstrPrefetcher *ipref = nullptr);

/** Names of "none" plus the eight IPC-1 prefetchers, in report order. */
std::vector<std::string> iprefNames();

/**
 * One run with the L1I prefetcher @p name ("none" for no prefetcher),
 * span "ipref.<name>".  Untraced, this is simulate() without a store;
 * traced, the core steps are runCore()'s (their spans and counters
 * recorded only when @p traceCore) and the prefetcher's issued fills
 * are counted as ipref.<name>.prefetches.
 */
trb::SimStats runWithPrefetcher(const Probe &p, const std::string &name,
                                trb::ChampSimView trace,
                                const trb::CoreParams &params,
                                double warmupFraction, bool traceCore);

/**
 * Replay @p trace's branch stream through TageScL, Btb, Ittage and Ras
 * and its fetch/load/store addresses through MemoryHierarchy::access.
 * Each structure's loop is timed whole and divided by its call count;
 * results land in @p out as uarch.*_ns_per_* and cache.ns_per_access,
 * and replay.core_share_pct gives the share of one O3Core run of the
 * same trace that the replayed calls account for.
 */
void replayComponents(trb::ChampSimView trace, const trb::CoreParams &params,
                      Counters &out);

/**
 * Measure every layer that the workload's traced rounds did not reach,
 * on one small input derived from @p params, so that every traced run
 * reports every per-layer metric.  @p run_dir holds the probe's
 * temporary store and socket.
 */
void probeMissingLayers(const Probe &p, const trb::WorkloadParams &params,
                        std::uint64_t length, const std::string &run_dir);

/**
 * digestCvpTrace ("store.digest"), putTrace + putBits ("store.put") and
 * loadTrace + loadBits ("store.load") of one trace's artifacts.
 */
void storeRoundTrip(const Probe &p, trb::store::Store &st,
                    const trb::CvpTrace &cvp, const trb::ChampSimTrace &conv,
                    const trb::SimStats &stats, const std::string &tag);

/**
 * requestJson + parseRequest ("serve.request_codec"), simReplyJson +
 * parseReply ("serve.reply_codec") and resolveTrace ("serve.resolve")
 * for one request on @p spec.
 */
void serveCodecs(const Probe &p, const std::string &spec,
                 std::uint64_t length, const trb::SimStats &stats);

/** Record the store hits and misses so far as store.hits/store.misses. */
void snapshotStoreLookups(Counters &out);

/** Per-layer metrics from spans and counters (see README.md). */
std::map<std::string, double>
layerMetrics(const std::vector<trb::obs::SpanEvent> &spans,
             const Counters &counters);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
