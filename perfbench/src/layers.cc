#include "layers.hh"

#include <cstdio>

#include "audit.hh"
#include "cache/hierarchy.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "pipeline/o3core.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/simulator.hh"
#include "stats.hh"
#include "store/digest.hh"
#include "store/store.hh"
#include "synth/generator.hh"
#include "trace/branch_deduce.hh"
#include "uarch/btb.hh"
#include "uarch/ittage.hh"
#include "uarch/tage.hh"

namespace perfbench
{

using namespace trb;

CvpTrace
generateTrace(const Probe &p, const WorkloadParams &params,
              std::uint64_t length)
{
    Span span(p.spans, "synth.generate");
    span.setItems(length);
    TraceGenerator gen(params);
    return gen.generate(length);
}

ChampSimTrace
convertTrace(const Probe &p, const CvpTrace &cvp, ImprovementSet imps,
             ConvStats *stats_out)
{
    Span span(p.spans, "convert");
    span.setItems(cvp.size());
    Cvp2ChampSim conv(imps);
    ChampSimTrace out = conv.convert(cvp);
    p.add("convert.split_uops",
          static_cast<double>(conv.stats().splitMicroOps));
    if (stats_out)
        *stats_out = conv.stats();
    return out;
}

SimStats
runCore(const Probe &p, ChampSimView trace, const CoreParams &params,
        double warmupFraction, InstrPrefetcher *ipref)
{
    // simulate()'s uncached tail, step by step.
    auto warmup = static_cast<std::uint64_t>(
        warmupFraction * static_cast<double>(trace.size()));
    std::unique_ptr<O3Core> core;
    {
        Span span(p.spans, "core.construct");
        core = std::make_unique<O3Core>(params, ipref);
    }
    SimStats s;
    {
        Span span(p.spans, "core.run");
        span.setItems(trace.size());
        s = core->run(trace, warmup);
    }
    if (p.counters) {
        const MemoryHierarchy &mem = core->memory();
        p.add("core.sim_instructions", static_cast<double>(s.instructions));
        p.add("core.sim_cycles", static_cast<double>(s.cycles));
        p.add("uarch.cond_mispredicts",
              static_cast<double>(s.typeMispredicts[static_cast<int>(
                  BranchType::Conditional)]));
        p.add("cache.l1i_misses", static_cast<double>(mem.l1iMisses()));
        p.add("cache.l1d_misses", static_cast<double>(mem.l1dMisses()));
        p.add("cache.llc_misses", static_cast<double>(mem.llcMisses()));
        p.add("cache.mshr_merges",
              static_cast<double>(mem.l1iMshrMerges() +
                                  mem.l1dMshrMerges()));
    }
    return s;
}

namespace
{

/** Forwards to a prefetcher and counts the L1I fills it starts. */
class CountingPrefetcher : public InstrPrefetcher
{
  public:
    explicit CountingPrefetcher(InstrPrefetcher &inner) : inner_(inner) {}

    void
    onFetch(Addr ip, bool hit, Cycle now, PrefetchPort &port) override
    {
        Port counting(port, issued_);
        inner_.onFetch(ip, hit, now, counting);
    }

    void
    onBranch(Addr ip, BranchType type, Addr target, bool taken, Cycle now,
             PrefetchPort &port) override
    {
        Port counting(port, issued_);
        inner_.onBranch(ip, type, target, taken, now, counting);
    }

    const char *name() const override { return inner_.name(); }
    std::uint64_t issued() const { return issued_; }

  private:
    class Port : public PrefetchPort
    {
      public:
        Port(PrefetchPort &inner, std::uint64_t &issued)
            : inner_(inner), issued_(issued)
        {
        }
        bool
        issue(Addr addr, Cycle now) override
        {
            bool started = inner_.issue(addr, now);
            issued_ += started;
            return started;
        }
        bool
        present(Addr addr, Cycle now) const override
        {
            return inner_.present(addr, now);
        }

      private:
        PrefetchPort &inner_;
        std::uint64_t &issued_;
    };

    InstrPrefetcher &inner_;
    std::uint64_t issued_ = 0;
};

} // namespace

SimStats
runWithPrefetcher(const Probe &p, const std::string &name,
                  ChampSimView trace, const CoreParams &params,
                  double warmupFraction, bool traceCore)
{
    std::unique_ptr<InstrPrefetcher> pf;
    if (name != "none")
        pf = makeInstrPrefetcher(name);
    Span span(p.spans, "ipref." + name);
    if (!p.spans)
        return simulate(trace, {.params = params,
                                .warmupFraction = warmupFraction,
                                .ipref = pf.get()})
            .stats;
    std::unique_ptr<CountingPrefetcher> counting;
    if (pf)
        counting = std::make_unique<CountingPrefetcher>(*pf);
    SimStats s = runCore(traceCore ? p : Probe{}, trace, params,
                         warmupFraction, counting.get());
    p.add("ipref." + name + ".prefetches",
          counting ? static_cast<double>(counting->issued()) : 0.0);
    return s;
}

std::vector<std::string>
iprefNames()
{
    std::vector<std::string> names = {"none"};
    for (const std::string &n : ipc1PrefetcherNames())
        names.push_back(n);
    return names;
}

namespace
{

struct BranchEvent
{
    Addr ip = 0;
    Addr target = 0;
    BranchType type = BranchType::NotBranch;
    bool taken = false;
};

struct AccessEvent
{
    AccessKind kind = AccessKind::Load;
    Addr addr = 0;
    Addr ip = 0;
};

/** Seconds per pass of @p body, the median over @p passes passes. */
template <typename Setup, typename Body>
double
timePasses(int passes, Setup setup, Body body)
{
    std::vector<double> secs;
    for (int i = 0; i < passes; ++i) {
        auto state = setup();
        auto t0 = Clock::now();
        body(*state);
        secs.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(secs);
}

} // namespace

void
replayComponents(ChampSimView trace, const CoreParams &params,
                 Counters &out)
{
    std::vector<BranchEvent> branches;
    std::vector<AccessEvent> accesses;
    Addr cur_line = ~Addr{0};
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ChampSimRecord &rec = trace[i];
        if (lineAddr(rec.ip) != cur_line) {
            cur_line = lineAddr(rec.ip);
            accesses.push_back({AccessKind::Instr, rec.ip, rec.ip});
        }
        if (rec.isLoad())
            for (Addr a : rec.srcMem)
                if (a != 0)
                    accesses.push_back({AccessKind::Load, a, rec.ip});
        if (rec.isStore())
            for (Addr a : rec.destMem)
                if (a != 0)
                    accesses.push_back({AccessKind::Store, a, rec.ip});
        if (rec.isBranch) {
            BranchEvent ev;
            ev.ip = rec.ip;
            ev.type = deduceBranchType(rec, params.rules);
            ev.taken = rec.branchTaken != 0;
            ev.target =
                (ev.taken && i + 1 < trace.size()) ? trace[i + 1].ip : 0;
            branches.push_back(ev);
        }
    }

    std::uint64_t conds = 0, indirects = 0, ras_ops = 0;
    for (const BranchEvent &e : branches) {
        conds += e.type == BranchType::Conditional;
        indirects += e.type == BranchType::IndirectJump ||
                     e.type == BranchType::IndirectCall;
        ras_ops += e.type == BranchType::DirectCall ||
                   e.type == BranchType::IndirectCall ||
                   e.type == BranchType::Return;
    }

    constexpr int kPasses = 5;
    std::uint64_t sink = 0;
    double tage_s = timePasses(
        kPasses, [] { return std::make_unique<TageScL>(); },
        [&](TageScL &t) {
            for (const BranchEvent &e : branches)
                if (e.type == BranchType::Conditional) {
                    sink += t.predict(e.ip);
                    t.update(e.ip, e.taken);
                }
        });
    double btb_s = timePasses(
        kPasses,
        [&] {
            return std::make_unique<Btb>(params.btbEntries, params.btbWays);
        },
        [&](Btb &b) {
            for (const BranchEvent &e : branches) {
                sink += b.lookup(e.ip).hit;
                if (e.taken)
                    b.update(e.ip, e.target, e.type);
            }
        });
    double ittage_s = timePasses(
        kPasses, [] { return std::make_unique<Ittage>(); },
        [&](Ittage &t) {
            for (const BranchEvent &e : branches)
                if (e.type == BranchType::IndirectJump ||
                    e.type == BranchType::IndirectCall) {
                    sink += t.predict(e.ip);
                    t.update(e.ip, e.target);
                }
        });
    double ras_s = timePasses(
        kPasses, [&] { return std::make_unique<Ras>(params.rasEntries); },
        [&](Ras &r) {
            for (const BranchEvent &e : branches) {
                if (e.type == BranchType::Return)
                    sink += r.pop();
                else if (e.type == BranchType::DirectCall ||
                         e.type == BranchType::IndirectCall)
                    r.push(e.ip + 4);
            }
        });
    double cache_s = timePasses(
        kPasses,
        [&] { return std::make_unique<MemoryHierarchy>(params.mem); },
        [&](MemoryHierarchy &h) {
            Cycle now = 0;
            for (const AccessEvent &a : accesses) {
                now += 2;
                sink += h.access(a.kind, a.addr, a.ip, now).latency;
            }
        });
    double core_s = timePasses(
        kPasses, [&] { return std::make_unique<O3Core>(params); },
        [&](O3Core &c) { sink += c.run(trace).cycles; });

    auto per = [](double s, std::uint64_t n) {
        return n ? s * 1e9 / static_cast<double>(n) : 0.0;
    };
    out["uarch.tage_ns_per_branch"] = per(tage_s, conds);
    out["uarch.btb_ns_per_lookup"] = per(btb_s, branches.size());
    out["uarch.ittage_ns_per_indirect"] = per(ittage_s, indirects);
    out["uarch.ras_ns_per_op"] = per(ras_s, ras_ops);
    out["cache.ns_per_access"] = per(cache_s, accesses.size());
    out["replay.core_share_pct"] =
        100.0 * (tage_s + btb_s + ittage_s + ras_s + cache_s) / core_s;
    // Keeps the replay loops from being optimised away.
    out["replay.checksum"] = static_cast<double>(sink % 1000003);
}

void
storeRoundTrip(const Probe &p, store::Store &st, const CvpTrace &cvp,
               const ChampSimTrace &conv, const SimStats &stats,
               const std::string &tag)
{
    std::size_t bytes = serializeCvpTrace(cvp).size();
    store::Digest d;
    {
        Span span(p.spans, "store.digest");
        span.setItems(bytes);
        d = store::digestCvpTrace(cvp);
    }
    std::string key = "perfbench;" + tag + ";" + d.hex();
    {
        Span span(p.spans, "store.put");
        st.putTrace(key, conv);
        st.putBits(key, stats.toBits());
    }
    {
        Span span(p.spans, "store.load");
        store::TraceHandle h;
        std::vector<std::uint64_t> bits;
        bool ok = st.loadTrace(key, h) && st.loadBits(key, bits);
        span.setItems(ok ? 1 : 0);
    }
}

void
probeMissingLayers(const Probe &p, const WorkloadParams &params,
                   std::uint64_t length, const std::string &run_dir)
{
    if (!p.spans)
        return;
    const std::map<std::string, SpanTotal> have =
        spanTotals(p.spans->snapshot());
    auto missing = [&](const char *span) { return !have.count(span); };

    Probe quiet;   // inputs of the probe are made untraced
    CvpTrace cvp = generateTrace(quiet, params, length);
    ChampSimTrace conv_none = convertTrace(quiet, cvp, kImpNone);
    ChampSimTrace conv_all = convertTrace(quiet, cvp, kAllImps);

    SimStats stats;
    if (missing("core.run"))
        stats = runCore(p, conv_all, modernConfig(), 0.0);
    else
        stats = runCore(quiet, conv_all, modernConfig(), 0.0);

    if (missing("ipref.none"))
        for (const std::string &name : iprefNames())
            runWithPrefetcher(p, name, conv_all, ipc1Config(), 0.5, false);

    if (missing("lint")) {
        auditConversion(p, cvp, conv_none);
        auditConversion(p, cvp, conv_all);
    }

    if (missing("store.digest")) {
        store::Store st(run_dir + "/probe-store");
        storeRoundTrip(p, st, cvp, conv_all, stats, "probe");
    }

    if (missing("serve.ping")) {
        // A one-worker daemon with its own store, answering pings, cold
        // requests and their warm repeats.
        store::Store::setDirForTesting(run_dir + "/probe-serve-store");
        par::ThreadPool pool(1);
        serve::ServeConfig cfg;
        cfg.socketPath = run_dir + "/probe.sock";
        serve::ServeDaemon daemon(cfg, &pool);
        Status st = daemon.start();
        serve::ServeClient client;
        if (st.ok())
            st = client.connect(cfg.socketPath, 5000);
        if (!st.ok()) {
            std::fprintf(stderr, "perfbench: serve probe: %s\n",
                         st.toString().c_str());
        } else {
            for (int i = 0; i < 20; ++i) {
                serve::ServeReply reply;
                Span span(p.spans, "serve.ping");
                client.ping(reply);
            }
            for (const char *phase : {"serve.cold", "serve.warm"})
                for (int i = 0; i < 3; ++i) {
                    serve::ServeRequest req;
                    req.op = serve::Op::Sim;
                    req.id = std::string(phase) + std::to_string(i);
                    req.trace = "preset:int:" + std::to_string(
                                                    params.seed + i);
                    req.length = length;
                    serve::ServeReply reply;
                    Span span(p.spans, phase);
                    client.call(req, reply);
                }
            serveCodecs(p, "preset:int:" + std::to_string(params.seed),
                        length, stats);
        }
        client.close();
        daemon.stop();
        store::Store::setDirForTesting("");
    }
}

void
serveCodecs(const Probe &p, const std::string &spec, std::uint64_t length,
            const SimStats &stats)
{
    serve::ServeRequest req;
    req.op = serve::Op::Sim;
    req.id = "codec";
    req.trace = spec;
    req.length = length;
    req.imps = kAllImps;
    // One codec pair takes microseconds: time a batch, report per pair.
    constexpr int kPairs = 200;
    {
        Span span(p.spans, "serve.request_codec");
        span.setItems(kPairs);
        for (int i = 0; i < kPairs; ++i) {
            serve::ServeRequest back;
            serve::parseRequest(serve::requestJson(req), back);
        }
    }
    {
        Span span(p.spans, "serve.reply_codec");
        span.setItems(kPairs);
        SimResult r;
        r.stats = stats;
        for (int i = 0; i < kPairs; ++i) {
            serve::ServeReply back;
            serve::parseReply(serve::simReplyJson(req.id, r, 1), back);
        }
    }
    {
        Span span(p.spans, "serve.resolve");
        span.setItems(length);
        Expected<CvpTrace> t = serve::resolveTrace(req);
        (void)t;
    }
}

void
snapshotStoreLookups(Counters &out)
{
    const obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    out["store.hits"] = static_cast<double>(reg.counterValue("store.hits"));
    out["store.misses"] =
        static_cast<double>(reg.counterValue("store.misses"));
}

std::map<std::string, double>
layerMetrics(const std::vector<obs::SpanEvent> &spans,
             const Counters &counters)
{
    const std::map<std::string, SpanTotal> t = spanTotals(spans);
    auto secs = [&](const std::string &n) {
        auto it = t.find(n);
        return it == t.end() ? 0.0 : it->second.seconds;
    };
    auto items = [&](const std::string &n) {
        auto it = t.find(n);
        return it == t.end() ? 0.0 : static_cast<double>(it->second.items);
    };
    auto meanMs = [&](const std::string &n) {
        auto it = t.find(n);
        return it == t.end() || it->second.calls == 0
                   ? 0.0
                   : 1e3 * it->second.seconds /
                         static_cast<double>(it->second.calls);
    };
    auto count = [&](const std::string &n) {
        auto it = counters.find(n);
        return it == counters.end() ? 0.0 : it->second;
    };
    auto rate = [](double work, double s) { return s > 0 ? work / s : 0.0; };

    std::map<std::string, double> m;
    m["synth.generate_s"] = secs("synth.generate");
    m["synth.minstr_per_s"] =
        rate(items("synth.generate"), secs("synth.generate")) / 1e6;
    m["convert.s"] = secs("convert");
    m["convert.minstr_per_s"] = rate(items("convert"), secs("convert")) / 1e6;
    m["convert.split_uops"] = count("convert.split_uops");
    m["core.construct_ms"] = 1e3 * secs("core.construct");
    m["core.run_s"] = secs("core.run");
    m["core.ns_per_instr"] =
        1e9 * rate(secs("core.run"), items("core.run"));
    m["core.sim_instructions"] = count("core.sim_instructions");
    m["core.sim_cycles"] = count("core.sim_cycles");
    for (const char *n :
         {"uarch.tage_ns_per_branch", "uarch.btb_ns_per_lookup",
          "uarch.ittage_ns_per_indirect", "uarch.ras_ns_per_op",
          "uarch.cond_mispredicts", "cache.ns_per_access",
          "cache.l1i_misses", "cache.l1d_misses", "cache.llc_misses",
          "cache.mshr_merges", "replay.core_share_pct", "lint.errors"})
        m[n] = count(n);
    for (const std::string &name : iprefNames()) {
        m["ipref." + name + ".sim_s"] = secs("ipref." + name);
        m["ipref." + name + ".prefetches"] =
            count("ipref." + name + ".prefetches");
    }
    m["lint.s"] = secs("lint");
    m["flow.cfg_s"] = secs("flow.cfg");
    m["flow.dataflow_s"] = secs("flow.dataflow");
    m["flow.regions_s"] = secs("flow.regions");
    m["store.digest_ms"] = meanMs("store.digest");
    m["store.digest_gb_per_s"] =
        rate(items("store.digest"), secs("store.digest")) / 1e9;
    m["store.put_ms"] = meanMs("store.put");
    m["store.load_ms"] = meanMs("store.load");
    // The timed rounds' lookups; the probe's where the rounds made none.
    double hits = count("store.hits"), misses = count("store.misses");
    if (hits + misses == 0) {
        const obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        hits = static_cast<double>(reg.counterValue("store.hits"));
        misses = static_cast<double>(reg.counterValue("store.misses"));
    }
    m["store.hit_ratio"] = rate(hits, hits + misses);
    m["serve.ping_p50_ms"] = 1e3 * median(spanDurations(spans, "serve.ping"));
    m["serve.cold_p50_ms"] = 1e3 * median(spanDurations(spans, "serve.cold"));
    m["serve.warm_p50_ms"] = 1e3 * median(spanDurations(spans, "serve.warm"));
    m["serve.request_codec_us"] =
        1e6 * rate(secs("serve.request_codec"), items("serve.request_codec"));
    m["serve.reply_codec_us"] =
        1e6 * rate(secs("serve.reply_codec"), items("serve.reply_codec"));
    m["serve.resolve_ms"] = meanMs("serve.resolve");
    m["tracing.overhead_pct"] = count("tracing.overhead_pct");
    m["process.peak_rss_mb"] = count("process.peak_rss_mb");
    return m;
}

} // namespace perfbench
