#include "workload.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/stats.hh"
#include "experiments/experiment.hh"
#include "par/thread_pool.hh"
#include "resil/failure.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/simulator.hh"
#include "store/digest.hh"
#include "store/store.hh"
#include "synth/suites.hh"

namespace perfbench
{

using namespace trb;

namespace
{

/** splitmix64 of @p a and @p b: per-input seeds from the workload seed. */
std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e5e9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// @name Workload make-up (README.md lists the reasons).
/// @{
/** bench/fig1_improvement_geomean's default trace length. */
constexpr std::uint64_t kSweepLength = 60000;
/** bench/tab3_ipc1_ranking's default trace length and warm-up. */
constexpr std::uint64_t kPrefetchLength = 200000;
constexpr double kIpc1Warmup = 0.5;
/** The CVP-1 slice of paper-sweep, at the same length. */
constexpr std::uint64_t kAuditLength = kSweepLength;
/** The daemon's default request length. */
const std::uint64_t kServeLength = serve::ServeRequest{}.length;
constexpr unsigned kServeClients = 3;
constexpr unsigned kServeWorkers = 2;
/// @}

/**
 * Every @p stride-th trace of @p suite from @p first, in an order the
 * seed shuffles.  The suites list their traces by category, so the
 * slice spans every category in the suite's proportions.  The slice
 * itself is fixed: the host time of a round does not depend on the seed.
 */
std::vector<TraceSpec>
slice(const std::vector<TraceSpec> &suite, std::size_t first,
      std::size_t stride, std::uint64_t seed)
{
    std::vector<TraceSpec> out;
    for (std::size_t i = first; i < suite.size(); i += stride)
        out.push_back(suite[i]);
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[mixSeed(seed, i) % i]);
    return out;
}

/**
 * The slice's trace with the smallest name: the input of the warm-up
 * and of the layer probe, the same whatever the seed.
 */
const TraceSpec &
anchor(const std::vector<TraceSpec> &specs)
{
    return *std::min_element(specs.begin(), specs.end(),
                             [](const TraceSpec &a, const TraceSpec &b) {
                                 return a.name < b.name;
                             });
}

/** 17 of the 135 CVP-1 traces: 4 int, 4 fp, 1 crypto, 8 srv. */
std::vector<TraceSpec>
cvp1Slice(std::uint64_t seed, std::uint64_t length)
{
    return slice(cvp1PublicSuite(length), 4, 8, seed);
}

/** 7 of the 50 IPC-1 traces: 1 client, 5 server, 1 SPEC. */
std::vector<TraceSpec>
ipc1Slice(std::uint64_t seed, std::uint64_t length)
{
    return slice(ipc1Suite(length), 1, 7, seed);
}

double
msSince(Clock::time_point t0)
{
    return 1e3 * secondsBetween(t0, Clock::now());
}

/** Accumulates u64 words and digests them. */
class BitsDigest
{
  public:
    void add(const std::vector<std::uint64_t> &v)
    {
        words_.insert(words_.end(), v.begin(), v.end());
    }
    void
    add(double d)
    {
        std::uint64_t w = 0;
        std::memcpy(&w, &d, sizeof(w));
        words_.push_back(w);
    }
    std::string
    hex() const
    {
        return store::digestBytes(words_.data(),
                                  words_.size() * sizeof(std::uint64_t))
            .hex();
    }

  private:
    std::vector<std::uint64_t> words_;
};

double
geomeanDeltaPercent(const std::vector<double> &ratios)
{
    return 100.0 * (geomean(ratios) - 1.0);
}

// ---------------------------------------------------------------------
// paper-sweep
// ---------------------------------------------------------------------

/**
 * Figure 1 over the CVP-1 slice through runImprovementSweep; the traced
 * run and the checks take the same steps one layer at a time.
 */
class PaperSweep : public Workload
{
  public:
    explicit PaperSweep(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        specs_ = cvp1Slice(seed_, kSweepLength);
    }

    void
    warmUp() override
    {
        runImprovementSweep({anchor(specs_)}, figureOneSets(),
                            modernConfig());
    }

    RoundResult
    round(const Probe &p) override
    {
        RoundResult r;
        const auto &sets = figureOneSets();
        BitsDigest digest;
        if (p.spans)
            lastRows_.resize(specs_.size());
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            Clock::time_point t0 = Clock::now();
            std::vector<double> ratios;
            SimStats base;
            if (p.spans) {
                Row row = decomposedRow(p, specs_[i]);
                base = row.stats[0];
                for (std::size_t k = 1; k <= sets.size(); ++k)
                    ratios.push_back(row.stats[k].ipc() / base.ipc());
                lastRows_[i] = std::move(row);
            } else {
                std::vector<SimStats> baseline;
                resil::FailureReport failures;
                std::vector<DeltaSeries> series = runImprovementSweep(
                    {specs_[i]}, sets, modernConfig(), &baseline, &failures);
                base = baseline.at(0);
                for (const DeltaSeries &s : series)
                    ratios.push_back(s.ratio.at(0));
                r.failed += failures.size() != 0;
            }
            r.opMs.push_back(msSince(t0));
            ++r.attempted;
            digest.add(base.toBits());
            for (double ratio : ratios)
                digest.add(ratio);
        }
        r.digest = digest.hex();
        lastDigest_ = r.digest;
        return r;
    }

    void
    check(const Probe &, Checks &c) override
    {
        // The reference round: every run's stats, one layer at a time.
        if (lastRows_.size() != specs_.size()) {
            lastRows_.clear();
            for (const TraceSpec &spec : specs_)
                lastRows_.push_back(decomposedRow(Probe{}, spec));
        }
        const auto &sets = figureOneSets();
        std::map<std::string, std::vector<double>> ratios;
        instructions_ = 0;
        for (std::size_t i = 0; i < lastRows_.size(); ++i) {
            const Row &row = lastRows_[i];
            for (std::size_t k = 0; k <= sets.size(); ++k) {
                std::string tag = specs_[i].name + "/" +
                                  (k ? sets[k - 1].name : "original");
                checkRun(row.stats[k], row.converted[k], 0, tag, c);
                checkConversion(row.cvpRecords, row.converted[k],
                                row.conv[k], tag, c);
                instructions_ += row.converted[k];
                if (k)
                    ratios[sets[k - 1].name].push_back(
                        row.stats[k].ipc() / row.stats[0].ipc());
            }
        }
        std::map<std::string, double> delta;
        for (const auto &[name, r] : ratios)
            delta[name] = geomeanDeltaPercent(r);
        checkFigureOneSigns(delta, c);

        BitsDigest digest;
        for (const Row &row : lastRows_) {
            digest.add(row.stats[0].toBits());
            for (std::size_t k = 1; k < row.stats.size(); ++k)
                digest.add(row.stats[k].ipc() / row.stats[0].ipc());
        }
        c.expect(digest.hex() == lastDigest_,
                 "runImprovementSweep differs from the same runs made one "
                 "layer at a time");
    }

    std::uint64_t instructionsPerRound() const override
    {
        return instructions_;
    }
    WorkloadParams
    probeParams() const override
    {
        return anchor(specs_).params;
    }
    std::uint64_t probeLength() const override { return kSweepLength; }
    CoreParams coreParams() const override { return modernConfig(); }

  private:
    /** One trace's runs: index 0 is the original conversion. */
    struct Row
    {
        std::uint64_t cvpRecords = 0;
        std::vector<std::uint64_t> converted;
        std::vector<ConvStats> conv;
        std::vector<SimStats> stats;
    };

    static Row
    decomposedRow(const Probe &p, const TraceSpec &spec)
    {
        Row row;
        CvpTrace cvp = generateTrace(p, spec.params, spec.length);
        row.cvpRecords = cvp.size();
        std::vector<ImprovementSet> imps = {kImpNone};
        for (const NamedSet &s : figureOneSets())
            imps.push_back(s.set);
        for (ImprovementSet set : imps) {
            ConvStats cs;
            ChampSimTrace conv = convertTrace(p, cvp, set, &cs);
            row.converted.push_back(conv.size());
            row.conv.push_back(cs);
            row.stats.push_back(runCore(p, conv, modernConfig(), 0.0));
        }
        return row;
    }

    std::uint64_t seed_;
    std::vector<TraceSpec> specs_;
    std::vector<Row> lastRows_;
    std::string lastDigest_;
    std::uint64_t instructions_ = 0;
};

// ---------------------------------------------------------------------
// ipc1-prefetch
// ---------------------------------------------------------------------

/**
 * Table 3 over the IPC-1 slice: each trace converted under No_imp and
 * the IPC-1 fixes, each conversion simulated with no prefetcher and
 * with each of the eight.
 */
class Ipc1Prefetch : public Workload
{
  public:
    explicit Ipc1Prefetch(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        specs_ = ipc1Slice(seed_, kPrefetchLength);
    }

    void
    warmUp() override
    {
        const TraceSpec &first = anchor(specs_);
        CvpTrace cvp = generateTrace(Probe{}, first.params, first.length);
        simulate(cvp, {.params = ipc1Config(), .warmupFraction = kIpc1Warmup});
    }

    RoundResult
    round(const Probe &p) override
    {
        RoundResult r;
        BitsDigest digest;
        const std::vector<std::string> names = iprefNames();
        runs_.clear();
        instructions_ = 0;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            CvpTrace cvp = generateTrace(p, specs_[i].params,
                                         specs_[i].length);
            for (int v = 0; v < 2; ++v) {
                ConvStats cs;
                ChampSimTrace conv =
                    convertTrace(p, cvp, kSets[v], &cs);
                // One operation is one conversion's nine runs, a Table 3
                // cell group: single runs last ~30 ms, short enough for
                // host bursts to decide the tail.
                Clock::time_point t0 = Clock::now();
                for (const std::string &name : names) {
                    SimStats s = runWithPrefetcher(p, name, conv,
                                                   ipc1Config(),
                                                   kIpc1Warmup, true);
                    ++r.attempted;
                    digest.add(s.toBits());
                    runs_.push_back({i, v, name, cvp.size(), conv.size(),
                                     cs, s});
                    instructions_ += conv.size();
                }
                r.opMs.push_back(msSince(t0));
            }
        }
        r.digest = digest.hex();
        return r;
    }

    void
    check(const Probe &, Checks &c) override
    {
        // speedups[v][prefetcher] = per-trace IPC ratios over "none".
        std::map<std::string, std::vector<double>> speedups[2];
        std::map<std::pair<std::size_t, int>, double> baseIpc;
        for (const Run &run : runs_) {
            std::string tag = specs_[run.trace].name + "/" +
                              (run.set ? "fixed" : "competition") + "/" +
                              run.pf;
            auto warmup = static_cast<std::uint64_t>(
                kIpc1Warmup * static_cast<double>(run.converted));
            checkRun(run.stats, run.converted, warmup, tag, c);
            checkConversion(run.cvpRecords, run.converted, run.conv, tag, c);
            if (run.pf == "none")
                baseIpc[{run.trace, run.set}] = run.stats.ipc();
            else
                speedups[run.set][run.pf].push_back(
                    run.stats.ipc() / baseIpc.at({run.trace, run.set}));
        }
        std::map<std::string, double> geo[2];
        for (int v = 0; v < 2; ++v)
            for (const auto &[pf, r] : speedups[v])
                geo[v][pf] = geomean(r);
        checkPrefetchers(geo[0], geo[1], c);
        std::printf("perfbench: %s\n", prefetcherShift(geo[0], geo[1]).c_str());
    }

    std::uint64_t instructionsPerRound() const override
    {
        return instructions_;
    }
    WorkloadParams
    probeParams() const override
    {
        return anchor(specs_).params;
    }
    std::uint64_t probeLength() const override { return kPrefetchLength; }
    CoreParams coreParams() const override { return ipc1Config(); }

  private:
    static constexpr ImprovementSet kSets[2] = {kImpNone, kIpc1Imps};

    struct Run
    {
        std::size_t trace = 0;
        int set = 0;
        std::string pf;
        std::uint64_t cvpRecords = 0;
        std::uint64_t converted = 0;
        ConvStats conv;
        SimStats stats;
    };

    std::uint64_t seed_;
    std::vector<TraceSpec> specs_;
    std::vector<Run> runs_;
    std::uint64_t instructions_ = 0;
};

// ---------------------------------------------------------------------
// trace-audit
// ---------------------------------------------------------------------

/** Lint and whole-program analysis of the CVP-1 slice's conversions. */
class TraceAudit : public Workload
{
  public:
    explicit TraceAudit(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        specs_ = cvp1Slice(seed_, kAuditLength);
    }

    void
    warmUp() override
    {
        const TraceSpec &first = anchor(specs_);
        CvpTrace cvp = generateTrace(Probe{}, first.params, first.length);
        auditConversion(Probe{}, cvp, convertTrace(Probe{}, cvp, kAllImps));
    }

    RoundResult
    round(const Probe &p) override
    {
        RoundResult r;
        BitsDigest digest;
        rows_.clear();
        instructions_ = 0;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            CvpTrace cvp = generateTrace(p, specs_[i].params,
                                         specs_[i].length);
            Row row;
            for (int v = 0; v < 2; ++v) {
                ChampSimTrace conv = convertTrace(
                    p, cvp, v ? kAllImps : kImpNone, v ? &row.allStats
                                                       : nullptr);
                Clock::time_point t0 = Clock::now();
                AuditResult a = auditConversion(p, cvp, conv);
                r.opMs.push_back(msSince(t0));
                ++r.attempted;
                instructions_ += conv.size();
                for (const auto &[rule, n] : a.rules)
                    digest.add({store::digestString(rule).lo, n});
                digest.add(a.bbvBits);
                (v ? row.all : row.none) = std::move(a);
            }
            rows_.push_back(std::move(row));
        }
        r.digest = digest.hex();
        return r;
    }

    void
    check(const Probe &, Checks &c) override
    {
        for (std::size_t i = 0; i < rows_.size(); ++i)
            checkAudit(rows_[i].none, rows_[i].all, rows_[i].allStats,
                       specs_[i].name, c);
    }

    std::uint64_t instructionsPerRound() const override
    {
        return instructions_;
    }
    WorkloadParams
    probeParams() const override
    {
        return anchor(specs_).params;
    }
    std::uint64_t probeLength() const override { return kAuditLength; }
    CoreParams coreParams() const override { return modernConfig(); }

  private:
    struct Row
    {
        AuditResult none;
        AuditResult all;
        ConvStats allStats;
    };

    std::uint64_t seed_;
    std::vector<TraceSpec> specs_;
    std::vector<Row> rows_;
    std::uint64_t instructions_ = 0;
};

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

/** Generator parameters of a "preset:<kind>:<seed>" spec. */
WorkloadParams
presetParams(const std::string &kind, std::uint64_t seed)
{
    if (kind == "fp")
        return computeFpParams(seed);
    if (kind == "crypto")
        return cryptoParams(seed);
    if (kind == "server")
        return serverParams(seed);
    if (kind == "membound")
        return memoryBoundParams(seed);
    return computeIntParams(seed);
}

/**
 * An in-process ServeDaemon on an AF_UNIX socket with an empty store
 * and two pool workers; three clients in a closed loop.
 */
class ServeMix : public Workload
{
  public:
    ServeMix(std::uint64_t seed, std::string runDir)
        : seed_(seed), runDir_(std::move(runDir))
    {
    }

    ~ServeMix() override { teardown(); }

    void
    setup() override
    {
        dir_ = runDir_ + "/serve-" + std::to_string(::getpid());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_ + "/store");
        store::Store::setDirForTesting(dir_ + "/store");
        pool_ = std::make_unique<par::ThreadPool>(kServeWorkers);
        serve::ServeConfig cfg;
        cfg.socketPath = dir_ + "/s.sock";
        daemon_ = std::make_unique<serve::ServeDaemon>(cfg, pool_.get());
        Status st = daemon_->start();
        if (!st.ok())
            throw std::runtime_error("serve-mix: " + st.toString());
        answered_.assign(kServeClients, {});
        for (unsigned c = 0; c < kServeClients; ++c) {
            clients_.push_back(std::make_unique<serve::ServeClient>());
            st = clients_.back()->connect(cfg.socketPath, 5000);
            if (!st.ok())
                throw std::runtime_error("serve-mix: " + st.toString());
        }
    }

    void
    warmUp() override
    {
        // A ping and one simulation that bypasses the store, which stays
        // empty for the timed rounds.
        serve::ServeRequest req;
        req.op = serve::Op::Sim;
        req.id = "warm-up";
        req.trace = "preset:int:" + std::to_string(seed_);
        req.length = kServeLength;
        req.useStore = false;
        serve::ServeReply reply;
        Status st = clients_[0]->ping(reply);
        if (st.ok())
            st = clients_[0]->call(req, reply);
        if (!st.ok() || !reply.ok)
            throw std::runtime_error("serve-mix: warm-up failed");
    }

    void
    teardown() override
    {
        for (auto &c : clients_)
            c->close();
        clients_.clear();
        if (daemon_)
            daemon_->stop();
        daemon_.reset();
        pool_.reset();
        if (!dir_.empty()) {
            store::Store::setDirForTesting("");
            std::filesystem::remove_all(dir_);
            dir_.clear();
        }
        exchanges_.clear();
        requests_.clear();
        round_ = 0;
    }

    RoundResult
    round(const Probe &p) override
    {
        // Each client's plan: cold, ping, warm, cold, warm, ping, warm,
        // warm.  A warm request repeats a cold one the same client has
        // had answered, so it always finds its twin in the store.
        static const char kPlan[] = "CPWCWPWW";
        static const char *kKinds[] = {"int", "fp", "crypto", "server",
                                       "membound"};
        const std::size_t per = sizeof(kPlan) - 1;
        const std::size_t first = exchanges_.size();
        exchanges_.resize(first + kServeClients * per);
        std::vector<Clock::time_point> start(exchanges_.size() - first);
        std::vector<Clock::time_point> stop(start.size());
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kServeClients; ++c) {
            // Requests are built here, on one thread, so the plan is a
            // function of (seed, round, client) alone.
            std::vector<serve::ServeRequest> reqs;
            std::uint64_t rng = mixSeed(seed_, (round_ << 8) | c);
            std::vector<std::size_t> colds;
            for (std::size_t k = 0; k < per; ++k) {
                Exchange &e = exchanges_[first + c * per + k];
                serve::ServeRequest req;
                char id[64];
                std::snprintf(id, sizeof(id), "c%u-r%llu-%zu", c,
                              static_cast<unsigned long long>(round_), k);
                req.id = id;
                e.id = req.id;
                rng = mixSeed(rng, k);
                if (kPlan[k] == 'P') {
                    req.op = serve::Op::Ping;
                    e.ping = true;
                } else if (kPlan[k] == 'C') {
                    // Every round asks for the same kinds (each of the
                    // five, int twice) on fresh preset seeds.
                    req.op = serve::Op::Sim;
                    req.trace = std::string("preset:") +
                                kKinds[(2 * c + colds.size()) % 5] + ":" +
                                std::to_string(rng % 1000000007);
                    req.length = kServeLength;
                    req.imps = (rng >> 20) % 2 ? kAllImps : kImpNone;
                    e.cold = true;
                } else {
                    // A warm pick among this client's colds so far,
                    // this round's included (answered before it is sent).
                    std::size_t have = answered_[c].size();
                    std::size_t pick = (rng >> 8) % (have + colds.size());
                    std::string twin = pick < have
                                           ? answered_[c][pick]
                                           : exchanges_[colds[pick - have]].id;
                    req = requests_.at(twin);
                    req.id = e.id;
                    e.twin = twin;
                }
                if (e.cold)
                    colds.push_back(first + c * per + k);
                requests_[req.id] = req;
                reqs.push_back(req);
            }
            for (std::size_t idx : colds)
                answered_[c].push_back(exchanges_[idx].id);
            threads.emplace_back([this, c, first, per, reqs, &p, &start,
                                  &stop] {
                for (std::size_t k = 0; k < per; ++k) {
                    std::size_t slot = c * per + k;
                    Exchange &e = exchanges_[first + slot];
                    serve::ServeReply reply;
                    // Traced, each request is a span on its client's lane.
                    obs::SpanEvent ev;
                    if (p.spans) {
                        ev.name = e.ping ? "serve.ping"
                                  : e.cold ? "serve.cold"
                                           : "serve.warm";
                        ev.category = "request";
                        ev.worker = c + 1;
                        ev.startUs = obs::SpanTimeline::nowUs();
                    }
                    start[slot] = Clock::now();
                    Status st = clients_[c]->call(reqs[k], reply);
                    stop[slot] = Clock::now();
                    if (p.spans) {
                        ev.durUs = obs::SpanTimeline::nowUs() - ev.startUs;
                        p.spans->record(std::move(ev));
                    }
                    if (!st.ok())
                        continue;
                    ++e.replies;
                    e.ok = reply.ok;
                    e.replyId = reply.id;
                    e.seq = reply.seq;
                    e.statsFromStore = reply.statsFromStore;
                    if (!e.ping)
                        e.bits = reply.stats.toBits();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();

        RoundResult r;
        BitsDigest digest;
        for (std::size_t slot = 0; slot < start.size(); ++slot) {
            const Exchange &e = exchanges_[first + slot];
            ++r.attempted;
            r.failed += !(e.replies == 1 && e.ok);
            if (!e.ping) {
                r.opMs.push_back(1e3 * secondsBetween(start[slot],
                                                      stop[slot]));
                digest.add(e.bits);
            }
        }
        if (round_ == 0)
            r.digest = digest.hex();
        ++round_;
        return r;
    }

    void
    check(const Probe &p, Checks &c) override
    {
        // Every cold request again, directly in this process, without
        // the store.
        std::vector<const Exchange *> colds;
        for (const Exchange &e : exchanges_)
            if (e.cold)
                colds.push_back(&e);
        std::vector<std::vector<std::uint64_t>> bits(colds.size());
        if (p.spans) {
            store::Store local(dir_ + "/layer-store");
            for (std::size_t i = 0; i < colds.size(); ++i) {
                const serve::ServeRequest &req = requests_.at(colds[i]->id);
                std::string kind = req.trace.substr(7);
                std::uint64_t pseed =
                    std::stoull(kind.substr(kind.find(':') + 1));
                kind = kind.substr(0, kind.find(':'));
                CvpTrace cvp =
                    generateTrace(p, presetParams(kind, pseed), req.length);
                ChampSimTrace conv = convertTrace(p, cvp, req.imps);
                SimStats s = runCore(p, conv, modernConfig(), 0.0);
                bits[i] = s.toBits();
                if (i < 16) {
                    storeRoundTrip(p, local, cvp, conv, s, req.id);
                    serveCodecs(p, req.trace, req.length, s);
                }
            }
        } else {
            par::ThreadPool verify(kServeClients);
            verify.parallelFor(colds.size(), [&](std::size_t i) {
                const serve::ServeRequest &req = requests_.at(colds[i]->id);
                Expected<CvpTrace> cvp = serve::resolveTrace(req);
                if (cvp.ok())
                    bits[i] = simulate(cvp.value(),
                                       {.imps = req.imps,
                                        .params = modernConfig(),
                                        .useStore = false})
                                  .stats.toBits();
            });
        }
        std::map<std::string, std::vector<std::uint64_t>> direct;
        for (std::size_t i = 0; i < colds.size(); ++i)
            direct[colds[i]->id] = std::move(bits[i]);
        checkServe(exchanges_, direct, c);
    }

    std::uint64_t instructionsPerRound() const override
    {
        return kServeClients * 6 * kServeLength;
    }
    WorkloadParams probeParams() const override
    {
        return computeIntParams(seed_);
    }
    std::uint64_t probeLength() const override { return kServeLength; }
    CoreParams coreParams() const override { return modernConfig(); }

  private:
    std::uint64_t seed_;
    std::string runDir_;
    std::string dir_;
    std::unique_ptr<par::ThreadPool> pool_;
    std::unique_ptr<serve::ServeDaemon> daemon_;
    std::vector<std::unique_ptr<serve::ServeClient>> clients_;
    std::uint64_t round_ = 0;
    std::vector<std::vector<std::string>> answered_;   //!< cold ids
    std::vector<Exchange> exchanges_;
    std::map<std::string, serve::ServeRequest> requests_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-sweep", "ipc1-prefetch", "serve-mix", "trace-audit"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &runDir)
{
    if (name == "paper-sweep")
        return std::make_unique<PaperSweep>(seed);
    if (name == "ipc1-prefetch")
        return std::make_unique<Ipc1Prefetch>(seed);
    if (name == "serve-mix")
        return std::make_unique<ServeMix>(seed, runDir);
    if (name == "trace-audit")
        return std::make_unique<TraceAudit>(seed);
    return nullptr;
}

} // namespace perfbench
