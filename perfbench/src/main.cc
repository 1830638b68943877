/**
 * @file
 * perfbench: one benchmark for the converter, the core model, the
 * store and the daemon.  See perfbench/README.md.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--run-dir DIR]
 *   perfbench --workload NAME --seed N --digest
 *   perfbench --self-test
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and the metrics (end-to-end ones with --trace 0,
 * per-layer ones with --trace 1).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "layers.hh"
#include "stats.hh"
#include "spans.hh"
#include "workload.hh"

extern char **environ;

namespace perfbench
{
int runSelfTest();
}

namespace
{

using namespace perfbench;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 15;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool traced = false;
    bool digestOnly = false;
    bool selfTest = false;
    std::string runDir = ".bench_run";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--run-dir DIR]\n"
                 "       perfbench --workload NAME --seed N --digest\n"
                 "       perfbench --self-test\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.traced = value() != "0";
        else if (a == "--run-dir")
            o.runDir = value();
        else if (a == "--digest")
            o.digestOnly = true;
        else if (a == "--self-test")
            o.selfTest = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (!o.selfTest && o.workload.empty())
        usage("--workload is required");
    if (o.seconds <= 0)
        usage("--seconds must be positive");
    return o;
}

/**
 * The program sees only the inputs the benchmark makes: no inherited
 * TRB_* setting (store, checkpoint, suite scale, faults, telemetry)
 * reaches it.  One pool worker, warnings only.
 */
void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "TRB_", 4) == 0)
            names.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("TRB_JOBS", "1", 1);
    setenv("TRB_LOG", "warn", 1);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<std::pair<std::string,
                                        std::pair<double, std::string>>>
                &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, ",
                      i ? ", " : "", metrics[i].first.c_str(),
                      metrics[i].second.first);
        out += buf;
        out += "\"unit\": \"" + metrics[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

/** Unit of each per-layer metric, by name suffix. */
std::string
layerUnit(const std::string &name)
{
    auto ends = [&](const char *s) {
        std::size_t n = std::strlen(s);
        return name.size() >= n &&
               name.compare(name.size() - n, n, s) == 0;
    };
    if (ends("minstr_per_s"))
        return "Minstr/s";
    if (ends("gb_per_s"))
        return "GB/s";
    if (ends("_pct"))
        return "%";
    if (ends("_mb"))
        return "MB";
    if (ends("_ratio"))
        return "ratio";
    if (ends("_ms"))
        return "ms";
    if (ends("_us"))
        return "us";
    if (ends("_s") || ends(".s"))
        return "s";
    if (name.find("ns_per_") != std::string::npos)
        return "ns";
    return "count";
}

/** Every operation latency of the timed rounds, as measured. */
std::vector<double>
latencySamples(const std::vector<RoundResult> &rounds)
{
    std::vector<double> out;
    for (const RoundResult &r : rounds)
        out.insert(out.end(), r.opMs.begin(), r.opMs.end());
    return out;
}

int
run(const Options &o, Clock::time_point processStart)
{
    const std::string dir =
        o.runDir + "/" + o.workload + "-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    std::unique_ptr<Workload> w = makeWorkload(o.workload, o.seed, dir);
    if (!w)
        usage(("unknown workload " + o.workload).c_str());

    // Set-up, timed several times: the first from process start, the
    // others after the previous teardown.  Each ends with one warm-up
    // operation, so that lazy initialisation lands in no timed round;
    // that operation is most of a set-up's time.
    std::vector<double> setupS;
    for (int rep = 0; rep < (o.digestOnly ? 1 : kSetupReps); ++rep) {
        if (rep)
            w->teardown();
        Clock::time_point t0 = rep ? Clock::now() : processStart;
        w->setup();
        w->warmUp();
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    Checks checks;
    if (o.digestOnly) {
        RoundResult r = w->round(Probe{});
        w->check(Probe{}, checks);
        for (const std::string &f : checks.failures())
            std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
        std::printf("digest %s seed %llu: %s\n", o.workload.c_str(),
                    static_cast<unsigned long long>(o.seed),
                    r.digest.c_str());
        w->teardown();
        std::filesystem::remove_all(dir);
        return checks.ok() && r.failed == 0 ? 0 : 1;
    }

    // Timed rounds.  The traced run alternates untraced and traced
    // rounds, so that its overhead is measured in the same process.
    trb::obs::SpanTimeline timeline;
    Counters counters;
    const Probe traced{&timeline, &counters};
    std::vector<RoundResult> rounds;
    std::vector<double> plainS, tracedS;
    Clock::time_point t0 = Clock::now();
    do {
        bool traceThis = o.traced && rounds.size() % 2 == 1;
        Clock::time_point rs = Clock::now();
        rounds.push_back(w->round(traceThis ? traced : Probe{}));
        (traceThis ? tracedS : plainS)
            .push_back(secondsBetween(rs, Clock::now()));
    } while (secondsBetween(t0, Clock::now()) < o.seconds ||
             (o.traced && tracedS.empty()));

    // The workload's peak and store lookups, not the checks'.
    const double rssMb = peakRssMb();
    snapshotStoreLookups(counters);
    w->check(o.traced ? traced : Probe{}, checks);
    std::fprintf(stderr, "perfbench: round seconds:");
    for (double s : plainS)
        std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");

    std::uint64_t attempted = 0, failed = 0;
    std::string digest;
    for (const RoundResult &r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
        if (r.digest.empty())
            continue;
        if (digest.empty())
            digest = r.digest;
        checks.expect(r.digest == digest,
                      "rounds of the same inputs gave different results");
    }
    for (const std::string &f : checks.failures())
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    std::printf("perfbench: %s seed %llu: %zu rounds, %zu checks %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                rounds.size(), checks.count(),
                checks.ok() ? "passed" : "FAILED");
    std::printf("digest %s seed %llu: %s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), digest.c_str());

    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
    if (!o.traced) {
        const std::vector<double> latency = latencySamples(rounds);
        Tail t = tail(latency);
        std::printf("perfbench: op_tail_ms is p%.2f of %zu operations\n",
                    t.percentile, t.samples);
        m.push_back({"setup_s", {median(setupS), "s"}});
        // Rounds repeat the same amount of work: the median round time
        // gives the throughput, robust to a round the host slowed.
        m.push_back({"minstr_per_s",
                     {static_cast<double>(w->instructionsPerRound()) /
                          median(plainS) / 1e6,
                      "Minstr/s"}});
        m.push_back({"op_p50_ms", {median(latency), "ms"}});
        m.push_back({"op_tail_ms", {t.value, "ms"}});
    } else {
        counters["process.peak_rss_mb"] = rssMb;
        counters["tracing.overhead_pct"] =
            100.0 * (median(tracedS) / median(plainS) - 1.0);
        Probe quiet;
        trb::CvpTrace cvp =
            generateTrace(quiet, w->probeParams(), w->probeLength());
        replayComponents(convertTrace(quiet, cvp, trb::kAllImps),
                         w->coreParams(), counters);
        probeMissingLayers(traced, w->probeParams(), w->probeLength(), dir);
        std::string path = o.runDir + "/trace-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
        std::ofstream os(path);
        timeline.writeChromeTrace(os, false);
        if (!os)
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        for (const auto &[name, v] :
             layerMetrics(timeline.snapshot(), counters))
            m.push_back({name, {v, layerUnit(name)}});
    }
    w->teardown();
    std::filesystem::remove_all(dir);
    printResult(checks.ok(), attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point processStart = Clock::now();
    Options o = parseArgs(argc, argv);
    pinEnvironment();
    if (o.selfTest)
        return runSelfTest();
    try {
        return run(o, processStart);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
