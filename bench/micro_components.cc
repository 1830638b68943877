/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * building blocks -- synthetic trace generation, CVP-1 (de)serialisation,
 * the converter under both personalities, predictor lookups, cache
 * accesses and the whole core model.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "cache/hierarchy.hh"
#include "convert/cvp2champsim.hh"
#include "obs/bench_record.hh"
#include "obs/metrics.hh"
#include "pipeline/o3core.hh"
#include "resil/failure.hh"
#include "sim/simulator.hh"
#include "synth/generator.hh"
#include "trace/cvp_trace.hh"
#include "uarch/btb.hh"
#include "uarch/ittage.hh"
#include "uarch/tage.hh"

namespace
{

using namespace trb;

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadParams p = computeIntParams(1);
    TraceGenerator gen(p);
    for (auto _ : state) {
        CvpTrace t = gen.generate(static_cast<std::uint64_t>(state.range(0)));
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10000);

void
BM_CvpSerialize(benchmark::State &state)
{
    CvpTrace t = TraceGenerator(computeIntParams(2)).generate(10000);
    for (auto _ : state) {
        std::vector<std::uint8_t> buf;
        buf.reserve(1 << 20);
        for (const CvpRecord &rec : t)
            serializeCvpRecord(rec, buf);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_CvpSerialize);

void
BM_Convert(benchmark::State &state)
{
    CvpTrace t = TraceGenerator(computeIntParams(3)).generate(10000);
    ImprovementSet imps = state.range(0) ? kAllImps : kImpNone;
    for (auto _ : state) {
        Cvp2ChampSim conv(imps);
        ChampSimTrace out = conv.convert(t);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_Convert)->Arg(0)->Arg(1);

void
BM_TagePredict(benchmark::State &state)
{
    TageScL tage;
    Rng rng(5);
    Addr pc = 0x400000;
    for (auto _ : state) {
        bool taken = rng.chance(0.7);
        benchmark::DoNotOptimize(tage.predict(pc));
        tage.update(pc, taken);
        pc = 0x400000 + (pc * 29 + 64) % 16384;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagePredict);

void
BM_IttagePredict(benchmark::State &state)
{
    Ittage it;
    Rng rng(7);
    for (auto _ : state) {
        Addr target = 0x500000 + 64 * rng.below(8);
        benchmark::DoNotOptimize(it.predict(0x400100));
        it.update(0x400100, target);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IttagePredict);

void
BM_BtbLookup(benchmark::State &state)
{
    Btb btb;
    for (Addr pc = 0; pc < 4096 * 4; pc += 4)
        btb.update(0x400000 + pc, pc, BranchType::DirectJump);
    Addr pc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(btb.lookup(0x400000 + pc));
        pc = (pc + 4) % (4096 * 4);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtbLookup);

void
BM_HierarchyAccess(benchmark::State &state)
{
    MemoryHierarchy mh{HierarchyParams{}};
    Rng rng(9);
    Cycle now = 0;
    for (auto _ : state) {
        Addr a = 0x10000000 + 64 * rng.below(32768);
        benchmark::DoNotOptimize(
            mh.access(AccessKind::Load, a, 0x400000, now));
        now += 3;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void
BM_CoreSimulation(benchmark::State &state)
{
    CvpTrace cvp = TraceGenerator(serverParams(11)).generate(20000);
    Cvp2ChampSim conv(kAllImps);
    ChampSimTrace trace = conv.convert(cvp);
    for (auto _ : state) {
        O3Core core(modernConfig());
        SimStats s = core.run(trace);
        benchmark::DoNotOptimize(s.cycles);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_CoreSimulation);

void
BM_CoreSimulationTraced(benchmark::State &state)
{
    CvpTrace cvp = TraceGenerator(serverParams(11)).generate(20000);
    Cvp2ChampSim conv(kAllImps);
    ChampSimTrace trace = conv.convert(cvp);
    obs::PipelineTracer tracer(4096);
    for (auto _ : state) {
        O3Core core(modernConfig());
        core.setTracer(&tracer);
        SimStats s = core.run(trace);
        benchmark::DoNotOptimize(s.cycles);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_CoreSimulationTraced);

void
BM_CoreSimulationCancelPoll(benchmark::State &state)
{
    // The serving daemon's configuration: a cancel token attached but
    // never fired.  Compare against BM_CoreSimulation to price the
    // hot-loop poll (one masked test per record, one relaxed load per
    // kCancelPollInterval records).
    CvpTrace cvp = TraceGenerator(serverParams(11)).generate(20000);
    Cvp2ChampSim conv(kAllImps);
    ChampSimTrace trace = conv.convert(cvp);
    resil::CancelToken token;
    for (auto _ : state) {
        O3Core core(modernConfig());
        core.setCancelToken(&token);
        SimStats s = core.run(trace);
        benchmark::DoNotOptimize(s.cycles);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_CoreSimulationCancelPoll);

// --- Contended metrics updates: the two concurrency strategies. ---
//
// The experiment harness updates the metrics registry from every worker
// thread.  These benchmarks compare the write-side cost of the two
// options trb::obs offers under 1/4/8 threads hammering the same
// registry: a single internal mutex, and per-thread buffering with one
// flush at the end.

void
BM_MetricsLockedAdd(benchmark::State &state)
{
    static obs::MetricsRegistry registry;
    const std::string path =
        "bench.locked.t" + std::to_string(state.thread_index());
    for (auto _ : state)
        registry.addCounter(path, 1);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsLockedAdd)->Threads(1)->Threads(4)->Threads(8);

void
BM_MetricsThreadBuffer(benchmark::State &state)
{
    static obs::MetricsRegistry registry;
    const std::string path =
        "bench.buffered.t" + std::to_string(state.thread_index());
    // One buffer per benchmark thread, flushed once per iteration batch
    // -- the same shape as one harness task flushing at task end.
    obs::ThreadMetricsBuffer buffer(registry);
    for (auto _ : state)
        buffer.add(path, 1);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsThreadBuffer)->Threads(1)->Threads(4)->Threads(8);

} // namespace

// BENCHMARK_MAIN(), plus the observability tail every binary honours:
// finish(), then the BENCH run manifest (google-benchmark owns its own
// timing loops, so the manifest's wall clock covers the whole run).
int
main(int argc, char **argv)
{
    const auto start = std::chrono::steady_clock::now();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    trb::obs::finish();
    trb::obs::writeBenchRecord(
        "micro_components",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    return trb::resil::harnessExitCode();
}
