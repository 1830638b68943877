/**
 * @file
 * The four workloads behind one interface.  A run sets a workload up
 * (several times, to time set-up), runs whole rounds of its operations
 * until the run length is spent, then checks the outputs.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hh"
#include "layers.hh"
#include "pipeline/core_params.hh"
#include "synth/params.hh"

namespace perfbench
{

/** The default workload seed (README.md names the held-out one). */
constexpr std::uint64_t kDefaultSeed = 1;

/** Outcome of one round. */
struct RoundResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> opMs;   //!< latency of each timed operation
    /**
     * Digest of every SimStats bit the round produced (or lint counts
     * and region bits for trace-audit); empty when rounds differ by
     * design (serve-mix after its first round).
     */
    std::string digest;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs and start infrastructure; again after teardown(). */
    virtual void setup() = 0;
    virtual void teardown() {}

    /** One operation after set-up, so no timed round pays lazy start-up. */
    virtual void warmUp() = 0;

    /** One whole round; @p p carries the span timeline in the traced run. */
    virtual RoundResult round(const Probe &p) = 0;

    /** Check the outputs once the timed rounds are over. */
    virtual void check(const Probe &p, Checks &c) = 0;

    /** Converted instructions one round pushes through its pipeline. */
    virtual std::uint64_t instructionsPerRound() const = 0;

    /** Input and core configuration of the probe and the replays. */
    virtual trb::WorkloadParams probeParams() const = 0;
    virtual std::uint64_t probeLength() const = 0;
    virtual trb::CoreParams coreParams() const = 0;
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** A workload by name; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &runDir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
