/**
 * @file
 * Spans of the traced run.  Every call into a layer is wrapped in a
 * Span, recorded into a run-local trb::obs::SpanTimeline (the program's
 * own span store), aggregated per name into the per-layer metrics and
 * written with SpanTimeline::writeChromeTrace when the run ends.
 * Nothing here runs in an untraced run: the workloads get a null
 * timeline there.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * RAII span into @p timeline; a no-op when it is null, so layer calls
 * are written once for the traced and the untraced path.
 */
class Span
{
  public:
    Span(trb::obs::SpanTimeline *timeline, std::string name)
        : timeline_(timeline)
    {
        if (!timeline_)
            return;
        ev_.name = std::move(name);
        ev_.category = "layer";
        ev_.depth = depth()++;
        ev_.startUs = trb::obs::SpanTimeline::nowUs();
    }
    ~Span()
    {
        if (!timeline_)
            return;
        ev_.durUs = trb::obs::SpanTimeline::nowUs() - ev_.startUs;
        --depth();
        timeline_->record(std::move(ev_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setItems(std::uint64_t items) { ev_.items = items; }

  private:
    static std::uint32_t &
    depth()
    {
        thread_local std::uint32_t d = 0;
        return d;
    }

    trb::obs::SpanTimeline *timeline_;
    trb::obs::SpanEvent ev_;
};

/** Per-name totals of a timeline's spans. */
struct SpanTotal
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
};

inline std::map<std::string, SpanTotal>
spanTotals(const std::vector<trb::obs::SpanEvent> &spans)
{
    std::map<std::string, SpanTotal> out;
    for (const trb::obs::SpanEvent &s : spans) {
        SpanTotal &t = out[s.name];
        t.seconds += s.durUs * 1e-6;
        ++t.calls;
        t.items += s.items;
    }
    return out;
}

/** Durations in seconds of every @p name span, in record order. */
inline std::vector<double>
spanDurations(const std::vector<trb::obs::SpanEvent> &spans,
              const std::string &name)
{
    std::vector<double> out;
    for (const trb::obs::SpanEvent &s : spans)
        if (s.name == name)
            out.push_back(s.durUs * 1e-6);
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
