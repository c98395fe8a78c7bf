// In-memory spans around the benchmark's calls into minihpx layers.
//
// The traced run wraps each call into a measured layer (async return,
// future::get, latch::count_down, counter_registry::resolve,
// counter_handle::evaluate, taskbench::run_graph) in a span: kind,
// start, end and the round that caused it (the round span is every
// call span's parent). Spans are kept per OS thread — one slot per
// worker of the live runtime, plus one for the non-worker threads that
// record (the main thread during set-up) — and written out when the
// run ends.
//
// A fine-grained round issues tens of thousands of calls, so each slot
// is a fixed-capacity reservoir (Algorithm R): every span is seen, a
// uniform sample is kept, and each kept span carries the weight
// seen/kept of its slot for the percentiles. Recording never
// allocates after prepare_spans(), so the allocation hook reads the
// program, not the tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

inline std::uint64_t now_ns() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// Heap allocations made by the process so far (every thread); counted
// by the global operator new replacement in main.cpp.
std::uint64_t allocations() noexcept;

enum class span_kind : std::uint8_t
{
    round,
    spawn,         // minihpx::async returns
    get_wait,      // future::get returns
    count_down,    // latch::count_down returns
    resolve,       // counter_registry::resolve returns
    evaluate,      // counter_handle::evaluate returns
    run_graph,     // taskbench::run_graph returns
};

char const* to_string(span_kind kind) noexcept;

struct span
{
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    // Round id (the parent round span); set-up rounds are numbered from
    // setup_round_base so they never collide with measured rounds.
    std::uint32_t round = 0;
    span_kind kind = span_kind::round;
};
inline constexpr std::uint32_t setup_round_base = 0xffff0000u;

// Spans recorded only while enabled; the untraced run never enables it.
bool tracing() noexcept;
void set_tracing(bool on) noexcept;
void set_round(std::uint32_t round) noexcept;

// Record a finished span on the calling thread's slot.
void record(span_kind kind, std::uint64_t start_ns, std::uint64_t end_ns);

// Allocate `workers + 1` slots of `capacity` spans each; drops earlier
// spans. Call before the first record, with no task running.
void prepare_spans(unsigned workers, std::size_t capacity);

// Weighted median of the kept spans of one kind (durations in ns), or
// 0 when none was recorded.
double median_ns(span_kind kind);

// Write every kept span as CSV (kind,round,start_ns,end_ns,weight).
// Returns false when the file cannot be written.
bool write_spans(std::string const& path);

// Times `f` as a `kind` span when tracing is on; otherwise just calls
// it. Works for void and value-returning callables alike.
template <typename F>
decltype(auto) timed(span_kind kind, F&& f)
{
    struct stopwatch
    {
        span_kind kind;
        bool on = tracing();
        std::uint64_t t0 = on ? now_ns() : 0;
        ~stopwatch()
        {
            if (on)
                record(kind, t0, now_ns());
        }
    } watch{kind};
    return static_cast<F&&>(f)();
}

}    // namespace perfbench
